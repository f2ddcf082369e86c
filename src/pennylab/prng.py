"""Toy bit-stream generators, a verified permutation registry, and next-bit predictors.

Nothing here is claimed cryptographically strong.  The generators exist to
exercise exact prediction and distinguishing measurements at seed-enumerable
scale; the deliberately broken ones give the predictors something to find.
"""

from __future__ import annotations

import math
import os
from array import array
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Optional, Sequence

Bits = tuple[int, ...]
PermFn = Callable[[int], int]
PredictorFn = Callable[[Bits], int]

DEFAULT_CAP = 1 << 20
MAX_PERM_WIDTH = 20


def check_seed_space(seed_len: int) -> int:
    """Return 2**seed_len if it fits under the enumeration cap, else raise.

    The cap is 2**20, lowered (never raised) by the PENNY_CAP environment
    variable, which is read on every call.
    """
    space = 1 << seed_len
    env = os.environ.get("PENNY_CAP")
    if space > DEFAULT_CAP or (env and space > int(env)):
        raise ValueError("seed space too large")
    return space


# Bit values 0 and 1 as bytes, to and from the digits "0" and "1".
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_BITS = bytes.maketrans(b"01", b"\0\1")


def int_to_bits(value: int, length: int) -> Bits:
    """Big-endian bit tuple of value's low `length` bits, so int_to_bits(5, 3) == (1, 0, 1)."""
    if length <= 0:
        return ()
    return tuple(format(value & ((1 << length) - 1), "0%db" % length).encode().translate(_BITS))


def bits_to_int(bits: Sequence[int]) -> int:
    return int(bytes(bits).translate(_DIGITS) or b"0", 2)


# --------------------------------------------------------------------------
# Permutation registry
# --------------------------------------------------------------------------

_PERM_FACTORIES: dict[str, Callable[[int], PermFn]] = {}


def register_permutation(name: str, factory: Callable[[int], PermFn]) -> None:
    """Register a permutation family; `factory(m)` must return a bijection on [0, 2**m).

    The bijection is verified exhaustively the first time `permutation(name, m)`
    is looked up.
    """
    _PERM_FACTORIES[name] = factory
    permutation.cache_clear()


def _largest_prime_at_most(limit: int) -> int:
    for candidate in range(limit, 1, -1):
        if all(candidate % d for d in range(2, int(math.isqrt(candidate)) + 1)):
            return candidate
    raise ValueError("no prime below limit")


def _identity(m: int) -> PermFn:
    return lambda x: x


def _add1(m: int) -> PermFn:
    mask = (1 << m) - 1
    return lambda x: (x + 1) & mask


def _mul_odd(m: int) -> PermFn:
    mask = (1 << m) - 1
    return lambda x: (5 * x) & mask


def _unit_mul(m: int) -> PermFn:
    # Multiply inside the unit group of the largest prime fitting in m bits;
    # values outside [1, p) are fixed points so the map stays a bijection on
    # the full m-bit domain.
    p = _largest_prime_at_most(1 << m)
    g = 1 if p == 2 else 2

    def fn(x: int) -> int:
        if 0 < x < p:
            return (g * x) % p
        return x

    return fn


_PERM_FACTORIES.update(
    {
        "identity": _identity,
        "add1": _add1,
        "mulodd": _mul_odd,
        "mulmod": _unit_mul,
    }
)


@lru_cache(maxsize=128)
def permutation(name: str, m: int) -> PermFn:
    """Look up a registered permutation at width m, verifying it is a bijection.

    At most 128 verified (name, width) pairs are cached; the four shipped
    families at every width take 80.
    """
    if name not in _PERM_FACTORIES:
        raise ValueError(f"unknown permutation: {name!r}")
    if not 1 <= m <= MAX_PERM_WIDTH:
        raise ValueError(f"permutation width must be in [1, {MAX_PERM_WIDTH}]")
    fn = _PERM_FACTORIES[name](m)
    size = 1 << m
    seen = bytearray(size)
    for x in range(size):
        y = fn(x)
        if not 0 <= y < size or seen[y]:
            raise ValueError(f"permutation {name!r} is not a bijection at width {m}")
        seen[y] = 1
    return fn


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------


class _GeneratorFields(NamedTuple):
    kind: str
    out_len: int
    seed_len: int
    m: int = 0
    perm: Optional[str] = None


class GeneratorSpec(_GeneratorFields):
    """A deterministic seed-to-bit-stream map with a declared seed length."""

    __slots__ = ()

    def __new__(
        cls, kind: str, out_len: int, seed_len: int, m: int = 0, perm: Optional[str] = None
    ) -> "GeneratorSpec":
        if out_len < 1:
            raise ValueError("output length must be positive")
        return super().__new__(cls, kind, out_len, seed_len, m, perm)

    def describe(self) -> str:
        if self.kind == "blum-micali-ip":
            return f"bm,perm={self.perm},m={self.m}"
        if self.kind == "uniform-passthrough":
            return "passthrough"
        if self.kind == "broken-repeat":
            return "repeat"
        return f"counter,m={self.m}"


def parse_params(text: str, allowed: Sequence[str]) -> dict[str, str]:
    """Parse descriptor parameters "k=v,k=v", rejecting keys outside `allowed`.

    Empty pieces are skipped; a repeated key keeps its last value.
    """
    params = {}
    for part in text.split(","):
        if not part.strip():
            continue
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"malformed descriptor parameter: {part!r}")
        if key not in allowed:
            raise ValueError(f"unknown descriptor parameter: {key!r}")
        params[key] = value.strip()
    return params


# Descriptor family -> the parameters it accepts.
_GENERATOR_PARAMS = {"bm": ("perm", "m"), "counter": ("m",), "passthrough": (), "repeat": ()}


def parse_generator(text: str, n: int) -> GeneratorSpec:
    """Parse a generator descriptor like "bm,perm=add1,m=3" with output length n.

    The inverse of `GeneratorSpec.describe`.
    """
    kind, _, rest = text.partition(",")
    kind = kind.strip()
    if kind not in _GENERATOR_PARAMS:
        raise ValueError(f"unknown generator family: {kind!r}")
    params = parse_params(rest, _GENERATOR_PARAMS[kind])
    return make_generator(kind, n, int(params.get("m", "0")), params.get("perm", "mulmod"))


def make_generator(kind: str, n: int, m: int = 0, perm: str = "mulmod") -> GeneratorSpec:
    """The generator a descriptor family names, with output length n; m = 0 means unset."""
    if kind == "passthrough":
        return passthrough(n)
    if kind == "repeat":
        return broken_repeat(n)
    if kind not in ("bm", "counter"):
        raise ValueError(f"unknown generator family: {kind!r}")
    if not m:
        raise ValueError(f"generator {kind} requires a width m")
    return blum_micali(perm, m, n) if kind == "bm" else broken_counter(m, n)


def blum_micali(perm: str, m: int, out_len: int) -> GeneratorSpec:
    """Iterated-permutation generator: bit i is perm**(n-i+1)(x) ip y.

    The seed is the pair (x, y), each m bits wide.
    """
    spec = GeneratorSpec("blum-micali-ip", out_len, seed_len=2 * m, m=m, perm=perm)
    permutation(perm, m)  # verify the bijection up front
    return spec


def passthrough(out_len: int) -> GeneratorSpec:
    """Degenerate control: the output is the seed itself."""
    return GeneratorSpec("uniform-passthrough", out_len, seed_len=out_len)


def broken_repeat(out_len: int) -> GeneratorSpec:
    """Two seed bits repeated forever: bit i equals bit i-2 for every i >= 3."""
    return GeneratorSpec("broken-repeat", out_len, seed_len=2)


def broken_counter(m: int, out_len: int) -> GeneratorSpec:
    """Successive m-bit counter words starting from the seed value."""
    spec = GeneratorSpec("broken-counter", out_len, seed_len=m, m=m)
    if m < 1:
        raise ValueError("counter width must be positive")
    return spec


def _bm_stream(perm: str, m: int, out_len: int, x: int, y: int) -> Bits:
    """One Blum-Micali stream for the seed (x, y).

    The per-seed path: it serves `seed_plays` and sampled predictor runs.
    Compiled round tables come from `round_bits` and never call it.
    """
    fn = permutation(perm, m)
    # One forward pass over the iterate chain, emitted in reverse: bit 1 uses
    # the deepest iterate, bit out_len the first.
    chain = []
    cur = x
    for _ in range(out_len):
        cur = fn(cur)
        chain.append(cur)
    return tuple((chain[out_len - i] & y).bit_count() & 1 for i in range(1, out_len + 1))


# Swaps the bytes 0 and 1: flips a table of bits.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


@lru_cache(maxsize=4)
def _ip_rows(m: int) -> tuple[bytes, ...]:
    """Inner-product rows at width m: rows[c][y] = popcount(c & y) & 1.

    Built by doubling: each step gives c and y a new top bit, which adds
    their AND to the parity, so c's row is its row at the width below twice,
    the second copy flipped when c's top bit is set.  2**(2m) bytes, 1 MiB at
    m = 10.
    """
    rows = (b"\0",)
    for _ in range(m):
        rows = tuple(r + r for r in rows) + tuple(r + r.translate(_FLIP) for r in rows)
    return rows


@lru_cache(maxsize=4)
def _bm_iterates(perm: str, m: int, out_len: int) -> tuple[array, ...]:
    """Iterate rows of a Blum-Micali generator: iterates[j][x] = perm**(j+1)(x).

    2**m permutation calls tabulate perm once; each further row indexes the
    table with the one before.  4 * out_len * 2**m bytes, shared by every
    caller through the cache, so read only.
    """
    fn = permutation(perm, m)
    table = array("I", map(fn, range(1 << m)))
    rows = [table]
    for _ in range(out_len - 1):
        rows.append(array("I", map(table.__getitem__, rows[-1])))
    return tuple(rows)


def seed_bit_column(k: int, i: int) -> bytes:
    """Byte v is big-endian bit i of the k-bit seed v: runs of 2**(k-1-i) zeros, then as many ones."""
    width = 1 << (k - 1 - i)
    return (bytes(width) + b"\1" * width) * (1 << i)


def round_bits(g: GeneratorSpec, t: int) -> bytes:
    """Bit t of every seed's stream, byte v is seed_stream(g, v)[t - 1], with no per-seed stream.

    Blum-Micali's seed is v = x << m | y and bit t is
    ip(perm**(out_len-t+1)(x), y): one inner-product row per x.  In any other
    family bit t is seed bit (t-1) mod seed_len, of the seed plus (t-1)//m for
    a counter, whose column is therefore rotated left by that offset.
    """
    if t > g.out_len:
        raise ValueError("generator stream too short for this round")
    if g.kind == "blum-micali-ip":
        rows = _ip_rows(g.m)
        return b"".join([rows[c] for c in _bm_iterates(g.perm, g.m, g.out_len)[g.out_len - t]])
    column = seed_bit_column(g.seed_len, (t - 1) % g.seed_len)
    if g.kind == "broken-counter":
        offset = (t - 1) // g.m % len(column)
        return column[offset:] + column[:offset]
    return column


def seed_stream(g: GeneratorSpec, value: int) -> Bits:
    """The generator's full output for the seed whose big-endian bits read `value`, in [0, 2**seed_len).

    A bit tuple of length out_len, computed from the integer directly.
    """
    if g.kind == "uniform-passthrough":
        return int_to_bits(value, g.out_len)
    if g.kind == "broken-repeat":
        pair = (value >> 1, value & 1)
        return tuple(pair[i % 2] for i in range(g.out_len))
    if g.kind == "broken-counter":
        m, mask = g.m, (1 << g.m) - 1
        return tuple((((value + i // m) & mask) >> (m - 1 - i % m)) & 1 for i in range(g.out_len))
    if g.kind == "blum-micali-ip":
        return _bm_stream(g.perm, g.m, g.out_len, value >> g.m, value & ((1 << g.m) - 1))
    raise ValueError(f"unknown generator kind: {g.kind!r}")


# --------------------------------------------------------------------------
# Next-bit predictors
# --------------------------------------------------------------------------

PREDICTORS: dict[str, PredictorFn] = {}


def register_predictor(name: str, fn: PredictorFn) -> None:
    PREDICTORS[name] = fn


def resolve_predictor(name: str) -> PredictorFn:
    if name not in PREDICTORS:
        raise ValueError(f"unknown predictor: {name!r}")
    return PREDICTORS[name]


def _const0(prefix: Bits) -> int:
    return 0


def _const1(prefix: Bits) -> int:
    return 1


def _frequency(prefix: Bits) -> int:
    # Majority vote among previously seen bits in the same parity class as the
    # target position; ties and empty classes guess 1.  The parity split is
    # what lets the predictor lock onto period-2 structure.
    same = prefix[len(prefix) % 2 :: 2]
    ones = sum(same)
    return 1 if 2 * ones >= len(same) else 0


def _markov1(prefix: Bits) -> int:
    if not prefix:
        return 1
    prev = prefix[-1]
    successors = [prefix[j + 1] for j in range(len(prefix) - 1) if prefix[j] == prev]
    ones = sum(successors)
    return 1 if 2 * ones >= len(successors) else 0


def _periodicity(prefix: Bits) -> int:
    # Smallest period consistent with the whole prefix; the prefix-length
    # period is vacuously consistent, so this always resolves.
    length = len(prefix)
    if length == 0:
        return 1
    for p in range(1, length + 1):
        if all(prefix[j] == prefix[j - p] for j in range(p, length)):
            return prefix[length - p]
    raise AssertionError("unreachable")


PREDICTORS.update(
    {
        "const0": _const0,
        "const1": _const1,
        "frequency": _frequency,
        "markov1": _markov1,
        "periodicity": _periodicity,
    }
)


class Chooser(NamedTuple):
    """A next-bit guesser that carries its state along a stream instead of rereading the prefix.

    `guess(state)` is the bit it predicts next and `step(state, bit)` the
    state once that bit is seen; `init` is the state before any bit.  Folding
    `step` over a prefix and calling `guess` equals the predictor on that
    prefix.  The state is an immutable value, so one state may be stepped
    down both branches of a walk.
    """

    init: Any
    guess: Callable[[Any], int]
    step: Callable[[Any, int], Any]


def _keep(state: Any, bit: int) -> Any:
    return state


def _extend(prefix: Bits, bit: int) -> Bits:
    return prefix + (bit,)


def _frequency_guess(state: tuple[int, int, int]) -> int:
    # (length, ones at even positions, ones at odd positions): the target's
    # class has length // 2 bits either way.
    length, even, odd = state
    return 1 if 2 * (odd if length & 1 else even) >= length // 2 else 0


def _frequency_step(state: tuple[int, int, int], bit: int) -> tuple[int, int, int]:
    length, even, odd = state
    return (length + 1, even, odd + bit) if length & 1 else (length + 1, even + bit, odd)


def _markov1_guess(state: tuple[int, int, int, int, int]) -> int:
    # (last bit or -1, successors of a 0, ones among them, successors of a 1, ones among them)
    last, after0, ones0, after1, ones1 = state
    if last < 0:
        return 1
    return 1 if (2 * ones1 >= after1 if last else 2 * ones0 >= after0) else 0


def _markov1_step(state: tuple[int, int, int, int, int], bit: int) -> tuple[int, int, int, int, int]:
    last, after0, ones0, after1, ones1 = state
    if last == 1:
        return bit, after0, ones0, after1 + 1, ones1 + bit
    if last == 0:
        return bit, after0 + 1, ones0 + bit, after1, ones1
    return bit, after0, ones0, after1, ones1


def _periodicity_guess(state: tuple[int, int, int]) -> int:
    # (length L, the prefix newest bit first, bit p set while period p is
    # consistent): the smallest period p repeats the bit p - 1 back.
    length, prefix, periods = state
    if not length:
        return 1
    return prefix >> ((periods & -periods).bit_length() - 2) & 1


def _periodicity_step(state: tuple[int, int, int], bit: int) -> tuple[int, int, int]:
    # Period p survives when the new bit equals the one p back, bit p of the
    # shifted prefix; period L + 1 holds vacuously.
    length, prefix, periods = state
    shifted = prefix << 1
    return length + 1, shifted | bit, periods & (shifted if bit else ~shifted) | 1 << (length + 1)


_CHOOSERS = {
    _const0: Chooser((), _const0, _keep),
    _const1: Chooser((), _const1, _keep),
    _frequency: Chooser((0, 0, 0), _frequency_guess, _frequency_step),
    _markov1: Chooser((-1, 0, 0, 0, 0), _markov1_guess, _markov1_step),
    _periodicity: Chooser((0, 0, 0), _periodicity_guess, _periodicity_step),
}


def predictor_chooser(fn: PredictorFn, as_play: bool = False) -> Chooser:
    """The stepping form of a predictor function.

    Each built-in predictor keeps O(1) state.  Any other function, such as a
    custom `register_predictor` entry, steps the prefix tuple itself and is
    called on it once per guess.  Its guess is compared to the next bit as it
    is, unless `as_play`: then any truthy guess is 1, as a match plays it.
    """
    if fn in _CHOOSERS:
        return _CHOOSERS[fn]
    return Chooser((), (lambda prefix: 1 if fn(prefix) else 0) if as_play else fn, _extend)
