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

MAX_SEED_LEN = 20
DEFAULT_CAP = 1 << MAX_SEED_LEN
MAX_PERM_WIDTH = 20


def check_seed_space(seed_len: int) -> int:
    """Return 2**seed_len if it fits under the enumeration cap, else raise.

    The cap is 2**20, lowered (never raised) by the PENNY_CAP environment
    variable, which is read on every call.
    """
    try:
        cap = min(DEFAULT_CAP, int(os.environ.get("PENNY_CAP") or DEFAULT_CAP))
    except ValueError:
        raise ValueError("PENNY_CAP must be an integer") from None
    if seed_len > MAX_SEED_LEN or 1 << seed_len > cap:  # a wider space is refused before it is built
        raise ValueError("seed space too large")
    return 1 << seed_len


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
    """Register a permutation family under a new name; `factory(m)` must return a bijection on [0, 2**m).

    The bijection is verified exhaustively the first time `permutation(name, m)`
    is looked up.  A name binds once, as tables built from it are cached.
    """
    if name in _PERM_FACTORIES:
        raise ValueError(f"permutation already registered: {name!r}")
    _PERM_FACTORIES[name] = factory


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
    m: int = 0
    perm: Optional[str] = None


class GeneratorSpec(_GeneratorFields):
    """A deterministic seed-to-bit-stream map, checked when built against its family's `_GENERATORS` row."""

    __slots__ = ()

    def __new__(cls, kind: str, out_len: int, m: int = 0, perm: Optional[str] = None) -> "GeneratorSpec":
        if kind not in _GENERATORS:
            raise ValueError(f"unknown generator kind: {kind!r}")
        name, keys, _ = _GENERATORS[kind]
        for key, value, unset in (("m", m, 0), ("perm", perm, None)):
            if key not in keys and value != unset:
                raise ValueError(f"unknown descriptor parameter: {key!r}")
        if "m" in keys and m < 1:
            raise ValueError(f"generator {name} requires a width m")
        if out_len < 1:
            raise ValueError("output length must be positive")
        if "perm" in keys:
            permutation(perm, m)  # verify the bijection up front
        return super().__new__(cls, kind, out_len, m, perm)

    @property
    def seed_len(self) -> int:
        """The bits it reads: 2m for Blum-Micali, m for a counter, 2 for a repeat, out_len for a passthrough."""
        return _GENERATORS[self.kind][2](self.out_len, self.m)

    def describe(self) -> str:
        name, keys, _ = _GENERATORS[self.kind]
        return ",".join([name] + [f"{key}={getattr(self, key)}" for key in keys])


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


def parse_generator(text: str, n: int) -> GeneratorSpec:
    """Parse a generator descriptor like "bm,perm=add1,m=3" with output length n.

    The inverse of `GeneratorSpec.describe`.
    """
    name, _, rest = text.partition(",")
    name = name.strip()
    params = parse_params(rest, _GENERATORS[_generator_kind(name)][1])
    return make_generator(name, n, int(params.get("m", "0")), params.get("perm", "mulmod"))


def _generator_kind(name: str) -> str:
    """The spec kind of descriptor family `name`."""
    for kind, (family, _, _) in _GENERATORS.items():
        if family == name:
            return kind
    raise ValueError(f"unknown generator family: {name!r}")


def make_generator(name: str, n: int, m: int = 0, perm: str = "mulmod") -> GeneratorSpec:
    """Family `name`'s length-n generator from `prng-test`'s flags; perm "mulmod" is unset for a family without perm."""
    kind = _generator_kind(name)
    return blum_micali(perm, m, n) if name == "bm" else GeneratorSpec(kind, n, m, None if perm == "mulmod" else perm)


def blum_micali(perm: str, m: int, out_len: int) -> GeneratorSpec:
    """Iterated-permutation generator: bit i is perm**(n-i+1)(x) ip y.

    The seed is the pair (x, y), each m bits wide.
    """
    return GeneratorSpec("blum-micali-ip", out_len, m, perm)


def passthrough(out_len: int) -> GeneratorSpec:
    """Degenerate control: the output is the seed itself."""
    return GeneratorSpec("uniform-passthrough", out_len)


def broken_repeat(out_len: int) -> GeneratorSpec:
    """Two seed bits repeated forever: bit i equals bit i-2 for every i >= 3."""
    return GeneratorSpec("broken-repeat", out_len)


def broken_counter(m: int, out_len: int) -> GeneratorSpec:
    """Successive m-bit counter words starting from the seed value."""
    return GeneratorSpec("broken-counter", out_len, m)


# Spec kind -> (descriptor family, the keys its descriptor takes, in order,
# seed length from (out_len, m)).
_GENERATORS = {
    "blum-micali-ip": ("bm", ("perm", "m"), lambda out_len, m: 2 * m),
    "broken-counter": ("counter", ("m",), lambda out_len, m: m),
    "uniform-passthrough": ("passthrough", (), lambda out_len, m: out_len),
    "broken-repeat": ("repeat", (), lambda out_len, m: 2),
}


def _bm_stream(perm: str, m: int, out_len: int, x: int, y: int) -> Bits:
    """One Blum-Micali stream for the seed (x, y).

    The per-seed path: it serves a generator seat's `strategies.chooser` and sampled predictor runs.
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

    A bit tuple of length out_len, computed from the integer directly.  In
    every family but Blum-Micali, bit i is big-endian bit i mod k of
    (value + i // k) mod 2**k for a counter and of value itself otherwise,
    k the seed length: the rule `round_bits` tabulates.  So the stream is
    k-bit words written out in turn.
    """
    if g.kind == "blum-micali-ip":
        return _bm_stream(g.perm, g.m, g.out_len, value >> g.m, value & ((1 << g.m) - 1))
    k, count, width = g.seed_len, g.kind == "broken-counter", "0%db" % g.seed_len
    words = "".join([format((value + count * j) % (1 << k), width) for j in range(-(-g.out_len // k))])
    return tuple(words[: g.out_len].encode().translate(_BITS))


# --------------------------------------------------------------------------
# Next-bit predictors
# --------------------------------------------------------------------------


class Chooser(NamedTuple):
    """A next-bit guesser that carries its state along a stream instead of rereading the prefix.

    `guess(state)` is the bit it predicts next, 0 or 1, and `step(state,
    bit)` the state once that bit is seen; `init` is the state before any
    bit.  Folding `step` over a prefix and calling `guess` equals the
    predictor on that prefix.  A state is an immutable, hashable value, so
    one state may be stepped down both branches of a walk.
    """

    init: Any
    guess: Callable[[Any], int]
    step: Callable[[Any, int], Any]


def _keep(state: Any, bit: int) -> Any:
    return state


def _zero(state: Any) -> int:
    return 0


def _one(state: Any) -> int:
    return 1


def _frequency_guess(state: tuple[int, int, int]) -> int:
    # Majority vote among the earlier bits in the same parity class as the
    # target position; ties and empty classes guess 1.  The parity split is
    # what lets the predictor lock onto period-2 structure.  The state is
    # (length, ones at even positions, ones at odd positions): the target's
    # class has length // 2 bits either way.
    length, even, odd = state
    return 1 if 2 * (odd if length & 1 else even) >= length // 2 else 0


def _frequency_step(state: tuple[int, int, int], bit: int) -> tuple[int, int, int]:
    length, even, odd = state
    return (length + 1, even, odd + bit) if length & 1 else (length + 1, even + bit, odd)


def _markov1_guess(state: tuple[int, int, int, int, int]) -> int:
    # Majority vote among the bits that followed earlier occurrences of the
    # last bit; ties, no such bits and the empty prefix guess 1.  The state is
    # (last bit or -1, successors of a 0, ones among them, successors of a 1, ones among them).
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
    # Guess the bit one period back, for the smallest period consistent with
    # the whole prefix; the prefix-length period is vacuously consistent, so
    # one always is, and the empty prefix guesses 1.  The state is (length L,
    # the prefix newest bit first, bit p set while period p is consistent):
    # the smallest period p repeats the bit p - 1 back.
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


# The built-in predictors, each defined once, by its chooser.
_BUILTINS = {
    "const0": Chooser((), _zero, _keep),
    "const1": Chooser((), _one, _keep),
    "frequency": Chooser((0, 0, 0), _frequency_guess, _frequency_step),
    "markov1": Chooser((-1, 0, 0, 0, 0), _markov1_guess, _markov1_step),
    "periodicity": Chooser((0, 0, 0), _periodicity_guess, _periodicity_step),
}

# The choosers passed to `register_predictor`, by name; empty at import.
PREDICTORS: dict[str, Chooser] = {}


def register_predictor(name: str, chooser: Chooser) -> None:
    """Register `chooser` as the predictor `name`, shadowing a built-in of that name.

    Its guesses are read as bits: any truthy guess is 1, as a match plays it.
    """
    if not isinstance(chooser, Chooser) or not callable(chooser.guess) or not callable(chooser.step):
        raise ValueError("a predictor must be a Chooser with callable guess and step")
    guess = chooser.guess
    PREDICTORS[name] = chooser._replace(guess=lambda state: 1 if guess(state) else 0)


def predictor_chooser(name: str) -> Chooser:
    """The chooser of the predictor named `name`: the registered one, else the built-in."""
    c = PREDICTORS.get(name) or _BUILTINS.get(name)
    if c is None:
        raise ValueError(f"unknown predictor: {name!r}")
    return c
