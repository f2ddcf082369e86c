"""Strategy families with derived randomness budgets, plus head-to-head simulation.

An oblivious strategy's play at round t depends only on its seed and on t.
The seed is an integer in [0, 2**seed_len), read big-endian; `seed_len`
is the bits the family reads, derived from its parameters.  Its `chooser`
from one seed plays that seed, and `round_heads` counts the seeds that play
H at one round.  An adaptive strategy (a predictor or an exploiter) reads
no seed.  Every strategy's `chooser` follows the opponent's plays; `match`
steps two.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Any, Iterator, NamedTuple, Sequence, Union

from .game import Action, RationalLike, Transcript, as_fraction
from .prng import (
    Chooser,
    GeneratorSpec,
    check_seed_space,
    int_to_bits,
    parse_generator,
    parse_params,
    predictor_chooser,
    round_bits,
    seed_stream,
)
from .words import PlayWords, compile_words, identity_words, late_plays, split_words


class Seed:
    """A fixed bit string a strategy draws from, with read tracking.

    Bits are indexed from 0; `reads` accumulates every index handed out, which
    is what the tests' per-round reference player counts.  No pennylab code
    builds one: strategies play from the seed integer.  It stays here and in
    the package exports because `bench/tracer.py` wraps `Seed.__init__`, and
    the tracer fails on a class target it cannot find; `bench/test_bench.py`
    calls `from_int`.
    """

    __slots__ = ("bits", "reads")

    def __init__(self, bits: Union[str, Sequence[int]]):
        if isinstance(bits, str) and any(c not in "01" for c in bits):
            raise ValueError(f"malformed bit string: {bits!r}")
        self.bits = tuple(map(int, bits))
        if not {0, 1}.issuperset(self.bits):
            raise ValueError("seed bits must be 0 or 1")
        self.reads: set[int] = set()

    @classmethod
    def from_int(cls, value: int, length: int) -> "Seed":
        return cls(int_to_bits(value, length))

    def __len__(self) -> int:
        return len(self.bits)

    def bit(self, index: int) -> int:
        self.reads.add(index)
        return self.bits[index]

    def all_bits(self) -> tuple[int, ...]:
        self.reads.update(range(len(self.bits)))
        return self.bits


class StrategySpec(NamedTuple):
    """A named, parameterized strategy, whose seed length is derived from its parameters.

    `oblivious` (every kind but `predictor` and `exploiter`) says the output
    ignores history; it selects the `chooser` form, the play words in
    `majority_chooser` and the factorized path of `oracle.round_payoffs`.
    """

    kind: str
    params: tuple[tuple[str, Any], ...]

    @property
    def seed_len(self) -> int:
        """The bits it reads: a uniform table's or prefix-tail's first parameter, a generator's, or 0."""
        if self.kind in ("uniform-table", "prefix-tail"):
            return self.params[0][1]
        return self.params[0][1].seed_len if self.kind == "generator" else 0

    @property
    def oblivious(self) -> bool:
        return self.kind not in ("predictor", "exploiter")

    def param(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


# --------------------------------------------------------------------------
# Family constructors
# --------------------------------------------------------------------------


def uniform_table(seed_len: int) -> StrategySpec:
    """Play seed bit (t-1) mod seed_len at round t; 1 is H, 0 is T.

    With seed_len = 0 the table degenerates to constant H.
    """
    if seed_len < 0:
        raise ValueError("seed length must be non-negative")
    return StrategySpec("uniform-table", (("seed_len", seed_len),))


def constant(play: Action) -> StrategySpec:
    return StrategySpec("constant", (("play", play),))


def alternator(first: Action = Action.H) -> StrategySpec:
    """Alternate between the two actions, starting with `first` at round 1."""
    return StrategySpec("alternator", (("first", first),))


def prefix_tail(prefix_len: int, tail_kind: str, tail_start: Action = Action.H) -> StrategySpec:
    """Uniform random play for `prefix_len` rounds, then a deterministic tail.

    tail_kind "constant" repeats `tail_start`; "alternator" alternates starting
    from `tail_start` on the first tail round.
    """
    if prefix_len < 0:
        raise ValueError("prefix length must be non-negative")
    if tail_kind not in ("constant", "alternator"):
        raise ValueError(f"unknown tail kind: {tail_kind!r}")
    params = (("prefix_len", prefix_len), ("tail_kind", tail_kind), ("tail_start", tail_start))
    return StrategySpec("prefix-tail", params)


def generator_backed(g: GeneratorSpec) -> StrategySpec:
    """Play the generator's output stream as actions (bit 1 is H)."""
    return StrategySpec("generator", (("generator", g),))


def predictor_backed(name: str, beat: bool = False) -> StrategySpec:
    """Each round, guess the opponent's next move with a named next-bit predictor.

    With beat=False the strategy plays the predicted action itself (the
    matcher's winning reply); beat=True plays its flip (the mismatcher's).
    """
    predictor_chooser(name)  # rejects an unknown name
    return StrategySpec("predictor", (("predictor", name), ("beat", beat)))


# The deepest chain of exploiters an exploiter spec may hold, itself included.
# Describing, parsing and acting recurse once per level, so a bound far below
# the interpreter's recursion limit keeps every valid spec total.
MAX_NESTING = 32


def exploiter_vs(opponent: StrategySpec, beat: bool = False) -> StrategySpec:
    """The consistent-set majority strategy against a known opponent spec.

    Enumerates the opponent's seeds, plays against the majority prediction, and
    discards seeds contradicted by observation.  beat=False matches the
    prediction (seat 1), beat=True plays its flip (seat 2).  Rejects a chain of
    more than MAX_NESTING exploiters.
    """
    depth, inner = 1, opponent
    while inner.kind == "exploiter":
        depth, inner = depth + 1, inner.param("opponent")
    if depth > MAX_NESTING:
        raise ValueError(f"exploiters nest more than {MAX_NESTING} deep")
    return StrategySpec("exploiter", (("opponent", opponent), ("beat", beat)))


def check_seed_spaces(spec: StrategySpec) -> None:
    """`check_seed_space` for the spec and each model down its exploiter chain, whose seeds an exploiter enumerates."""
    check_seed_space(spec.seed_len)
    while spec.kind == "exploiter":
        spec = spec.param("opponent")
        check_seed_space(spec.seed_len)


def make_gamma_equilibrium(n: int, gamma: RationalLike) -> tuple[StrategySpec, StrategySpec]:
    """The budgeted equilibrium pair: uniform play for n(1-gamma) rounds, then tails.

    Player 1's tail is constant H; player 2's alternates H, T, ...  Requires
    gamma*n to be a non-negative even integer and (1-gamma)*n an integer.
    """
    g = as_fraction(gamma)
    if n < 1:
        raise ValueError("horizon must be positive")
    gn = g * n
    if not 0 <= g <= 1 or gn.denominator != 1 or gn.numerator % 2 != 0:
        raise ValueError("inadmissible gamma")
    if not gn:
        return uniform_table(n), uniform_table(n)
    return prefix_tail(n - int(gn), "constant"), prefix_tail(n - int(gn), "alternator")


# --------------------------------------------------------------------------
# Acting and simulation
# --------------------------------------------------------------------------


def tail_cycle(spec: StrategySpec) -> tuple[int, ...]:
    """The plays (1 is H) a non-generator spec repeats from round seed_len + 1 on; () repeats the seed's bits.

    A prefix-tail's starts with `tail_start`, and a seedless uniform table plays H.
    """
    if spec.kind == "uniform-table":
        return () if spec.seed_len else (1,)
    if spec.kind in ("constant", "alternator"):
        f = int(spec.params[0][1] is Action.H)  # its play, or the alternator's first
        return (f,) if spec.kind == "constant" else (f, f ^ 1)
    s = int(spec.param("tail_start") is Action.H)
    return (s,) if spec.param("tail_kind") == "constant" else (s, s ^ 1)


def _check_seed(spec: StrategySpec, seed: int) -> None:
    if seed < 0 or seed.bit_length() > spec.seed_len:
        raise ValueError("budget violation")


def _next_round(t: int, seen: int) -> int:
    return t + 1


def chooser(spec: StrategySpec, n: int, seed: int = 0) -> Chooser:
    """A spec's stepping form for a game of n rounds from one seed, which walks and matches carry along their paths.

    `guess(state)` is the spec's own next play (1 is H): the opponent play
    it predicts, or its flip when `beat` is set.  `step(state, bit)` follows
    one opponent play, so the spec never rereads the history.  An oblivious
    spec's state is the round, whatever it sees: a generator plays its
    stream, and every other family its seed's first min(n, seed_len)
    big-endian bits and then its `tail_cycle`, as `round_heads` counts them.
    """
    _check_seed(spec, seed)
    if spec.kind == "generator":
        if n > horizon(spec):
            raise ValueError("generator stream too short for this round")
        return Chooser(0, seed_stream(spec.param("generator"), seed).__getitem__, _next_round)
    if spec.oblivious:
        k = spec.seed_len
        head = int_to_bits(seed >> max(0, k - n), min(n, k))  # only the bits played
        cycle = tail_cycle(spec) or head  # a seeded uniform table repeats its seed
        return Chooser(0, lambda t: head[t] if t < k else cycle[(t - k) % len(cycle)], _next_round)
    if spec.kind == "predictor":
        c = predictor_chooser(spec.param("predictor"))
        return Chooser(c.init, lambda state: c.guess(state) ^ 1, c.step) if spec.param("beat") else c
    return majority_chooser(spec.param("opponent"), spec.param("beat"), n)


def majority_chooser(opponent: StrategySpec, beat: bool, n: int) -> Chooser:
    """The consistent-set majority exploiter against `opponent`: it plays its prediction, or the flip when `beat`.

    Its state is its view of the opponent at round t of n, (lo, mid, hi, t):
    the opponent's seeds still consistent with what it played are the words
    [lo, hi) of `play_words(opponent, n)`, and of those the seeds that play
    H at round t are [mid, hi).  Each step splits the range with one bisect
    of the words up to their depth and past it, where a range holds one
    word, by that word's `late_plays`, the last word's kept.  A seedless
    adaptive opponent is one word of depth 0 whose `cycle` is its n plays
    as bytes against the exploiter's own (its play or that play's flip)
    while consistent; once refuted, its range stays empty.  The prediction
    is the play more of the range's seeds make; ties predict H.
    """
    if n < 1:
        raise ValueError("horizon must be positive")
    pw = play_words(opponent, n)
    if not opponent.oblivious:
        inner, plays = chooser(opponent, n), bytearray()
        state = inner.init
        for t in range(n):
            plays.append(inner.guess(state))
            if t + 1 < n:
                state = inner.step(state, plays[-1] ^ beat)
        pw = pw._replace(cycle=bytes(plays))
    words, below, depth, _ = pw
    late = lru_cache(maxsize=1)(lambda lo: late_plays(pw, lo))

    def at(lo: int, hi: int, t: int) -> tuple:
        if t > depth:  # the range holds one word, or none
            return lo, lo if lo < hi and (c := late(lo))[(t - 1 - depth) % len(c)] else hi, hi, t
        return lo, lo if lo == hi else split_words(words, lo, hi, depth - t), hi, t

    def guess(view: tuple) -> int:
        lo, mid, hi, _ = view
        return (1 if below[hi] - below[mid] >= below[mid] - below[lo] else 0) ^ beat

    def step(view: tuple, seen: int) -> tuple:
        lo, mid, hi, t = view
        return at(mid, hi, t + 1) if seen else at(lo, mid, t + 1)

    return Chooser(at(0, len(below) - 1, 1), guess, step)


def match(c1: Chooser, c2: Chooser, n: int) -> Iterator[tuple[Any, int, int]]:
    """Play two choosers for n rounds, each stepping once on the other's play, with no step after the last.

    Yields each round's (seat 1's state, seat 1's play, seat 2's play), plays in bits (1 is H).
    """
    state1, state2 = c1.init, c2.init
    for t in range(n):
        a, b = c1.guess(state1), c2.guess(state2)
        yield state1, a, b
        if t + 1 < n:
            state1, state2 = c1.step(state1, b), c2.step(state2, a)


def simulate(s1: StrategySpec, seed1: int, s2: StrategySpec, seed2: int, n: int) -> Transcript:
    """Play the two strategies against each other for n rounds: one `match` of their choosers, as actions.

    Pure given its inputs: replaying with identical seeds yields an identical transcript.
    """
    if n < 1:
        raise ValueError("horizon must be positive")
    actions = (Action.T, Action.H)
    return tuple([(actions[a], actions[b]) for _, a, b in match(chooser(s1, n, seed1), chooser(s2, n, seed2), n)])


def round_heads(spec: StrategySpec, t: int) -> int:
    """An oblivious strategy's count of seeds that play H at round `t`, with no play table.

    - a `generator` round counts the ones of `prng.round_bits`;
    - a round up to the seed length, or past it with an empty `tail_cycle`, reads a seed bit, which half the seeds set;
    - every later round plays its `tail_cycle` phase with all seeds.
    """
    if spec.kind == "generator":
        return round_bits(spec.param("generator"), t).count(1)
    k, cycle = spec.seed_len, tail_cycle(spec)
    if t <= k or not cycle:
        return 1 << (k - 1)
    return cycle[(t - 1 - k) % len(cycle)] << k


def horizon(spec: StrategySpec) -> int:
    """The round after which no later play tells two of the spec's seeds apart.

    A generator's stream length; otherwise the seed length: a uniform table
    reveals one seed bit per round and then repeats them, and every other
    family plays its `tail_cycle`, of length 1 or 2: so `round_heads` has period 2 past it.
    """
    if spec.kind == "generator":
        return spec.param("generator").out_len
    return spec.seed_len


_SEEDLESS = PlayWords((0,), (0, 1), 0)


def play_words(spec: StrategySpec, n: int) -> PlayWords:
    """The play words of a game of n rounds: rounds 1..min(n, horizon), and past them the spec's `tail_cycle`.

    Checks the seed space against the cap on every call.  A generator
    stream shorter than n rounds is rejected, as `prng.round_bits` rejects it.
    Only generators other than passthrough are compiled.  In every other
    family round t plays big-endian seed bit t-1 up to the depth, so a
    seed's word is its top `depth` bits, and the words are every depth-bit
    integer, each held by 2**(seed_len - depth) seeds: `identity_words`, two
    ranges, with nothing compiled or cached.  (A constant or alternator
    player has one seed and depth 0: its one empty word.)
    """
    space = check_seed_space(spec.seed_len)
    if not spec.oblivious:
        return _SEEDLESS
    depth = min(n, horizon(spec))
    if spec.kind == "generator" and depth < n:
        raise ValueError("generator stream too short for this round")
    compiled = spec.kind == "generator" and spec.param("generator").kind != "uniform-passthrough"
    pw = _compile_words(spec, depth) if compiled else identity_words(depth, space)
    return pw._replace(cycle=tail_cycle(spec)) if depth < n else pw


@lru_cache(maxsize=4)
def _compile_words(spec: StrategySpec, depth: int) -> PlayWords:
    """A generator's `play_words` over its `prng.round_bits` tables, which are packed into words and not kept.

    At the 2**20 cap an entry holds up to 8 MiB for at most 32 rounds and
    12 MiB for at most 64; wider words are a list of Python ints.
    """
    return PlayWords(*compile_words(partial(round_bits, spec.param("generator")), depth, 1 << spec.seed_len), depth)


def _parse_action(text: str) -> Action:
    if text not in ("H", "T"):
        raise ValueError(f"malformed action: {text!r}")
    return Action(text)


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"malformed boolean: {text!r}")
    return word in ("1", "true", "yes")


def _parse_count(missing: str, text: str) -> int:
    """`int`, except that an empty text, as a missing field reads, raises `missing`."""
    if not text:
        raise ValueError(missing)
    return int(text)


# Head -> (spec kind, constructor, fields) for each family with flat
# parameters.  A field is (key, parse, default text), in the constructor's
# parameter order, each the spec parameter at its place; key "" is the bare
# value after the head, up to the first "," when keyed fields follow.
# `describe` omits unset flags.
_FLAT = {
    "uniform": ("uniform-table", uniform_table, (
        ("", partial(_parse_count, "uniform requires a seed length, e.g. uniform:8"), ""),)),
    "const": ("constant", constant, (("", _parse_action, ""),)),
    "alt": ("alternator", alternator, (("", _parse_action, "H"),)),
    "prefix-tail": ("prefix-tail", prefix_tail, (
        ("prefix", partial(_parse_count, "prefix-tail requires gamma=... or prefix=..."), ""),
        ("tail", str, "constant"), ("start", _parse_action, "H"))),
    "pred": ("predictor", predictor_backed, (("", str, ""), ("beat", _parse_bool, "0"))),
}


def describe(spec: StrategySpec) -> str:
    """Round-trippable descriptor string, e.g. "uniform:8" or "exploit:vs=const:H"."""
    if spec.kind == "generator":
        return "gen:" + spec.param("generator").describe()
    if spec.kind == "exploiter":
        prefix = "exploit:beat=1,vs=" if spec.param("beat") else "exploit:vs="
        return prefix + describe(spec.param("opponent"))
    for head, (kind, _, fields) in _FLAT.items():
        if kind != spec.kind:
            continue
        texts = []
        for (key, _, _), (_, value) in zip(fields, spec.params):
            if isinstance(value, Action):
                value = value.value
            elif isinstance(value, bool):  # a flag: written as 1 when set, left out when unset
                if not value:
                    continue
                value = 1
            texts.append(f"{key}={value}" if key else str(value))
        return head + ":" + ",".join(texts)
    raise ValueError(f"unknown strategy kind: {spec.kind!r}")


def parse_strategy(desc: str, n: int, player: int = 1) -> StrategySpec:
    """Parse a descriptor such as "uniform:8", "const:H" or "exploit:vs=alt:H"; inverts `describe`.

    `player` selects the side for seat-dependent constructions (prefix-tail
    with a gamma parameter).
    """
    head, _, rest = desc.partition(":")
    head = head.strip()
    if head == "gen":
        return generator_backed(parse_generator(rest, n))
    if head == "exploit":
        # Count the levels before recursing, so a deep chain is bad input, not a RecursionError.
        depth, inner = 0, desc
        while depth <= MAX_NESTING and inner.partition(":")[0].strip() == "exploit":
            depth, inner = depth + 1, inner.partition("vs=")[2]
        if depth > MAX_NESTING:
            raise ValueError(f"exploiters nest more than {MAX_NESTING} deep")
        before, marker, nested = rest.partition("vs=")
        if not marker:
            raise ValueError("exploit requires vs=<opponent descriptor>")
        params = parse_params(before, ("beat",))
        opponent = parse_strategy(nested, n, player=3 - player)
        return exploiter_vs(opponent, beat=_parse_bool(params.get("beat", "0")))
    if head not in _FLAT:
        raise ValueError(f"unknown strategy family: {head!r}")
    _, make, fields = _FLAT[head]
    keys = [key for key, _, _ in fields if key]
    bare, tail = "", rest
    if not fields[0][0]:  # a bare value: all of rest, or up to the first "," when keyed fields follow
        bare, _, tail = rest.partition(",") if keys else (rest, "", "")
    if head == "prefix-tail":  # the horizon n= both forms check, and the seat-dependent gamma= form
        keys += ["n", "gamma"]
    params = parse_params(tail, keys)
    if int(params.get("n", n)) != n:
        raise ValueError("prefix-tail horizon disagrees with --n")
    if "gamma" in params:
        return make_gamma_equilibrium(n, as_fraction(params["gamma"]))[player - 1]
    if bare.strip():
        params[""] = bare.strip()
    return make(*(parse(params.get(key, default)) for key, parse, default in fields))
