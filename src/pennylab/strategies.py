"""Strategy families with declared randomness budgets, plus head-to-head simulation.

An oblivious strategy's play at round t depends only on its seed and on t.
The seed is an integer in [0, 2**seed_len), read big-endian, and `seed_len`
declares how many bits the family may read.  `seed_plays` gives one seed's
plays and `round_plays` one round's play for every seed.  An adaptive
strategy (a predictor or an exploiter) reads no seed: its `chooser` follows
the opponent's plays, and `simulate` steps it once per round.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, NamedTuple, Optional, Sequence, Union

from .game import Action, RationalLike, Transcript, as_fraction, bit_to_action
from .prng import (
    Chooser,
    GeneratorSpec,
    PREDICTORS,
    check_seed_space,
    int_to_bits,
    parse_generator,
    parse_params,
    predictor_chooser,
    resolve_predictor,
    round_bits,
    seed_bit_column,
    seed_stream,
)
from .words import PlayWords, compile_words, identity_words, prediction_hits, split_words


class Seed:
    """A fixed bit string a strategy draws from, with read tracking.

    Bits are indexed from 0; `reads` accumulates every index handed out, which
    is what the tests' per-round reference player counts.  No pennylab code
    builds one: strategies play from the seed integer.  It stays here and in
    the package exports because `bench/tracer.py` wraps `Seed.__init__`, and
    the tracer fails on a class target it cannot find.
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

    def __repr__(self) -> str:
        return "Seed(%s)" % "".join(str(b) for b in self.bits)


class _StrategyFields(NamedTuple):
    kind: str
    params: tuple[tuple[str, Any], ...]
    seed_len: int


class StrategySpec(_StrategyFields):
    """A named, parameterized strategy with a declared seed length.

    `oblivious` (every kind but `predictor` and `exploiter`) says the output
    ignores history; it selects the compiled play words in `split` and the
    factorized path of `oracle.round_payoffs`.  An adaptive spec must
    read no seed (checked on construction).
    """

    __slots__ = ()

    def __new__(cls, kind: str, params: tuple[tuple[str, Any], ...], seed_len: int) -> "StrategySpec":
        self = super().__new__(cls, kind, params, seed_len)
        if seed_len and not self.oblivious:
            raise ValueError("adaptive strategies read no seed")
        return self

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
    return StrategySpec("uniform-table", (), seed_len)


def constant(play: Action) -> StrategySpec:
    return StrategySpec("constant", (("play", play),), 0)


def alternator(first: Action = Action.H) -> StrategySpec:
    """Alternate between the two actions, starting with `first` at round 1."""
    return StrategySpec("alternator", (("first", first),), 0)


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
    return StrategySpec("prefix-tail", params, prefix_len)


def generator_backed(g: GeneratorSpec) -> StrategySpec:
    """Play the generator's output stream as actions (bit 1 is H)."""
    return StrategySpec("generator", (("generator", g),), g.seed_len)


def predictor_backed(name: str, beat: bool = False) -> StrategySpec:
    """Each round, guess the opponent's next move with a named next-bit predictor.

    With beat=False the strategy plays the predicted action itself (the
    matcher's winning reply); beat=True plays its flip (the mismatcher's).
    """
    resolve_predictor(name)  # rejects an unregistered name
    return StrategySpec("predictor", (("predictor", name), ("beat", beat)), 0)


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
    return StrategySpec("exploiter", (("opponent", opponent), ("beat", beat)), 0)


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
    prefix_len = n - int(gn)
    if int(gn) == 0:
        return uniform_table(n), uniform_table(n)
    p1 = prefix_tail(prefix_len, "constant", Action.H)
    p2 = prefix_tail(prefix_len, "alternator", Action.H)
    return p1, p2


# --------------------------------------------------------------------------
# Acting and simulation
# --------------------------------------------------------------------------


def fixed_play(spec: StrategySpec, t: int) -> Optional[Action]:
    """Round t's play when it reads no seed bit, else None.

    Every round of a `constant`, an `alternator` or a seedless uniform table
    (constant H), and a `prefix-tail` round past its prefix, whose
    alternating tail starts with `tail_start` on round prefix_len + 1.
    """
    if spec.kind == "constant":
        return spec.param("play")
    if spec.kind == "uniform-table" and not spec.seed_len:
        return Action.H
    if spec.kind == "alternator":
        return spec.param("first") if t % 2 else spec.param("first").flip()
    if spec.kind == "prefix-tail" and t > spec.seed_len:
        start, offset = spec.param("tail_start"), t - spec.seed_len
        return start if spec.param("tail_kind") == "constant" or offset % 2 else start.flip()
    return None


def _check_seed(spec: StrategySpec, seed: int) -> None:
    if not 0 <= seed < 1 << spec.seed_len:
        raise ValueError("budget violation")


def seed_plays(spec: StrategySpec, seed: int, n: int) -> tuple[Action, ...]:
    """An oblivious strategy's plays at rounds 1..n for one seed.

    Round t's play is byte `seed` of `round_plays(spec, t)`: its
    `fixed_play`, a generator's stream bit t (`prng.seed_stream`), or else
    seed bit (t-1) mod seed_len.  Raises "budget violation" for a seed
    outside [0, 2**seed_len).
    """
    _check_seed(spec, seed)
    if not spec.oblivious:
        raise ValueError("adaptive strategies play from their chooser")
    if spec.kind == "generator":
        g: GeneratorSpec = spec.param("generator")
        if n > g.out_len:
            raise ValueError("generator stream too short for this round")
        return tuple(map(bit_to_action, seed_stream(g, seed)[:n]))
    k, plays = spec.seed_len, []
    for t in range(1, n + 1):
        play = fixed_play(spec, t)
        plays.append(bit_to_action(seed >> (k - 1 - (t - 1) % k) & 1) if play is None else play)
    return tuple(plays)


def chooser(spec: StrategySpec) -> Chooser:
    """An adaptive spec's stepping form, which walks and matches carry along their paths.

    `guess(state)` is the opponent's next play it predicts (1 is H): the
    spec plays it, or its flip when `beat` is set.  `step(state, bit)`
    follows one opponent play, so the spec never rereads the history.
    """
    if spec.kind == "predictor":
        return predictor_chooser(PREDICTORS[spec.param("predictor")], as_play=True)
    if spec.kind == "exploiter":
        from . import exploiter

        return exploiter.exploiter_chooser(spec)
    raise ValueError("oblivious strategies have no chooser")


def simulate(s1: StrategySpec, seed1: int, s2: StrategySpec, seed2: int, n: int) -> Transcript:
    """Play the two strategies against each other for n rounds.

    Pure given its inputs: replaying with identical seeds yields an identical
    transcript.  An oblivious seat plays its `seed_plays`; an adaptive one,
    whose only seed is 0, steps its chooser once per round.
    """
    seats = ((s1, seed1), (s2, seed2))
    for spec, seed in seats:
        _check_seed(spec, seed)
    plays = [seed_plays(spec, seed, n) if spec.oblivious else None for spec, seed in seats]
    choosers = [None if spec.oblivious else chooser(spec) for spec, _ in seats]
    states = [c.init if c else None for c in choosers]
    rounds = []
    for t in range(n):
        a, b = (
            bit_to_action(c.guess(state) ^ spec.param("beat")) if c else own[t]
            for (spec, _), own, c, state in zip(seats, plays, choosers, states)
        )
        rounds.append((a, b))
        if t + 1 < n:
            states = [c.step(s, seen is Action.H) if c else None for c, s, seen in zip(choosers, states, (b, a))]
    return tuple(rounds)


def round_plays(spec: StrategySpec, t: int) -> bytes:
    """An oblivious strategy's plays at round `t`: byte s is 1 iff seed s plays H.

    Defined for oblivious specs only, compiled family by family from the
    seed integer, with no per-seed stream, and built afresh on every call:

    - a round that reads no seed bit repeats its `fixed_play` for all seeds;
    - a `generator` round is `prng.round_bits`, with no per-seed stream;
    - every other round reads seed bit (t-1) mod seed_len, a
      `prng.seed_bit_column`.
    """
    play = fixed_play(spec, t)
    if play is not None:
        return bytes([play is Action.H]) * (1 << spec.seed_len)
    if spec.kind == "generator":
        return round_bits(spec.param("generator"), t)
    return seed_bit_column(spec.seed_len, (t - 1) % spec.seed_len)


def horizon(spec: StrategySpec) -> int:
    """The round after which no later play tells two of the spec's seeds apart.

    A generator's stream length; otherwise the seed length: a uniform table
    reveals one seed bit per round and then repeats them, a prefix-tail plays
    a fixed tail after its prefix, and every other family reads no seed.
    """
    if spec.kind == "generator":
        return spec.param("generator").out_len
    return spec.seed_len


_SEEDLESS = PlayWords((0,), (0, 1), 0)


def play_words(spec: StrategySpec, n: int) -> PlayWords:
    """The play words a walk of n rounds reads: rounds 1..min(n, horizon).

    Checks the seed space against the cap on every call.  A generator
    stream shorter than n rounds is rejected, as `round_plays` rejects it.
    Where round t plays big-endian seed bit t-1 (uniform tables, prefix-tails
    and passthrough generators, up to their depth), a seed's word is its top
    `depth` bits, so the words are every depth-bit integer, each held by
    2**(seed_len - depth) seeds: `identity_words`, two ranges, with nothing
    compiled or cached.
    """
    space = check_seed_space(spec.seed_len)
    if not spec.oblivious:
        return _SEEDLESS
    depth = min(n, horizon(spec))
    if spec.kind == "generator" and depth < n:
        raise ValueError("generator stream too short for this round")
    if spec.kind in ("uniform-table", "prefix-tail") or (
        spec.kind == "generator" and spec.param("generator").kind == "uniform-passthrough"
    ):
        return identity_words(depth, space)
    return _compile_words(spec, depth)


@lru_cache(maxsize=4)
def _compile_words(spec: StrategySpec, depth: int) -> PlayWords:
    """`play_words` over `round_plays`' tables, which are packed into words and not kept.

    At the 2**20 cap an entry holds up to 8 MiB for at most 32 rounds and
    12 MiB for at most 64; wider words are a list of Python ints.
    """
    return PlayWords(*compile_words(lambda t: round_plays(spec, t), depth, 1 << spec.seed_len), depth)


def split(opponent: StrategySpec, pw: PlayWords, lo: int, hi: int, t: int) -> int:
    """The one consistent-set partition: the first index of [lo, hi) whose seeds play H at round t.

    The seeds of [lo, mid) play T.  An oblivious opponent's range is split
    with one bisect of its play words; past their depth a non-empty range
    holds one word, whose round-t play is its `fixed_play` or, for a uniform
    table, its own round (t-1) mod seed_len + 1.  An adaptive opponent has no
    words to split: its play comes from its `chooser`.
    """
    if t > pw.depth and opponent.kind == "uniform-table" and opponent.seed_len:
        t = (t - 1) % opponent.seed_len + 1
    if t > pw.depth:
        play = fixed_play(opponent, t)
        if play is None:
            raise ValueError("generator stream too short for this round")
        return lo if play is Action.H else hi
    return lo if lo == hi else split_words(pw.words, lo, hi, pw.depth - t)


def word_hits(seat: Chooser, opponent: StrategySpec, n: int) -> tuple[list[int], int]:
    """Per-round hits of an adaptive seat's guesses against an oblivious opponent, and its seed count.

    hits[t-1] counts the opponent's seeds whose round-t play the seat's
    chooser guesses, by one `words.prediction_hits` walk over the trie of the
    opponent's play words; past their depth a one-word range reads its plays
    from `split`.  Only a uniform table's words play their own bits there;
    every other spec's are its fixed plays, split once for all words.
    """
    pw = play_words(opponent, n)

    def tail(lo: int) -> tuple[int, ...]:
        return tuple(1 if split(opponent, pw, lo, lo + 1, t) == lo else 0 for t in range(pw.depth + 1, n + 1))

    if not (opponent.kind == "uniform-table" and opponent.seed_len):
        fixed = tail(0)
        return prediction_hits(seat, pw.words, pw.below, n, pw.depth, lambda lo: fixed), pw.below[-1]
    return prediction_hits(seat, pw.words, pw.below, n, pw.depth, tail), pw.below[-1]


def describe(spec: StrategySpec) -> str:
    """Round-trippable descriptor string, e.g. "uniform:8" or "exploit:vs=const:H"."""
    kind = spec.kind
    if kind == "uniform-table":
        return f"uniform:{spec.seed_len}"
    if kind == "constant":
        return f"const:{spec.param('play').value}"
    if kind == "alternator":
        return f"alt:{spec.param('first').value}"
    if kind == "prefix-tail":
        return (
            f"prefix-tail:prefix={spec.param('prefix_len')},"
            f"tail={spec.param('tail_kind')},start={spec.param('tail_start').value}"
        )
    if kind == "generator":
        return f"gen:{spec.param('generator').describe()}"
    if kind == "predictor":
        suffix = ",beat=1" if spec.param("beat") else ""
        return f"pred:{spec.param('predictor')}{suffix}"
    if kind == "exploiter":
        prefix = "exploit:beat=1,vs=" if spec.param("beat") else "exploit:vs="
        return prefix + describe(spec.param("opponent"))
    raise ValueError(f"unknown strategy kind: {kind!r}")


def _parse_action(text: str) -> Action:
    if text not in ("H", "T"):
        raise ValueError(f"malformed action: {text!r}")
    return Action(text)


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"malformed boolean: {text!r}")
    return word in ("1", "true", "yes")


def parse_strategy(desc: str, n: int, player: int = 1) -> StrategySpec:
    """Parse a descriptor such as "uniform:8", "const:H" or "exploit:vs=alt:H"; inverts `describe`.

    `player` selects the side for seat-dependent constructions (prefix-tail
    with a gamma parameter).
    """
    head, _, rest = desc.partition(":")
    head = head.strip()
    if head == "uniform":
        if not rest:
            raise ValueError("uniform requires a seed length, e.g. uniform:8")
        return uniform_table(int(rest))
    if head == "const":
        return constant(_parse_action(rest))
    if head == "alt":
        return alternator(_parse_action(rest or "H"))
    if head == "prefix-tail":
        params = parse_params(rest, ("n", "gamma", "prefix", "tail", "start"))
        if "gamma" in params:
            if int(params.get("n", n)) != n:
                raise ValueError("prefix-tail horizon disagrees with --n")
            return make_gamma_equilibrium(n, as_fraction(params["gamma"]))[player - 1]
        if "prefix" in params:
            return prefix_tail(
                int(params["prefix"]),
                params.get("tail", "constant"),
                _parse_action(params.get("start", "H")),
            )
        raise ValueError("prefix-tail requires gamma=... or prefix=...")
    if head == "gen":
        return generator_backed(parse_generator(rest, n))
    if head == "pred":
        name, _, tail = rest.partition(",")
        params = parse_params(tail, ("beat",))
        return predictor_backed(name.strip(), beat=_parse_bool(params.get("beat", "0")))
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
    raise ValueError(f"unknown strategy family: {head!r}")
