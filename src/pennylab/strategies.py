"""Strategy families with declared randomness budgets, plus head-to-head simulation.

Every strategy is a deterministic map (seed, history, round) -> action.  The
seed carries the whole randomness budget: `seed_len` declares how many bits the
family may read, and `Seed` records which bits were actually touched so budget
honesty is testable.

`act` always sees the history seat-normalized: each entry is
(own play, opponent play).  `simulate` mirrors the transcript for player 2, so
one implementation of a reactive family serves either seat.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterator, NamedTuple, Sequence, Union

from .game import Action, RationalLike, Transcript, as_fraction, bit_to_action
from .prng import (
    Chooser,
    GeneratorSpec,
    PREDICTORS,
    bitstream,
    check_seed_space,
    compile_words,
    int_to_bits,
    parse_generator,
    parse_params,
    prediction_hits,
    predictor_chooser,
    resolve_predictor,
    round_bits,
    seed_bit_column,
    split_words,
)


class Seed:
    """A fixed bit string a strategy draws from, with read tracking.

    Bits are indexed from 0; `reads` accumulates every index handed out, which
    is what the budget-honesty tests count.
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


def seed_space(length: int) -> Iterator[Seed]:
    """All 2**length seeds, in increasing numeric order."""
    for value in range(1 << length):
        yield Seed.from_int(value, length)


def as_seed(value: Union[Seed, str, Sequence[int], int], length: int) -> Seed:
    if isinstance(value, Seed):
        return value
    if isinstance(value, int):
        return Seed.from_int(value, length)
    return Seed(value)


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


def mirror(history: Transcript) -> Transcript:
    """Swap the two columns, converting one seat's view into the other's."""
    return tuple((b, a) for a, b in history)


def act(spec: StrategySpec, seed: Seed, history: Transcript, round: int) -> Action:
    """The strategy's deterministic action for this round.

    `history` must hold the previous round-1 entries as (own, opponent) pairs.
    Raises "budget violation" if the seed length does not match the spec.
    """
    if len(seed) != spec.seed_len:
        raise ValueError("budget violation")
    if round < 1:
        raise ValueError("rounds are indexed from 1")
    if len(history) != round - 1:
        raise ValueError("history length mismatch")

    kind = spec.kind
    if kind == "uniform-table":
        if spec.seed_len == 0:
            return Action.H
        return bit_to_action(seed.bit((round - 1) % spec.seed_len))
    if kind == "constant":
        return spec.param("play")
    if kind == "alternator":
        first = spec.param("first")
        return first if round % 2 == 1 else first.flip()
    if kind == "prefix-tail":
        prefix_len = spec.param("prefix_len")
        if round <= prefix_len:
            return bit_to_action(seed.bit(round - 1))
        if spec.param("tail_kind") == "constant":
            return spec.param("tail_start")
        offset = round - prefix_len
        start = spec.param("tail_start")
        return start if offset % 2 == 1 else start.flip()
    if kind == "generator":
        g: GeneratorSpec = spec.param("generator")
        if round > g.out_len:
            raise ValueError("generator stream too short for this round")
        stream = bitstream(g, seed.all_bits())
        return bit_to_action(stream[round - 1])
    if kind == "predictor":
        fn = PREDICTORS[spec.param("predictor")]
        prefix = tuple(1 if opp is Action.H else 0 for _, opp in history)
        guess = bit_to_action(fn(prefix))
        return guess.flip() if spec.param("beat") else guess
    if kind == "exploiter":
        from . import exploiter

        return exploiter.exploiter_act(spec, history)
    raise ValueError(f"unknown strategy kind: {kind!r}")


def chooser(spec: StrategySpec) -> Chooser:
    """An adaptive spec's stepping form, which walks and matches carry along their paths.

    `guess(state)` is the opponent's next play it predicts (1 is H): the
    spec plays it, or its flip when `beat` is set.  `step(state, bit)`
    follows one opponent play.  On any path where the spec made its own
    plays, folding `step` over the opponent's and guessing gives what `act`
    plays, without rereading the history.
    """
    if spec.kind == "predictor":
        return predictor_chooser(PREDICTORS[spec.param("predictor")], as_play=True)
    if spec.kind == "exploiter":
        from . import exploiter

        return exploiter.exploiter_chooser(spec)
    raise ValueError("oblivious strategies have no chooser")


def simulate(
    s1: StrategySpec,
    seed1: Union[Seed, str, Sequence[int], int],
    s2: StrategySpec,
    seed2: Union[Seed, str, Sequence[int], int],
    n: int,
) -> Transcript:
    """Play the two strategies against each other for n rounds.

    Pure given its inputs: replaying with identical seeds yields an identical
    transcript.  An oblivious seat acts on its seed; an adaptive one steps
    its chooser once per round.
    """
    seats = ((s1, as_seed(seed1, s1.seed_len)), (s2, as_seed(seed2, s2.seed_len)))
    if any(len(seed) != spec.seed_len for spec, seed in seats):
        raise ValueError("budget violation")
    choosers = [None if spec.oblivious else chooser(spec) for spec, _ in seats]
    states = [c.init if c else None for c in choosers]
    views: tuple[list[tuple[Action, Action]], ...] = ([], [])
    for t in range(1, n + 1):
        a, b = (
            act(spec, seed, tuple(view), t) if c is None else bit_to_action(c.guess(state) ^ spec.param("beat"))
            for (spec, seed), c, state, view in zip(seats, choosers, states, views)
        )
        views[0].append((a, b))
        views[1].append((b, a))
        if t < n:
            states = [c.step(s, seen is Action.H) if c else None for c, s, seen in zip(choosers, states, (b, a))]
    return tuple(views[0])


@lru_cache(maxsize=128)
def round_plays(spec: StrategySpec, t: int) -> bytes:
    """An oblivious strategy's plays at round `t`: byte s is 1 iff seed s plays H.

    Defined for oblivious specs only, and compiled family by family from the
    seed integer, with no `Seed` per seed:

    - a round that reads seed bit i (every `uniform-table` round with a
      budget, `prefix-tail` rounds t <= prefix_len) is `prng.seed_bit_column`;
    - a `generator` round is `prng.round_bits`, with no per-seed stream;
    - every other round reads no seed bit, so one `act` serves all seeds.

    The cache holds at most 128 tables of 2**seed_len bytes each: 128 MiB at
    the 2**20 enumeration cap.
    """
    k = spec.seed_len
    if (spec.kind == "uniform-table" and k) or (spec.kind == "prefix-tail" and t <= k):
        return seed_bit_column(k, (t - 1) % k)
    if spec.kind == "generator":
        return round_bits(spec.param("generator"), t)
    filler = ((Action.H, Action.H),) * (t - 1)
    return bytes([act(spec, Seed.from_int(0, k), filler, t) is Action.H]) * (1 << k)


def horizon(spec: StrategySpec) -> int:
    """The round after which no later play tells two of the spec's seeds apart.

    A generator's stream length; otherwise the seed length: a uniform table
    reveals one seed bit per round and then repeats them, a prefix-tail plays
    a fixed tail after its prefix, and every other family reads no seed.
    """
    if spec.kind == "generator":
        return spec.param("generator").out_len
    return spec.seed_len


class PlayWords(NamedTuple):
    """An oblivious spec compiled to the sorted distinct play words of its seeds.

    Bit depth - t of a word is its seeds' play at round t (1 is H), for rounds
    1..depth.  below[j] counts the seeds whose word is below words[j], so the
    seeds of a range [lo, hi) of words number below[hi] - below[lo].  Every
    consistent set is such a range: the words agreeing with the plays seen.
    A seedless adaptive spec compiles to one empty word held by its one seed.
    """

    words: Sequence[int]
    below: Sequence[int]
    depth: int


_SEEDLESS = PlayWords((0,), (0, 1), 0)


def play_words(spec: StrategySpec, n: int) -> PlayWords:
    """The play words a walk of n rounds reads: rounds 1..min(n, horizon).

    Checks the seed space against the cap on every call.  A generator
    stream shorter than n rounds is rejected, as `round_plays` rejects it.
    """
    check_seed_space(spec.seed_len)
    if not spec.oblivious:
        return _SEEDLESS
    depth = min(n, horizon(spec))
    if spec.kind == "generator" and depth < n:
        raise ValueError("generator stream too short for this round")
    return _compile_words(spec, depth)


@lru_cache(maxsize=4)
def _compile_words(spec: StrategySpec, depth: int) -> PlayWords:
    """`play_words` over `round_plays`' tables.

    At the 2**20 cap an entry holds up to 8 MiB for at most 32 rounds and
    12 MiB for at most 64; wider words are a list of Python ints.  The
    tables are built uncached (`__wrapped__`): once packed into words they
    are not read again, so they need not fill `round_plays`' cache.
    """
    return PlayWords(*compile_words(lambda t: round_plays.__wrapped__(spec, t), depth, 1 << spec.seed_len), depth)


def split(opponent: StrategySpec, pw: PlayWords, lo: int, hi: int, t: int) -> int:
    """The one consistent-set partition: the first index of [lo, hi) whose seeds play H at round t.

    The seeds of [lo, mid) play T.  An oblivious opponent's range is split
    with one bisect of its play words; past their depth a non-empty range
    holds one word, whose round-t play its table or, for a uniform table, its
    own round (t-1) mod seed_len + 1 gives.  An adaptive opponent has no
    words to split: its play comes from its `chooser`.
    """
    if t > pw.depth and opponent.kind == "uniform-table" and opponent.seed_len:
        t = (t - 1) % opponent.seed_len + 1
    if t > pw.depth:
        return lo if round_plays(opponent, t)[0] else hi
    return lo if lo == hi else split_words(pw.words, lo, hi, pw.depth - t)


def word_hits(seat: Chooser, opponent: StrategySpec, n: int) -> tuple[list[int], int]:
    """Per-round hits of an adaptive seat's guesses against an oblivious opponent, and its seed count.

    hits[t-1] counts the opponent's seeds whose round-t play the seat's
    chooser guesses, by one `prng.prediction_hits` walk over the trie of the
    opponent's play words; past their depth a one-word range reads its plays
    from `split`.
    """
    pw = play_words(opponent, n)

    def tail(lo: int, t: int) -> int:
        return 1 if split(opponent, pw, lo, lo + 1, t) == lo else 0

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
