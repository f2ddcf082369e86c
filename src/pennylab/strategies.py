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

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator, Sequence, Union

from .game import Action, RationalLike, Transcript, as_fraction, bit_to_action
from .prng import (
    GeneratorSpec,
    PREDICTORS,
    bitstream,
    int_to_bits,
    parse_generator,
    parse_params,
    round_bits,
    seed_bit_column,
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


@dataclass(frozen=True)
class StrategySpec:
    """A named, parameterized strategy with a declared seed length.

    `oblivious` (every kind but `predictor` and `exploiter`) says the output
    ignores history; it selects the compiled `round_plays` tables in `split`
    and the factorized path of `oracle.round_payoffs`.  An adaptive spec must
    read no seed (checked on construction).
    """

    kind: str
    params: tuple[tuple[str, Any], ...]
    seed_len: int

    @property
    def oblivious(self) -> bool:
        return self.kind not in ("predictor", "exploiter")

    def __post_init__(self) -> None:
        if self.seed_len and not self.oblivious:
            raise ValueError("adaptive strategies read no seed")

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
    if name not in PREDICTORS:
        raise ValueError(f"unknown predictor: {name!r}")
    return StrategySpec("predictor", (("predictor", name), ("beat", beat)), 0)


def exploiter_vs(opponent: StrategySpec, beat: bool = False) -> StrategySpec:
    """The consistent-set majority strategy against a known opponent spec.

    Enumerates the opponent's seeds, plays against the majority prediction, and
    discards seeds contradicted by observation.  beat=False matches the
    prediction (seat 1), beat=True plays its flip (seat 2).
    """
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


def simulate(
    s1: StrategySpec,
    seed1: Union[Seed, str, Sequence[int], int],
    s2: StrategySpec,
    seed2: Union[Seed, str, Sequence[int], int],
    n: int,
) -> Transcript:
    """Play the two strategies against each other for n rounds.

    Pure given its inputs: replaying with identical seeds yields an identical
    transcript.
    """
    sd1 = as_seed(seed1, s1.seed_len)
    sd2 = as_seed(seed2, s2.seed_len)
    hist1: list[tuple[Action, Action]] = []
    hist2: list[tuple[Action, Action]] = []
    rounds: list[tuple[Action, Action]] = []
    for t in range(1, n + 1):
        a = act(s1, sd1, tuple(hist1), t)
        b = act(s2, sd2, tuple(hist2), t)
        rounds.append((a, b))
        hist1.append((a, b))
        hist2.append((b, a))
    return tuple(rounds)


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


def split(
    opponent: StrategySpec, alive: Sequence[int], history: Transcript, t: int
) -> tuple[list[int], list[int]]:
    """Partition opponent seeds by the action each plays at round `t`: (H's, T's).

    The one consistent-set partition: every walk over opponent seeds asks here
    what they play next.  Oblivious opponents read `round_plays`; adaptive
    ones read no seed, so their one seed acts on the mirror of `history`,
    the other seat's view of the previous rounds.  Order within `alive` is kept.
    """
    if opponent.oblivious:
        plays = round_plays(opponent, t)
        return [s for s in alive if plays[s]], [s for s in alive if not plays[s]]
    if alive and act(opponent, Seed(()), mirror(history), t) is Action.H:
        return list(alive), []
    return [], list(alive)


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
        before, marker, nested = rest.partition("vs=")
        if not marker:
            raise ValueError("exploit requires vs=<opponent descriptor>")
        params = parse_params(before, ("beat",))
        opponent = parse_strategy(nested, n, player=3 - player)
        return exploiter_vs(opponent, beat=_parse_bool(params.get("beat", "0")))
    raise ValueError(f"unknown strategy family: {head!r}")
