"""A fixed reference job that measures how fast the host runs Python right now.

On a small shared VM the speed of a vCPU changes with what other tenants run
on the same physical cores: a fixed pure-Python job took anywhere from 1x to
2.5x its fastest time, in spells of seconds to minutes, and pennylab
operations slowed in step with it.  `child.py` runs `calibrate()` just before
an operation and again just after it, in the same process, and `run.py`
scales the operation's times by `NOMINAL_S` over their mean.

The job is the benchmark's own code, shaped like pennylab's hot loops
(small-object churn over a seed space, tuple and set work, a consistent-set
filter, a deep recursive max), so a change to pennylab cannot change it.
The run before an operation frees what it allocated and adds ~0.2 MiB to the
operation's peak RSS; the child reads its peak RSS before the run after it.
"""

from __future__ import annotations

from time import perf_counter

# The job's typical time on a shared 2-vCPU KVM guest (Xeon, Sapphire
# Rapids): its fastest runs took 0.033 s and most took 0.05-0.06 s.  Scaled
# times are therefore close to what such a host usually gives.
NOMINAL_S = 0.05


class _Seed:
    __slots__ = ("bits", "reads")

    def __init__(self, bits):
        self.bits = tuple(int(b) for b in bits)
        self.reads = set()


def _walk(rounds: int, seed_len: int) -> int:
    """Play each seed's action sequence, then follow the majority-beating walk."""
    plays = []
    for value in range(1 << seed_len):
        seed = _Seed([(value >> (seed_len - 1 - i)) & 1 for i in range(seed_len)])
        state = acts = 0
        for r in range(rounds):
            state = (state * 5 + seed.bits[r % seed_len] + r) % 7
            seed.reads.add(r % seed_len)
            acts |= (state & 1) << r
        plays.append(acts)
    alive, won = plays, 0
    for r in range(rounds):
        ones = sum((a >> r) & 1 for a in alive)
        bit = 1 if 2 * ones < len(alive) else 0
        won = won * 3 + (len(alive) - ones if bit else ones)
        alive = [a for a in alive if (a >> r) & 1 == bit] or alive
    return won


def _tree(depth: int, num: int, den: int) -> tuple[int, int]:
    if depth == 0:
        return num, den
    left = _tree(depth - 1, num * 2 + 1, den * 3)
    right = _tree(depth - 1, num * 3 + 2, den * 2)
    return max(left, right, key=lambda f: f[0] * 7 // f[1])


def calibrate() -> float:
    """Seconds the reference job takes now."""
    start = perf_counter()
    _walk(14, 12)
    _tree(13, 1, 1)
    return perf_counter() - start
