"""Randomness-budgeted repeated Matching Pennies laboratory.

Strategies declare how many random bits they consume; an exact oracle
certifies equilibrium gaps by seed-space enumeration; a consistent-set
exploiter cashes in every missing bit of opponent entropy; and a small PRNG
lab measures next-bit prediction and distinguishing advantages at toy scale.
"""

from .game import Action, Transcript
from .strategies import (
    Seed,  # no pennylab code builds one; see its docstring
    StrategySpec,
    alternator,
    constant,
    exploiter_vs,
    generator_backed,
    make_gamma_equilibrium,
    predictor_backed,
    prefix_tail,
    simulate,
    uniform_table,
)
from .exploiter import (
    final_phi,
    play_match,
    potential_step,
)
from .oracle import GapReport, best_response_value, certify_gap, exact_value
from .prng import (
    Chooser,
    GeneratorSpec,
    blum_micali,
    broken_counter,
    broken_repeat,
    passthrough,
    register_permutation,
    register_predictor,
)
from .reductions import (
    PredictorReport,
    eval_next_bit_predictor,
    payoff_to_distinguisher,
    per_round_payoffs,
    predictor_accuracy,
)
from .discounting import (
    DiscountParams,
    DiscountedCertificate,
    certify_discounted_eq,
    min_rounds,
    tail_gain,
)

__version__ = "0.1.0"
