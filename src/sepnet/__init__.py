"""Simulation and empirical verification of source-channel separation
architectures over unknown discrete-time networks.

The library is organized around six pieces: finite-alphabet probability
primitives (``probcore``), distortion metrics and rate-distortion
computation (``ratedist``), the N-user medium/modem rollout engine and its
batched excess-distortion measurement (``netmodel``), random-codebook
codecs with batched codeword search (``codec``), the pair-by-pair
architecture transformer (``separation``), and the experiment harness
(``harness`` / ``cli``).
"""

from .probcore import (
    Alphabet,
    AlphabetMismatchError,
    Pmf,
    RandomnessHandle,
    Sequence,
    sample_iid,
    two_sample_test,
)
from .ratedist import (
    DistortionBudget,
    DistortionMetric,
    InfeasibleDistortionError,
    RdPoint,
    blahut_arimoto,
    hamming_metric,
    rd_sweep,
)
from .netmodel import (
    ForwardRelayModem,
    GuaranteeReport,
    NetworkSystem,
    PassthroughModem,
    Trajectory,
    baseline_guarantee,
    gilbert_elliott_rule,
    make_markov_medium,
    rollout,
)
from .codec import (
    Codebook,
    CodebookCapError,
    RatePlan,
    RatePlanError,
    build_channel_codebook,
    build_source_codebook,
    mbp_estimate,
)
from .separation import (
    PairTarget,
    PlanInfeasible,
    SeparationPlan,
    apply_separation,
    measure_end_to_end,
    plan_separation,
    separate_network,
    verify_noninterference,
)

__version__ = "0.1.0"
