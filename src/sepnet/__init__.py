"""Simulation and empirical verification of source-channel separation
architectures over unknown discrete-time networks.

The library is organized around six pieces: finite-alphabet probability
primitives and the one two-sample test, ``two_sample_test``, that every
same-law check runs (``probcore``), distortion metrics and rate-distortion
computation (``ratedist``), the N-user medium/modem rollout engine
(``netmodel``), random-codebook codecs with batched codeword search
(``codec``), the pair-by-pair architecture transformer and the one
excess-distortion measurement of any pair, plain or separated
(``separation``), and the experiment harness (``harness`` / ``cli``).
"""

from .probcore import (
    Alphabet,
    Pmf,
    RandomnessHandle,
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
    MediumKernel,
    NetworkSystem,
    PassthroughModem,
    Trajectory,
    gilbert_elliott_link,
    rollout,
)
from .codec import (
    Codebook,
    CodebookCapError,
    RatePlan,
    RatePlanError,
    build_channel_codebook,
    build_source_codebook,
)
from .separation import (
    GuaranteeReport,
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
