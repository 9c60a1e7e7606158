import numpy as np
import pytest

from sepnet.netmodel import DmcMedium, NetworkSystem, PassthroughModem
from sepnet.probcore import Pmf, RandomnessHandle
from sepnet.ratedist import hamming_metric

ROOT_SEED = 20240801


def bsc(q: float) -> np.ndarray:
    return np.array([[1.0 - q, q], [q, 1.0 - q]])


@pytest.fixture
def root() -> RandomnessHandle:
    return RandomnessHandle(ROOT_SEED)


@pytest.fixture
def fair_coin() -> Pmf:
    return Pmf.from_probs([0.5, 0.5])


@pytest.fixture
def hamming2():
    return hamming_metric(2)


def single_link_system(flip: float, source_probs=(0.5, 0.5), block_length=1000,
                       warmup=8) -> NetworkSystem:
    """Uncoded 2-user system over one binary symmetric link."""
    return NetworkSystem(
        medium=DmcMedium(2, {(0, 1): bsc(flip)}),
        modems=(
            PassthroughModem(0, send_pair=(0, 1)),
            PassthroughModem(1, recv_pairs=[(0, 1)]),
        ),
        sources={(0, 1): Pmf.from_probs(list(source_probs))},
        pair_of_interest=(0, 1),
        horizon=10 * block_length,
        block_length=block_length,
        latency_map={(0, 1): 3},
        warmup=warmup,
    )


@pytest.fixture
def bsc_system() -> NetworkSystem:
    return single_link_system(0.11)
