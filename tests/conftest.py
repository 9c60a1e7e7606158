import numpy as np
import pytest

from sepnet.netmodel import DmcMedium, NetworkSystem, PassthroughModem
from sepnet.probcore import Pmf, RandomnessHandle, _row_cumsum, _sample_indexed
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
        block_length=block_length,
        latency_map={(0, 1): 3},
        warmup=warmup,
    )


@pytest.fixture
def bsc_system() -> NetworkSystem:
    return single_link_system(0.11)



def sequential_draw(pmf: Pmf, size: int, gen: np.random.Generator) -> np.ndarray:
    """The sampler's definition, ``size`` symbols drawn with ``gen``: under
    the fair coin, exactly (0.5, 0.5), one row of ``size`` raw bits
    (``codebook_symbols``); under any other law ``size`` uniforms in one
    call, mapped to symbols."""
    if tuple(pmf.probs) == (0.5, 0.5):
        return codebook_symbols(pmf, 1, size, gen)[0]
    return _sample_indexed(_row_cumsum(pmf.probs)[None, :], 0, gen.random(size), pmf.alphabet.dtype)


def codebook_symbols(pmf: Pmf, rows: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """A codebook's rows by definition, as (rows, n) symbols drawn with
    ``gen``. Under the fair coin, exactly (0.5, 0.5), row i is the raw
    64-bit words [i*w, (i+1)*w) of ``gen``'s bit generator, w = ceil(n / 64),
    read from the top bit down, and of the last word only its low
    n - 64(w - 1) bits are symbols. Under any other law they are the
    sequential draw of rows * n symbols."""
    if tuple(pmf.probs) != (0.5, 0.5):
        return sequential_draw(pmf, rows * n, gen).reshape(rows, n)
    w = -(-n // 64)
    raw = gen.bit_generator.random_raw(rows * w).reshape(rows, w)
    bits = np.unpackbits(raw.astype(">u8").view(np.uint8), axis=1).reshape(rows, w, 64)
    low = bits[:, -1, 64 * w - n :]
    return np.concatenate([bits[:, :-1].reshape(rows, -1), low], axis=1).astype(np.int8)
