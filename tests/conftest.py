from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from sepnet.netmodel import (
    MediumKernel,
    ModemWrapper,
    NetworkSystem,
    PassthroughModem,
    bsc_matrix as bsc,
    rollout,
)
from sepnet.probcore import Pmf, RandomnessHandle, _chi2_sf
from sepnet.ratedist import hamming_metric
from sepnet.separation import SeparationSendModem, _BlockScorer

ROOT_SEED = 20240801


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
        medium=MediumKernel(2, {(0, 1): (bsc(flip), (), None)}),
        modems=(
            PassthroughModem(0, send_pair=(0, 1)),
            PassthroughModem(1, recv_pairs=[(0, 1)]),
        ),
        sources={(0, 1): Pmf.from_probs(list(source_probs))},
        block_length=block_length,
        warmup=warmup,
    )


@pytest.fixture
def bsc_system() -> NetworkSystem:
    return single_link_system(0.11)


class _InputLog(ModemWrapper):
    """Runs a modem unchanged and logs each window's medium input."""

    def __init__(self, inner, log: list):
        super().__init__(inner)
        self.log = log

    def start(self, view):
        return self.inner.start(view)

    def window(self, t0, t1, state, sources, link_in):
        iota, repro = self.inner.window(t0, t1, state, sources, link_in)
        if iota is not None:
            self.log.append((t0, t1, np.array(iota)))
        return iota, repro


class _SourceLog(ModemWrapper):
    """Runs a modem unchanged and copies the rows of ``pair``'s source that
    each window hands it into ``stream``, (horizon, lanes)."""

    def __init__(self, inner, pair):
        super().__init__(inner)
        self.pair, self.stream = pair, None

    def start(self, view):
        dtype = view.source_pmfs[self.pair].alphabet.dtype
        self.stream = np.zeros((view.horizon, view.lanes), dtype=dtype)
        return self.inner.start(view)

    def window(self, t0, t1, state, sources, link_in):
        self.stream[t0:t1] = sources[self.pair]
        return self.inner.window(t0, t1, state, sources, link_in)


def log_simulated_streams(system: NetworkSystem):
    """``system`` with the inner modem of each separated sender behind a
    ``_SourceLog``, and those logs by user: after a rollout, a log's
    ``stream`` is the simulated stream the wrapper handed its inner modem,
    window by window. The rollout draws exactly as unlogged."""
    logs, modems = {}, []
    for modem in system.modems:
        if isinstance(modem, SeparationSendModem):
            logs[modem.user] = _SourceLog(modem.inner, modem.plan.pair)
            modem = SeparationSendModem(logs[modem.user], modem.plan)
        modems.append(modem)
    return system.with_modems(modems), logs


class Streams(NamedTuple):
    """What ``collected_rollout`` gives: every pair's source and
    reproduction, (horizon, lanes) arrays, and the modems' telemetry."""

    sources: dict
    repro: dict
    telemetry: dict


def collected_rollout(system: NetworkSystem, seeds, lanes: int = 1, *, horizon: int) -> Streams:
    """``rollout`` of ``system`` whose consumer collects every pair's source
    and reproduction whole, a reproduction 0 where no modem reproduces its
    pair."""
    sources, repro = ({pair: np.zeros((horizon, lanes), dtype=pmf.alphabet.dtype)
                       for pair, pmf in system.sources.items()} for _ in range(2))

    def consume(t0, window_repro, window_sources):
        for whole, arrays in ((repro, window_repro), (sources, window_sources)):
            for pair, arr in arrays.items():
                whole[pair][t0 : t0 + len(arr)] = arr

    traj = rollout(system, seeds, lanes, horizon=horizon, consume=consume)
    return Streams(sources, repro, traj.telemetry)


def recorded_rollout(system: NetworkSystem, seeds, lanes: int = 1, *, horizon: int):
    """``collected_rollout`` of ``system``, plus the medium inputs, (users,
    horizon, lanes), and each link's outputs, (horizon, lanes), copied
    window by window as the engine makes them. Every modem runs behind
    ``_InputLog``, and ``MediumKernel.window`` logs each link's outputs;
    the rollout draws exactly as unrecorded."""
    medium = system.medium
    inputs = {m.user: [] for m in system.modems}
    outputs = {link: [] for link in medium.links}
    window = MediumKernel.window

    def logged(self, link, state, iota_prev, out):
        window(self, link, state, iota_prev, out)
        if self is medium:
            outputs[link].append(np.array(out))

    logging = system.with_modems([_InputLog(m, inputs[m.user]) for m in system.modems])
    with mock.patch.object(MediumKernel, "window", logged):
        traj = collected_rollout(logging, seeds, lanes, horizon=horizon)
    dtype = np.result_type(*(medium.user_input_alphabet(u).dtype for u in inputs))
    medium_inputs = np.zeros((medium.num_users, horizon, lanes), dtype=dtype)
    for user, log in inputs.items():
        for t0, t1, iota in log:
            medium_inputs[user, t0:t1] = iota
    link_outputs = {}
    for link, log in outputs.items():
        # the medium is consulted at steps 1, 2, ... in order; step 0 is 0
        out = np.zeros((horizon, lanes), dtype=medium.link_output_alphabet(link).dtype)
        if log:
            out[1:] = np.concatenate(log)
        link_outputs[link] = out
    return traj, medium_inputs, link_outputs



def score_blocks(metric, x, y, x_starts, y_starts, n, cuts=()) -> np.ndarray:
    """The (blocks, lanes) average distortions ``separation._BlockScorer``
    gives blocks of the source ``x`` against the reproduction ``y``, both
    (horizon, lanes), with both handed over as a rollout does, in windows
    cut at the steps ``cuts`` (by default the whole horizon in one)."""
    pair = (0, 1)
    scorer = _BlockScorer(metric, pair, np.asarray(x_starts), np.asarray(y_starts), n,
                          len(x), x.shape[1])
    bounds = [0, *cuts, len(y)]
    for t0, t1 in zip(bounds, bounds[1:]):
        scorer(t0, {pair: y[t0:t1]}, {pair: x[t0:t1]})
    return scorer.distortions()


def sequential_draw(pmf: Pmf, size: int, gen: np.random.Generator) -> np.ndarray:
    """The sampler's definition, ``size`` symbols drawn with ``gen``: under
    the fair coin, exactly (0.5, 0.5), one row of ``size`` raw bits
    (``codebook_symbols``); under any other law ``size`` float uniforms in
    one call, each the number of cumulative sums below the last that it
    reaches."""
    if tuple(pmf.probs) == (0.5, 0.5):
        return codebook_symbols(pmf, 1, size, gen)[0]
    symbols = np.searchsorted(np.cumsum(pmf.probs)[:-1], gen.random(size), side="right")
    return symbols.astype(pmf.alphabet.dtype)


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


def goodness_of_fit_p(counts: np.ndarray, probs: np.ndarray):
    """Pearson chi-square p-value of ``counts`` against the law ``probs``, as
    a numpy scalar: the bits ``scipy.stats.chisquare`` gives."""
    expected = probs * counts.sum()
    return _chi2_sf(((counts - expected) ** 2 / expected).sum(), counts.size - 1)
