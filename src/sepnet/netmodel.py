"""N-user system model: stochastic medium, modems, and the rollout engine.

The system evolves in discrete time. Every hop delays by at least one
step: a modem's medium input and reproductions at step tau read its
sources and incoming links up to tau-1 only, and a medium link's output at
tau reads the medium inputs up to tau-1 (and its own hidden state). So the
engine steps whole time windows [t0, t1): it runs the components, each
modem and each medium link, one after another over the whole window, in
topological order of the user/link graph, with the work vectorized across
the window's steps and ``lanes`` independent replicas. A graph with a
cycle falls back to windows of one step, where any order is causal.
Windows hold at most ``WINDOW_LANE_STEPS`` lane-steps, which bounds the
engine's temporaries whatever the horizon.

Randomness is namespaced off a single root handle: one stream per source
pair, one for the medium and one private stream per modem. The medium
draws a fixed block of uniforms per step, laid out the same whatever the
window, so a rollout is bit-reproducible from (system, seeds, lanes,
horizon) and does not depend on how the horizon is cut into windows.
"""

from __future__ import annotations

import graphlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from .probcore import (
    Alphabet,
    RandomnessHandle,
    _row_cumsum,
    _sample_indexed,
    sample_iid_array,
    wilson_half_width,
)
from .ratedist import DistortionBudget, DistortionMetric

__all__ = [
    "CoupledDmcMedium",
    "DmcMedium",
    "ForwardRelayModem",
    "GuaranteeReport",
    "MarkovLinkRule",
    "MarkovMedium",
    "MediumKernel",
    "Modem",
    "ModemView",
    "NetworkSystem",
    "Trajectory",
    "WiringError",
    "baseline_guarantee",
    "block_average_distortions",
    "gilbert_elliott_rule",
    "make_markov_medium",
    "rollout",
]

# A rollout window covers at most this many (step, lane) cells.
WINDOW_LANE_STEPS = 1 << 18
# Per-letter distortions are looked up this many cells at a time.
_DISTORTION_CELLS = 1 << 20


class WiringError(ValueError):
    """Alphabet or topology mismatch detected before simulation starts."""


def _check_stochastic(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise WiringError(f"{what} must be a matrix")
    if np.any(mat < 0) or not np.allclose(mat.sum(axis=1), 1.0, atol=1e-9):
        raise WiringError(f"{what} rows must be probability vectors")
    return mat


class MediumKernel(ABC):
    """Stochastic law producing per-link outputs from all users' past inputs.

    Outputs at step tau may depend only on inputs up to tau-1 and the
    medium's own (opaque) state. Link outputs at tau=0 are the zero symbol;
    the kernel is first consulted at tau=1. For every step from tau=1 on,
    the engine draws ``draws_per_step`` rows of ``lanes`` uniforms from the
    medium's stream, and each link reads its own rows of that block.
    """

    num_users: int
    links: tuple
    draws_per_step: int

    @abstractmethod
    def user_input_alphabet(self, user: int) -> Alphabet: ...

    @abstractmethod
    def link_output_alphabet(self, link) -> Alphabet: ...

    def reads(self, link) -> tuple:
        """Users whose past medium inputs ``link`` reads."""
        return (link[0],)

    @abstractmethod
    def start(self, lanes: int):
        """Allocate per-rollout state for ``lanes`` replicas."""

    @abstractmethod
    def window(self, link, state, iota_prev: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Outputs (steps, lanes) of ``link`` over a window of steps.

        ``iota_prev`` (users, steps, lanes) holds the medium inputs one step
        before each step of the window and ``u`` (steps, draws_per_step,
        lanes) the window's uniforms.
        """


class DmcMedium(MediumKernel):
    """Memoryless medium: each link applies its own stochastic matrix.

    Per step, each link reads one row of uniforms, in the order the link
    matrices were given.
    """

    def __init__(self, num_users: int, link_matrices: dict):
        self.num_users = int(num_users)
        mats = {}
        for (i, j), mat in link_matrices.items():
            if not (0 <= i < num_users and 0 <= j < num_users and i != j):
                raise WiringError(f"link ({i},{j}) references unknown users")
            mats[(i, j)] = _check_stochastic(mat, f"link ({i},{j}) matrix")
        self.links = tuple(sorted(mats))
        self._mats = mats
        self._cums = {lk: _row_cumsum(m) for lk, m in mats.items()}
        self._slot = {lk: k for k, lk in enumerate(mats)}
        self.draws_per_step = len(mats)

    def user_input_alphabet(self, user: int) -> Alphabet:
        for (i, _), mat in self._mats.items():
            if i == user:
                return Alphabet(mat.shape[0])
        return Alphabet(2)

    def link_output_alphabet(self, link) -> Alphabet:
        return Alphabet(self._mats[link].shape[1])

    def start(self, lanes: int):
        return None

    def window(self, link, state, iota_prev, u):
        cum, rows = self._table(link, iota_prev)
        return _sample_indexed(
            cum, rows, u[:, self._slot[link]], self.link_output_alphabet(link).dtype
        )

    def _table(self, link, iota_prev):
        """Cumulative output table of ``link`` and the row each cell reads."""
        return self._cums[link], iota_prev[link[0]]


class CoupledDmcMedium(DmcMedium):
    """Memoryless medium with cross-user interference.

    A coupled link's matrix is selected per step by another user's last
    medium input, so its statistics depend on that user's input law. This
    exercises the requirement that an architecture change at one pair must
    not disturb the law seen by others.
    """

    def __init__(self, num_users: int, link_matrices: dict, coupling: dict):
        super().__init__(num_users, link_matrices)
        self._coupling = {}
        for link, (watch, stack) in coupling.items():
            if link not in self._mats:
                raise WiringError(f"coupling references unknown link {link}")
            watch = int(watch)
            if not 0 <= watch < self.num_users:
                raise WiringError(f"coupling of link {link} watches unknown user {watch}")
            stack = np.asarray(stack, dtype=np.float64)
            want = (self.user_input_alphabet(watch).size, *self._mats[link].shape)
            if stack.shape != want:
                raise WiringError(f"coupling of link {link} needs shape {want}, got {stack.shape}")
            for s in range(stack.shape[0]):
                _check_stochastic(stack[s], f"coupled matrix {link}[{s}]")
            # row (watched input) * |link input alphabet| + link input
            self._coupling[link] = (watch, _row_cumsum(stack).reshape(-1, want[2]))

    def reads(self, link):
        if link not in self._coupling:
            return super().reads(link)
        return (link[0], self._coupling[link][0])

    def _table(self, link, iota_prev):
        if link not in self._coupling:
            return super()._table(link, iota_prev)
        watch, cum = self._coupling[link]
        size = self._mats[link].shape[0]
        return cum, iota_prev[watch].astype(np.intp) * size + iota_prev[link[0]]


@dataclass(frozen=True)
class MarkovLinkRule:
    """Per-link hidden state chain: emission matrices per state plus the
    state transition matrix."""

    transition: np.ndarray  # (S, S)
    emission: np.ndarray    # (S, K, K) stochastic matrix per state
    initial_state: int = 0

    def __post_init__(self):
        trans = _check_stochastic(self.transition, "state transition")
        emission = np.asarray(self.emission, dtype=np.float64)
        if emission.ndim != 3 or emission.shape[0] != trans.shape[0]:
            raise WiringError("emission must be (states, k, k) matching transition")
        for s in range(emission.shape[0]):
            _check_stochastic(emission[s], f"emission[{s}]")
        if not 0 <= self.initial_state < trans.shape[0]:
            raise WiringError("initial state out of range")
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "emission", emission)


class MarkovMedium(MediumKernel):
    """Medium with memory: each link carries an independent state chain.

    At each step the link emits through its current state's matrix, then
    the state advances. Per step, each link in sorted order reads one row
    of uniforms for its emission and then one for its transition.
    """

    def __init__(self, num_users: int, link_rules: dict):
        self.num_users = int(num_users)
        self.links = tuple(sorted(link_rules))
        for (i, j) in self.links:
            if not (0 <= i < num_users and 0 <= j < num_users and i != j):
                raise WiringError(f"link ({i},{j}) references unknown users")
        self._rules = dict(link_rules)
        # row (state) * |link input alphabet| + link input
        self._emit_cums = {
            lk: _row_cumsum(r.emission).reshape(-1, r.emission.shape[2])
            for lk, r in self._rules.items()
        }
        self._trans_cums = {lk: _row_cumsum(r.transition) for lk, r in self._rules.items()}
        self._state_dtypes = {
            lk: Alphabet(r.transition.shape[0]).dtype for lk, r in self._rules.items()
        }
        self._slot = {lk: 2 * k for k, lk in enumerate(self.links)}
        self.draws_per_step = 2 * len(self.links)

    def user_input_alphabet(self, user: int) -> Alphabet:
        for (i, _), rule in self._rules.items():
            if i == user:
                return Alphabet(rule.emission.shape[1])
        return Alphabet(2)

    def link_output_alphabet(self, link) -> Alphabet:
        return Alphabet(self._rules[link].emission.shape[2])

    def start(self, lanes: int):
        return {
            lk: np.full(lanes, rule.initial_state, dtype=self._state_dtypes[lk])
            for lk, rule in self._rules.items()
        }

    def window(self, link, state, iota_prev, u):
        slot = self._slot[link]
        path = self._state_path(link, state, u[:, slot + 1])
        size = self._rules[link].emission.shape[1]
        rows = path.astype(np.intp) * size + iota_prev[link[0]]
        return _sample_indexed(
            self._emit_cums[link], rows, u[:, slot], self.link_output_alphabet(link).dtype
        )

    def _state_path(self, link, state, u):
        """The state in force at each step of the window, from the
        transition uniforms ``u`` (steps, lanes); advances ``state``."""
        cum, dtype = self._trans_cums[link], self._state_dtypes[link]
        path = np.empty(u.shape, dtype=dtype)
        current = state[link]
        for t in range(u.shape[0]):
            path[t] = current
            current = _sample_indexed(cum, current, u[t], dtype)
        state[link] = current
        return path


def make_markov_medium(num_users: int, state_count: int, transition_rule: dict) -> MarkovMedium:
    """Stateful medium from per-link ``MarkovLinkRule`` values."""
    for link, rule in transition_rule.items():
        if rule.transition.shape[0] != state_count:
            raise WiringError(f"link {link} rule has wrong state count")
    return MarkovMedium(num_users, transition_rule)


def gilbert_elliott_rule(
    flip_good: float,
    flip_bad: float,
    p_good_to_bad: float,
    p_bad_to_good: float,
    initial_state: int = 0,
) -> MarkovLinkRule:
    """Two-state burst-noise flip channel (state 0 good, state 1 bad)."""
    def bsc(q):
        return np.array([[1 - q, q], [q, 1 - q]])

    trans = np.array(
        [[1 - p_good_to_bad, p_good_to_bad], [p_bad_to_good, 1 - p_bad_to_good]]
    )
    return MarkovLinkRule(trans, np.stack([bsc(flip_good), bsc(flip_bad)]), initial_state)


class ModemView:
    """What a modem sees of one rollout.

    Only the modem's own slices are present: its outgoing pairs' source
    arrays and its incoming links' output arrays, all (horizon, lanes). The
    medium state is never exposed. When a modem steps the window [t0, t1),
    its incoming links may already be filled up to row t1-1, so causality
    is the modem's duty: its value at step tau may read rows before tau
    only. Perturbation tests check that it does.
    """

    __slots__ = (
        "user",
        "lanes",
        "horizon",
        "sources",
        "source_pmfs",
        "link_in",
        "private_gen",
        "telemetry",
    )

    def __init__(self, user, lanes, horizon, sources, source_pmfs, link_in, private_gen):
        self.user = user
        self.lanes = lanes
        self.horizon = horizon
        self.sources = sources
        self.source_pmfs = source_pmfs
        self.link_in = link_in
        self.private_gen = private_gen
        self.telemetry = {}


class Modem(ABC):
    """User protocol box: maps past observations to a medium input and
    source reproductions, one symbol per step and lane."""

    user: int

    def check_wiring(self, system: "NetworkSystem") -> None:
        """Validate alphabet compatibility; raise WiringError on mismatch."""

    def start(self, view: ModemView):
        """Allocate per-rollout state."""
        return None

    @abstractmethod
    def window(self, t0: int, t1: int, state, view: ModemView):
        """Return (medium inputs or None, {pair: reproductions}) for the
        steps [t0, t1), each array (t1 - t0, lanes)."""


def _delayed(stream: np.ndarray, t0: int, t1: int, first=0) -> np.ndarray:
    """``stream`` one step late over the window [t0, t1): step tau reads
    row tau-1, and step 0, which has no earlier row, is ``first``."""
    if t0 >= 1:
        return stream[t0 - 1 : t1 - 1]
    out = np.empty((t1, stream.shape[1]), dtype=stream.dtype)
    out[0] = first
    out[1:] = stream[: t1 - 1]
    return out


class PassthroughModem(Modem):
    """Uncoded modem: relays last source symbol into the medium and last
    received link symbol out as the reproduction.

    Before the first source symbol is available it emits fresh i.i.d.
    symbols from the source law, so the medium input law is exact from
    step 0.
    """

    def __init__(self, user: int, send_pair=None, recv_pairs=(), recv_links=None):
        self.user = int(user)
        self.send_pair = tuple(send_pair) if send_pair else None
        self.recv_pairs = tuple(tuple(p) for p in recv_pairs)
        # Relayed pairs are heard on a link that differs from the pair
        # itself; recv_links overrides the listening link per pair.
        overrides = {tuple(k): tuple(v) for k, v in (recv_links or {}).items()}
        self.recv_link = {p: overrides.get(p, p) for p in self.recv_pairs}

    def check_wiring(self, system):
        medium = system.medium
        if self.send_pair:
            if self.send_pair not in system.sources:
                raise WiringError(f"modem {self.user} sends unknown pair {self.send_pair}")
            src_size = system.sources[self.send_pair].alphabet.size
            med_size = medium.user_input_alphabet(self.user).size
            if src_size != med_size:
                raise WiringError(
                    f"pair {self.send_pair}: source alphabet {src_size} vs "
                    f"medium input alphabet {med_size}"
                )
        for (i, j) in self.recv_pairs:
            if j != self.user:
                raise WiringError(f"modem {self.user} cannot receive pair ({i},{j})")
            link = self.recv_link[(i, j)]
            if link not in medium.links:
                raise WiringError(f"no medium link {link} for pair ({i},{j})")
            if link[1] != self.user:
                raise WiringError(f"modem {self.user} cannot hear link {link}")

    def window(self, t0, t1, state, view):
        iota = None
        if self.send_pair:
            first = 0
            if t0 == 0:
                pmf = view.source_pmfs[self.send_pair]
                first = sample_iid_array(pmf, view.lanes, view.private_gen)
            iota = _delayed(view.sources[self.send_pair], t0, t1, first)
        repro = {
            pair: _delayed(view.link_in[self.recv_link[pair]], t0, t1)
            for pair in self.recv_pairs
        }
        return iota, repro


class ForwardRelayModem(Modem):
    """Relay: re-emits the last symbol received on ``in_link``."""

    def __init__(self, user: int, in_link):
        self.user = int(user)
        self.in_link = tuple(in_link)

    def check_wiring(self, system):
        if self.in_link not in system.medium.links:
            raise WiringError(f"relay {self.user}: unknown link {self.in_link}")
        if self.in_link[1] != self.user:
            raise WiringError(f"relay {self.user} cannot hear link {self.in_link}")

    def window(self, t0, t1, state, view):
        return _delayed(view.link_in[self.in_link], t0, t1), {}


@dataclass(frozen=True)
class NetworkSystem:
    """Complete system description: medium, modems, sources, and timing.

    ``latency_map`` gives the fixed per-pair reproduction delay: the
    reproduction of x[m] is read at y[m + L]. Sources for distinct pairs
    always draw from independent randomness streams.
    """

    medium: MediumKernel
    modems: tuple
    sources: dict
    pair_of_interest: tuple
    horizon: int
    block_length: int
    latency_map: dict
    warmup: int = 8

    def __post_init__(self):
        users = [m.user for m in self.modems]
        if sorted(users) != list(range(self.medium.num_users)):
            raise WiringError("need exactly one modem per user 0..N-1")
        object.__setattr__(self, "modems", tuple(self.modems))
        for pair in self.latency_map:
            if pair not in self.sources:
                raise WiringError(f"latency entry for unknown pair {pair}")

    def modem_for(self, user: int) -> Modem:
        return self.modems[[m.user for m in self.modems].index(user)]

    def with_modems(self, new_modems, latency_map=None) -> "NetworkSystem":
        return replace(
            self,
            modems=tuple(new_modems),
            latency_map=dict(latency_map if latency_map is not None else self.latency_map),
        )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """All realized streams of one (batched) rollout, immutable.

    Arrays are (horizon, lanes) for per-pair streams and (users, horizon,
    lanes) for medium inputs.
    """

    sources: dict
    medium_inputs: np.ndarray
    link_outputs: dict
    repro: dict
    telemetry: dict
    latency_map: dict
    horizon: int
    lanes: int


def _schedule(system: NetworkSystem) -> list | None:
    """Users (ints) and links (tuples) ordered so that every link comes
    after the users it reads and every user after the links into it; None
    if the user/link graph has a cycle."""
    medium = system.medium
    inputs = {m.user: [lk for lk in medium.links if lk[1] == m.user] for m in system.modems}
    inputs.update({lk: list(medium.reads(lk)) for lk in medium.links})
    try:
        return list(graphlib.TopologicalSorter(inputs).static_order())
    except graphlib.CycleError:
        return None


def rollout(
    system: NetworkSystem,
    seeds: RandomnessHandle,
    lanes: int = 1,
    horizon: int | None = None,
    source_override: dict | None = None,
) -> Trajectory:
    """Simulate the system for ``horizon`` steps across ``lanes`` replicas.

    ``source_override`` substitutes explicit (horizon, lanes) source arrays
    for chosen pairs; everything else still follows the seeded streams.
    """
    return _rollout(system, seeds, lanes, horizon, source_override)


def _rollout(system, seeds, lanes, horizon, source_override, window=None) -> Trajectory:
    """The engine behind ``rollout``. ``window`` fixes the steps per window
    (default: as many as ``WINDOW_LANE_STEPS`` allows); a cyclic graph
    always gets 1. The result is the same for every choice."""
    T = int(horizon if horizon is not None else system.horizon)
    B = int(lanes)
    if T < 1 or B < 1:
        raise ValueError("horizon and lanes must be >= 1")
    medium = system.medium
    N = medium.num_users
    for modem in system.modems:
        modem.check_wiring(system)

    sources = {}
    for pair, pmf in sorted(system.sources.items()):
        if source_override and pair in source_override:
            arr = np.asarray(source_override[pair]).astype(pmf.alphabet.dtype)
            if arr.shape != (T, B):
                raise ValueError(f"override for {pair} must have shape {(T, B)}")
        else:
            gen = seeds.derive("src", *pair).generator()
            arr = sample_iid_array(pmf, T * B, gen).reshape(T, B)
        sources[pair] = arr

    iota_dtype = np.result_type(*(medium.user_input_alphabet(u).dtype for u in range(N)))
    iota = np.zeros((N, T, B), dtype=iota_dtype)
    link_out = {
        link: np.zeros((T, B), dtype=medium.link_output_alphabet(link).dtype)
        for link in medium.links
    }
    repro = {
        pair: np.zeros((T, B), dtype=pmf.alphabet.dtype)
        for pair, pmf in system.sources.items()
    }

    modems = {}
    for modem in system.modems:
        u = modem.user
        view = ModemView(
            user=u,
            lanes=B,
            horizon=T,
            sources={p: a for p, a in sources.items() if p[0] == u},
            source_pmfs={p: f for p, f in system.sources.items() if p[0] == u},
            link_in={lk: link_out[lk] for lk in medium.links if lk[1] == u},
            private_gen=seeds.derive("modem", u).generator(),
        )
        modems[u] = (modem, modem.start(view), view)
    med_state = medium.start(B)
    med_gen = seeds.derive("medium").generator()

    order = _schedule(system)
    if order is None:
        # with one step per window every input comes from an earlier window
        order, window = [*modems, *medium.links], 1
    W = int(window or max(1, WINDOW_LANE_STEPS // B))
    for t0 in range(0, T, W):
        t1 = min(t0 + W, T)
        a = max(t0, 1)  # the medium is first consulted at step 1
        u_block = med_gen.random((t1 - a, medium.draws_per_step, B))
        for node in order:
            if isinstance(node, tuple):
                if t1 > a:
                    link_out[node][a:t1] = medium.window(
                        node, med_state, iota[:, a - 1 : t1 - 1], u_block
                    )
                continue
            modem, state, view = modems[node]
            iota_w, repro_w = modem.window(t0, t1, state, view)
            if iota_w is not None:
                iota[node, t0:t1] = iota_w
            for pair, arr in repro_w.items():
                repro[pair][t0:t1] = arr

    for arr in sources.values():
        arr.flags.writeable = False
    iota.flags.writeable = False
    for arr in link_out.values():
        arr.flags.writeable = False
    for arr in repro.values():
        arr.flags.writeable = False

    telemetry = {v.user: v.telemetry for _, _, v in modems.values() if v.telemetry}
    return Trajectory(
        sources=sources,
        medium_inputs=iota,
        link_outputs=link_out,
        repro=repro,
        telemetry=telemetry,
        latency_map=dict(system.latency_map),
        horizon=T,
        lanes=B,
    )


def _block_distortions(
    metric: DistortionMetric,
    x: np.ndarray,
    y: np.ndarray,
    x_starts: np.ndarray,
    y_starts: np.ndarray,
    n: int,
) -> np.ndarray:
    """Average distortion of each block x[a : a+n] against y[b : b+n],
    per lane: (blocks, lanes) for the starts a, b.

    The per-letter table is read at x*K + y, a few blocks at a time, so the
    temporaries stay near ``_DISTORTION_CELLS`` cells.
    """
    table = metric.table.reshape(-1)
    size = metric.table.shape[1]
    cell_dtype = Alphabet(table.size).dtype
    lanes = x.shape[1]
    step = max(1, _DISTORTION_CELLS // (n * lanes))
    offsets = np.arange(n)
    out = np.empty((len(x_starts), lanes))
    for c in range(0, len(x_starts), step):
        cells = x[x_starts[c : c + step, None] + offsets].astype(cell_dtype, copy=False)
        cells *= size
        cells += y[y_starts[c : c + step, None] + offsets]
        out[c : c + step] = table.take(cells).mean(axis=1)
    return out


def block_average_distortions(
    traj: Trajectory,
    pair: tuple,
    metric: DistortionMetric,
    block_length: int,
    start: int = 0,
    num_blocks: int | None = None,
) -> np.ndarray:
    """Per-block average distortions, flattened across blocks and lanes.

    Block k covers source positions [start + k*n, start + (k+1)*n); the
    reproduction is read at the pair's declared latency offset.
    """
    n = int(block_length)
    lat = traj.latency_map[pair]
    avail = (traj.horizon - lat - start) // n
    k = avail if num_blocks is None else min(num_blocks, avail)
    if k < 1:
        raise ValueError("horizon too short for one aligned block")
    starts = start + n * np.arange(k)
    return _block_distortions(
        metric, traj.sources[pair], traj.repro[pair], starts, starts + lat, n
    ).reshape(-1)


@dataclass(frozen=True)
class GuaranteeReport:
    """Measured excess-distortion guarantee for one pair.

    This is the empirical contract separation planning starts from: the
    system delivers the pair's source within ``level`` except with
    probability about ``epsilon_hat``.
    """

    pair: tuple
    level: float
    epsilon_hat: float
    half_width: float
    trials: int
    block_length: int
    exceed_count: int


def baseline_guarantee(
    system: NetworkSystem,
    budget: DistortionBudget,
    trials: int,
    seeds: RandomnessHandle,
    pair: tuple | None = None,
    block_length: int | None = None,
) -> GuaranteeReport:
    """Monte Carlo estimate of the excess-distortion probability for one
    pair of an uncoded system, by default its pair of interest.

    ``trials`` blocks of ``block_length`` (default: the system's) are read
    after the warm-up, 4096 lanes at a time at most.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful estimate")
    pair = tuple(pair) if pair is not None else system.pair_of_interest
    n = int(block_length if block_length is not None else system.block_length)
    B = min(trials, 4096)
    blocks = -(-trials // B)
    lat = system.latency_map[pair]
    T = system.warmup + blocks * n + lat + 1
    traj = rollout(system, seeds, lanes=B, horizon=T)
    avgs = block_average_distortions(
        traj, pair, budget.metric, n, start=system.warmup, num_blocks=blocks
    )[:trials]
    exceed = int((avgs > budget.level).sum())
    return GuaranteeReport(
        pair=pair,
        level=budget.level,
        epsilon_hat=exceed / trials,
        half_width=wilson_half_width(exceed, trials),
        trials=trials,
        block_length=n,
        exceed_count=exceed,
    )
