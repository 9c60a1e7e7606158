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

The engine keeps one window of every stream. Every user's medium inputs
and every link's outputs live in (window + 1)-step buffers, allocated once
per rollout and reused, whose row 0 holds the step before the window.
Nothing reads them more than one step after they are written. Each pair's
source is drawn one window at a time. A window's rows reach a modem as the
arguments of ``Modem.window``, then the rollout's consumer (``rollout``).
Whoever reads older rows keeps them itself (``_Tail``): a plain sender its
last source row, a separated pair's block recoders the rows of the blocks
they have not yet coded, and a consumer what it reads later, as a
measurement's scorer the source rows of its open blocks.

The medium has one model of a link, ``MediumKernel``: a stack of
stochastic rows, where a cell's row has the mixed-radix digits the link's
hidden state, then the inputs of the users it watches, then its sender's
input.

Randomness is namespaced off a single root handle: one stream per source
pair, ``derive("src", *pair)``, whose horizon * lanes symbols in (step,
lane) order are one ``sample_iid_array`` draw, read window by window
(``probcore._IidStream``); one private stream per modem; and the medium's
streams, derived per
link from ``derive("medium").derive(i, j)`` for link (i, j). The link's
cells are its outputs at steps tau >= 1, in (step, lane) order; cell c is
step 1 + c // lanes, lane c % lanes. Every letter the medium draws
follows ``probcore``'s one sampler rule: it is the number of its row's
integer thresholds that a 53-bit draw k reaches. A cell's k is laid out
in bit planes (``probcore._sample_planes``), a transition's is one word:

- stream ``derive("plane", p)``, p = 0..15, gives bit 52 - p of every
  cell's k, cell c from bit c % 64 of raw word c // 64, so with a multiple
  of 64 lanes, lane 64w + b of a step is bit b of that step's word w;
- stream ``derive("tail")`` gives the low 37 bits of k, the top 37 bits of
  one raw word per cell whose top 16 bits tie one of its thresholds, in
  cell order;
- a Markov link's stream ``derive("transition")`` gives one raw word per
  cell, in cell order, k its top 53 bits, which picks its state's
  transition by ``probcore._reached``.

Every stream is read in cell order, the same whatever the window, so a
rollout is bit-reproducible from (system, seeds, lanes, horizon) and does
not depend on how the horizon is cut into windows.
"""

from __future__ import annotations

import graphlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .probcore import (
    Alphabet,
    RandomnessHandle,
    _IidStream,
    _PlaneSampler,
    _reached,
    _thresholds,
    sample_iid_array,
)

__all__ = [
    "ForwardRelayModem",
    "MarkovLinkRule",
    "MediumKernel",
    "Modem",
    "ModemView",
    "ModemWrapper",
    "NetworkSystem",
    "Trajectory",
    "WiringError",
    "bsc_matrix",
    "gilbert_elliott_link",
    "rollout",
]

# A rollout window covers at most this many (step, lane) cells.
WINDOW_LANE_STEPS = 1 << 18


class WiringError(ValueError):
    """Alphabet or topology mismatch detected before simulation starts."""


def _input_alphabets(rows_of: dict) -> dict:
    """Each sending user's input alphabet size, from ``rows_of``, the
    number of input letters of each link's table; every out-link of a user
    must read the same alphabet, since a row a table lacks would be
    sampled as no row."""
    sizes = {}
    for (i, j), rows in sorted(rows_of.items()):
        if sizes.setdefault(i, rows) != rows:
            raise WiringError(
                f"link ({i},{j}) reads {rows} input letters, another out-link "
                f"of user {i} reads {sizes[i]}"
            )
    return sizes


def _check_stochastic(table: np.ndarray, what: str) -> None:
    """Raise unless every row of ``table``, along its last axis, is a
    probability vector."""
    if np.any(table < 0) or not np.allclose(table.sum(axis=-1), 1.0, atol=1e-9):
        raise WiringError(f"{what} rows must be probability vectors")


@dataclass(frozen=True)
class MarkovLinkRule:
    """A link's hidden state chain: the state transition matrix (S, S) and
    the state at step 1. It owns the chain only; what the link emits in
    each state is its ``MediumKernel`` table, whose first axis is over the
    S states."""

    transition: np.ndarray  # (S, S)
    initial_state: int = 0

    def __post_init__(self):
        trans = np.asarray(self.transition, dtype=np.float64)
        if trans.ndim != 2 or trans.shape[0] != trans.shape[1]:
            raise WiringError("state transition must be a square matrix")
        _check_stochastic(trans, "state transition")
        if not 0 <= self.initial_state < trans.shape[0]:
            raise WiringError("initial state out of range")
        object.__setattr__(self, "transition", trans)


class _Link(NamedTuple):
    """One link's stacked table, as ``MediumKernel`` samples it."""

    thresholds: np.ndarray  # (rows, K_out - 1), see probcore._thresholds
    shape: tuple            # the table's: (*digit letters, K_out)
    watched: tuple          # users whose inputs pick the row, before the sender's
    rule: MarkovLinkRule | None


class MediumKernel:
    """The medium: per link, a stack of stochastic rows over the link's
    output letters.

    Outputs at step tau may depend only on inputs up to tau-1 and the
    medium's own state. Link outputs at tau=0 are the zero symbol; the
    kernel is first consulted at tau=1. A cell of link (i, j) at step tau
    reads the row whose mixed-radix digits, most significant first, are
    the link's hidden state at tau (for a link with a ``MarkovLinkRule``),
    the input at tau-1 of each user the link watches, in order, and the
    input at tau-1 of its sender i. Each link draws from its own streams
    (see the module docstring), held in the state ``start`` makes.

    ``links`` maps (i, j) to ``(table, watched, rule)``: ``table`` has one
    axis per digit and a last one over the output letters, whose rows are
    probability vectors; ``watched`` is a tuple of users and ``rule`` a
    ``MarkovLinkRule`` or None. ``gilbert_elliott_link`` gives one such
    triple.
    """

    def __init__(self, num_users: int, links: dict):
        self.num_users = int(num_users)
        self.links = tuple(sorted(links))
        self._links = {}
        for (i, j), (table, watched, rule) in sorted(links.items()):
            if i == j or not all(0 <= u < self.num_users for u in (i, j, *watched)):
                raise WiringError(f"link ({i},{j}) references unknown users")
            table = np.asarray(table, dtype=np.float64)
            if table.ndim != len(watched) + (rule is not None) + 2:
                raise WiringError(f"link ({i},{j}) table has {table.ndim} axes, not one per "
                                  f"digit and one over the output letters")
            _check_stochastic(table, f"link ({i},{j}) table")
            if rule is not None and table.shape[0] != len(rule.transition):
                raise WiringError(f"link ({i},{j}) table has {table.shape[0]} states, its "
                                  f"rule {len(rule.transition)}")
            self._links[(i, j)] = _Link(_thresholds(table.reshape(-1, table.shape[-1])),
                                        table.shape, tuple(watched), rule)
        self._inputs = _input_alphabets({lk: link.shape[-2] for lk, link in self._links.items()})
        for (i, j), link in self._links.items():
            for u, letters in zip(link.watched, link.shape[-2 - len(link.watched) : -2]):
                if letters != self.user_input_alphabet(u).size:
                    raise WiringError(f"link ({i},{j}) reads {letters} letters of user "
                                      f"{u}, who sends {self.user_input_alphabet(u).size}")

    def user_input_alphabet(self, user: int) -> Alphabet:
        return Alphabet(self._inputs.get(user, 2))

    def link_output_alphabet(self, link) -> Alphabet:
        return Alphabet(self._links[link].shape[-1])

    def reads(self, link) -> tuple:
        """Users whose past medium inputs ``link`` reads."""
        return (link[0], *self._links[link].watched)

    def start(self, lanes: int, seeds: RandomnessHandle):
        """Allocate per-rollout state for ``lanes`` replicas, with every
        link's streams derived from ``seeds``."""
        state = {}
        for lk, link in self._links.items():
            link_seeds, chain = seeds.derive(*lk), None
            if link.rule is not None:
                chain = {
                    "transition": link_seeds.derive("transition").generator().bit_generator,
                    "thresholds": _thresholds(link.rule.transition),
                    "current": np.full(lanes, link.rule.initial_state,
                                       dtype=Alphabet(link.shape[0]).dtype),
                }
            state[lk] = (_PlaneSampler(link_seeds), chain)
        return state

    def window(self, link, state, iota_prev: np.ndarray, out: np.ndarray) -> None:
        """Write the outputs of ``link`` over a window of steps into ``out``
        (steps, lanes).

        ``iota_prev`` (users, steps, lanes) holds the medium inputs one step
        before each step of the window.
        """
        sampler, chain = state[link]
        table = self._links[link]
        values = [iota_prev[u] for u in (*table.watched, link[0])]
        if chain is not None:
            values.insert(0, self._state_path(chain, out.shape[0]))
        sampler.sample(table.thresholds, list(zip(values, table.shape[:-1])), out)

    @staticmethod
    def _state_path(chain: dict, steps: int) -> np.ndarray:
        """The state in force at each of ``steps`` steps, each next state
        ``_reached`` from one raw word of the link's transition stream per
        lane and step, in cell order; advances ``chain``."""
        thresholds, current = chain["thresholds"], chain["current"]
        path = np.empty((steps + 1, len(current)), dtype=current.dtype)
        path[0] = current
        k = (chain["transition"].random_raw(path[1:].size) >> np.uint64(11)).view(np.int64)
        for t, draws in enumerate(k.reshape(steps, -1)):
            _reached(thresholds, path[t], draws, path[t + 1])
        chain["current"] = path[-1].copy()
        return path[:-1]


def bsc_matrix(q: float) -> np.ndarray:
    """The binary symmetric channel that flips a letter with probability ``q``."""
    return np.array([[1.0 - q, q], [q, 1.0 - q]])


def gilbert_elliott_link(
    flip_good: float,
    flip_bad: float,
    p_good_to_bad: float,
    p_bad_to_good: float,
    initial_state: int = 0,
) -> tuple:
    """Two-state burst-noise flip channel (state 0 good, state 1 bad), as
    the ``MediumKernel`` link ``(table, (), rule)``: a binary symmetric
    channel per state, switched by the rule's chain."""
    trans = np.array(
        [[1 - p_good_to_bad, p_good_to_bad], [p_bad_to_good, 1 - p_bad_to_good]]
    )
    table = np.stack([bsc_matrix(flip_good), bsc_matrix(flip_bad)])
    return table, (), MarkovLinkRule(trans, initial_state)


@dataclass(eq=False, slots=True)
class ModemView:
    """What a modem reads of one rollout when it starts (``Modem.start``):
    its user, the lanes and horizon, the laws of the pairs it sends, its
    private generator, and ``telemetry``, a dict it may fill, which the
    ``Trajectory`` returns. Stream rows reach the modem only as the
    arguments of ``Modem.window``, and the medium state never does.
    """

    user: int
    lanes: int
    horizon: int
    source_pmfs: dict
    private_gen: np.random.Generator
    telemetry: dict = field(default_factory=dict)


class Modem(ABC):
    """User protocol box: maps past observations to a medium input and
    source reproductions, one symbol per step and lane."""

    user: int

    def check_wiring(self, system: "NetworkSystem") -> None:
        """Validate alphabet compatibility; raise WiringError on mismatch.
        ``NetworkSystem`` calls it when the system is built."""

    def carries(self, carried) -> tuple | None:
        """(pair, d): this modem's medium input carries x[m] of the pair at
        step m + d; None if it carries none. ``carried(u)`` is user u's."""
        return None

    def latencies(self, carried) -> dict:
        """{pair: L}: this modem reproduces x[m] of the pair at step m + L."""
        return {}

    def start(self, view: ModemView):
        """Allocate per-rollout state."""
        return None

    @abstractmethod
    def window(self, t0: int, t1: int, state, sources: dict, link_in: dict):
        """Return (medium inputs or None, {pair: reproductions}) for the
        steps [t0, t1), each array (t1 - t0, lanes), from the window's rows
        of the modem's own streams: ``sources[pair]``, whose row k is the
        source at step t0 + k, for each pair it sends, and ``link_in[link]``,
        whose row k is the output at step t0 + k - 1 (0 at step 0), for each
        link into it. Both are read-only and valid only during the call: a
        modem that reads a row of an earlier window keeps its own copy
        (``_Tail``). Causality is the modem's duty: its value at step tau may
        read source rows before tau only, as
        ``test_causality_source_perturbation`` in tests/test_netmodel.py
        checks for the senders of plain and separated pairs. The engine
        copies what it is returned before the next call, so arrays of
        ``link_in`` may be returned as they are."""


class _Tail:
    """The rows of a (steps, lanes) stream, handed over window by window,
    that a reader still needs: rows from ``start`` up to the end of the
    window last added. The window's own rows are read in place; ``keep``
    copies the rows kept past it, so the window may be reused after."""

    def __init__(self):
        self.start = self.t0 = 0
        self.kept = None  # rows [start, t0), copied
        self.window = None  # rows [t0, t1), the caller's

    def add(self, t0: int, window: np.ndarray) -> None:
        """The stream's rows [t0, t0 + len(window)); the rows before t0 are
        the ones the last ``keep`` kept."""
        self.t0, self.window = t0, window

    def rows(self, a: int, b: int) -> np.ndarray:
        """Rows [a, b), at or after ``start``: a view unless they straddle
        the window's first row."""
        if a >= self.t0:
            return self.window[a - self.t0 : b - self.t0]
        old = self.kept[a - self.start : b - self.start]
        return old if b <= self.t0 else np.concatenate([old, self.window[: b - self.t0]])

    def keep(self, start: int) -> None:
        """Forget the rows before ``start`` and copy the window's rows from
        there on; a ``start`` past the window keeps none."""
        start = min(start, self.t0 + len(self.window))
        self.kept = self.rows(start, self.t0 + len(self.window)).copy()
        self.start = start


class PassthroughModem(Modem):
    """Uncoded modem: relays last source symbol into the medium and last
    received link symbol out as the reproduction.

    At step 0, before the first source symbol is available, it emits
    fresh i.i.d. symbols from the source law, drawn at the start, so the
    medium input law is exact from step 0. Of the source it keeps one row,
    the last of each window, which the next window's first step sends.
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
            if (i, j) not in system.sources:
                raise WiringError(f"modem {self.user} receives pair ({i},{j}), "
                                  "which has no source")
            link = self.recv_link[(i, j)]
            if link not in medium.links:
                raise WiringError(f"no medium link {link} for pair ({i},{j})")
            if link[1] != self.user:
                raise WiringError(f"modem {self.user} cannot hear link {link}")
            heard = medium.link_output_alphabet(link).size
            if heard > system.sources[(i, j)].alphabet.size:
                raise WiringError(f"modem {self.user}: link {link} outputs {heard} letters, "
                                  f"more than pair ({i},{j}) has")

    def carries(self, carried):
        # the source one step late
        return (self.send_pair, 1) if self.send_pair else None

    def latencies(self, carried):
        # one link step, then one late read of the link
        heard = {pair: carried(link[0]) or (None, 0) for pair, link in self.recv_link.items()}
        for pair, (sent, _) in heard.items():
            if sent != pair:
                raise WiringError(f"modem {self.user} hears pair {pair} on link "
                                  f"{self.recv_link[pair]}, whose sender does not carry it")
        return {pair: d + 2 for pair, (_, d) in heard.items()}

    def start(self, view):
        # "last": the source row the next window's first step sends, fresh at
        # step 0; "iota": a reused buffer of medium inputs, which the engine copies
        pmf = view.source_pmfs.get(self.send_pair)
        last = None if pmf is None else sample_iid_array(pmf, view.lanes, view.private_gen)
        return {"last": last, "iota": np.empty((0, view.lanes))}

    def window(self, t0, t1, state, sources, link_in):
        iota = None
        if self.send_pair:
            x = sources[self.send_pair]
            if len(state["iota"]) < len(x):
                state["iota"] = np.empty_like(x)
            iota = state["iota"][: len(x)]
            iota[0], iota[1:] = state["last"], x[:-1]
            state["last"] = x[-1].copy()
        return iota, {pair: link_in[self.recv_link[pair]] for pair in self.recv_pairs}


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
        heard = system.medium.link_output_alphabet(self.in_link).size
        sent = system.medium.user_input_alphabet(self.user).size
        if heard > sent:
            raise WiringError(
                f"relay {self.user}: link {self.in_link} outputs {heard} letters, "
                f"its medium input takes {sent}"
            )

    def carries(self, carried):
        # one late read of its link, then the next link's step
        heard = carried(self.in_link[0])
        return None if heard is None else (heard[0], heard[1] + 2)

    def window(self, t0, t1, state, sources, link_in):
        return link_in[self.in_link], {}


class ModemWrapper(Modem):
    """A modem that runs ``inner`` behind a codec or a log of its own: it
    is ``inner``'s user and keeps ``inner``'s timing."""

    def __init__(self, inner: Modem):
        self.user = inner.user
        self.inner = inner

    def carries(self, carried):
        return self.inner.carries(carried)

    def latencies(self, carried):
        return self.inner.latencies(carried)


@dataclass(frozen=True)
class NetworkSystem:
    """Complete system description: medium, modems, sources, and timing.

    Building one checks its wiring: one modem per user, every modem's
    ``check_wiring``, no loop of relays, and each receiver hearing its pair
    from a sender that carries it; so a system that exists is wired and
    ``rollout`` checks nothing more. ``with_modems`` builds a new system.

    ``latency_map`` gives each reproduced pair's delay, worked out from the
    wiring (``Modem.carries``, ``Modem.latencies``): the reproduction of
    x[m] is read at y[m + L]. A separated pair keeps its inner modems'
    delay and is timed by its plan (``separation.SeparationPlan.clock``).
    A pair's blocks are scored from x[warmup] on, ``block_length`` symbols
    each unless the measurement asks for another length. Sources for
    distinct pairs always draw from independent randomness streams.
    """

    medium: MediumKernel
    modems: tuple
    sources: dict
    block_length: int
    warmup: int = 8
    latency_map: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        users = [m.user for m in self.modems]
        if sorted(users) != list(range(self.medium.num_users)):
            raise WiringError("need exactly one modem per user 0..N-1")
        object.__setattr__(self, "modems", tuple(self.modems))
        for modem in self.modems:
            modem.check_wiring(self)

        def carried(user, asked=()):
            if user in asked:
                raise WiringError(f"relay {user} hears itself through a loop of relays")
            return self.modem_for(user).carries(lambda u: carried(u, (*asked, user)))

        for modem in self.modems:
            carried(modem.user)  # so that a loop of relays nobody hears fails too
            self.latency_map.update(modem.latencies(carried))

    def modem_for(self, user: int) -> Modem:
        return self.modems[[m.user for m in self.modems].index(user)]

    def with_modems(self, new_modems) -> "NetworkSystem":
        return replace(self, modems=tuple(new_modems))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """What one (batched) rollout leaves to read, immutable: the modems'
    telemetry, by user, and the horizon and lanes it ran. The sources and
    reproductions pass through the rollout's consumer (``rollout``), and the
    medium inputs and link outputs live only in its window buffers.
    """

    telemetry: dict
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
    *,
    horizon: int,
    consume,
) -> Trajectory:
    """Simulate the system for ``horizon`` steps across ``lanes`` replicas,
    handing each window's streams to ``consume``.

    The horizon is stepped in windows of ``WINDOW_LANE_STEPS // lanes``
    steps (at least one, at most the horizon), or of one step on a graph
    with a cycle. The result is the same for every window length. The
    medium inputs and link outputs are held for one window only: each in a
    (window + 1, lanes) buffer whose row 0 is carried over from the last
    row of the window before (0 before step 0). A link reads its inputs
    from these buffers, and a modem is handed its incoming links' rows and
    its pairs' source rows (``Modem.window``). Each pair's source is drawn
    one window at a time from its own stream (``probcore._IidStream``), the
    same symbols as one draw of the whole horizon.

    After each window [t0, t1) the engine calls ``consume(t0, repro,
    sources)``: ``repro`` maps each pair reproduced in the window to its
    (t1 - t0, lanes) rows and ``sources`` each pair to its source rows, all
    valid only during the call, the sources read-only. The consumer keeps
    what it needs of them (a measurement's ``separation._BlockScorer`` the
    rows of its open blocks), so the rollout's memory is a few windows,
    whatever the horizon.
    """
    T = int(horizon)
    B = int(lanes)
    if T < 1 or B < 1:
        raise ValueError("horizon and lanes must be >= 1")
    medium = system.medium
    N = medium.num_users

    streams = {pair: _IidStream(pmf, T * B, seeds.derive("src", *pair).generator())
               for pair, pmf in sorted(system.sources.items())}

    order = _schedule(system)
    W = max(1, WINDOW_LANE_STEPS // B)
    if order is None:
        # with one step per window every input comes from an earlier window
        order, W = [*(m.user for m in system.modems), *medium.links], 1
    W = min(W, T)
    # window buffers, reused: row 0 holds the step before the window [t0, t1),
    # row k step t0 + k - 1
    iota_dtype = np.result_type(*(medium.user_input_alphabet(u).dtype for u in range(N)))
    iota = np.zeros((N, W + 1, B), dtype=iota_dtype)
    link_out = {
        link: np.zeros((W + 1, B), dtype=medium.link_output_alphabet(link).dtype)
        for link in medium.links
    }
    modems = {}
    for modem in system.modems:
        u = modem.user
        view = ModemView(
            user=u,
            lanes=B,
            horizon=T,
            source_pmfs={p: f for p, f in system.sources.items() if p[0] == u},
            private_gen=seeds.derive("modem", u).generator(),
        )
        pairs = [p for p in streams if p[0] == u]
        links = [lk for lk in medium.links if lk[1] == u]
        modems[u] = (modem, modem.start(view), view, pairs, links)
    med_state = medium.start(B, seeds.derive("medium"))

    for t0 in range(0, T, W):
        t1 = min(t0 + W, T)
        steps = t1 - t0
        if t0:
            iota[:, 0] = iota[:, W]
            for buf in link_out.values():
                buf[0] = buf[W]
        late = {lk: buf[:steps] for lk, buf in link_out.items()}
        window_sources = {pair: stream.read(steps * B).reshape(steps, B)
                          for pair, stream in streams.items()}
        for arr in (*late.values(), *window_sources.values()):
            arr.flags.writeable = False
        lo = 1 if t0 == 0 else 0  # the medium is first consulted at step 1
        repro_w = {}
        for node in order:
            if isinstance(node, tuple):
                if steps > lo:
                    medium.window(node, med_state, iota[:, lo:steps],
                                  out=link_out[node][lo + 1 : steps + 1])
                continue
            modem, state, _, pairs, links = modems[node]
            iota_w, repro_u = modem.window(t0, t1, state,
                                           {pair: window_sources[pair] for pair in pairs},
                                           {lk: late[lk] for lk in links})
            if iota_w is not None:
                iota[node, 1 : steps + 1] = iota_w
            repro_w.update(repro_u)
        consume(t0, repro_w, window_sources)

    telemetry = {v.user: v.telemetry for _, _, v, *_ in modems.values() if v.telemetry}
    return Trajectory(telemetry=telemetry, horizon=T, lanes=B)
