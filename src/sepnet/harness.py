"""Experiment orchestration: configs, commands, and result persistence.

A single YAML config describes the network, sources, budgets, and the set
of pairs to transform. Every config key is checked at load: the parse in
``ExperimentConfig.from_dict`` reads each key once, names any bad, missing
or unknown key in a ConfigError, and keeps the parsed values, which are all
the commands read. Configs are hashed over their canonical JSON form,
so the digest is stable under key reordering; every stochastic estimate in
a result record is a pure function of (config digest, seed root) and the
trial count, which ``--trials`` (``trials=``) changes without moving either,
so each measured guarantee in a payload records its ``trials``.

The ``medium`` section is one list, ``links``; each entry names its link by
``src`` and ``dst`` and gives one ``MediumKernel`` link in one of six forms:

- ``flip: q``: a binary symmetric channel that flips with probability q;
- ``matrix: M``: a stochastic matrix, row x read at sender input x;
- ``watch: w, flips: [q_0, ...]``: flip probability q_a at user w's input a;
- ``watch: w, matrices: [M_0, ...]``: matrix M_a at user w's input a;
- ``gilbert_elliott: {flip_good, ...}``: ``gilbert_elliott_link``'s link;
- ``transition: T, emission: E, initial: s``: state chain T from s, emitting E.

Each ``targets`` entry gives one ``PairTarget``, from these keys:

- ``pair``, ``D``, ``D_prime``: the pair and its levels (required);
- ``metric``: ``hamming`` (the default) or a distortion table;
- ``block_lengths``: the channel block lengths n that ``separate`` runs
  at, default ``[block_length]``;
- ``n_prime_ratio``: n'/n, 0 < ratio <= 1, default 1; at each n the
  source blocks are n' = max(1, round(ratio * n)) symbols;
- ``psi``, ``alpha``: the rate plan's slacks; ``psi`` is required where
  the ratio is below 1;
- ``decode_rule``: ``within_d`` (the default) or ``argmin``.

No key gives a pair's latency or the pairs the noninterference test
covers: the system works out each reproduced pair's latency from the
modems' wiring, and ``separate`` tests every reproduced pair it did not
separate.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .codec import Codebook
from .netmodel import (
    ForwardRelayModem,
    MarkovLinkRule,
    MediumKernel,
    NetworkSystem,
    PassthroughModem,
    bsc_matrix,
    gilbert_elliott_link,
    rollout,
)
from .probcore import Pmf, RandomnessHandle
from .ratedist import DistortionBudget, DistortionMetric, hamming_metric, rd_sweep
from .separation import (
    MIN_TRIALS,
    GuaranteeReport,
    PairTarget,
    apply_separation,
    measure_end_to_end,
    plan_separation,
    separate_network,
    verify_noninterference,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRecord",
    "cmd_baseline",
    "cmd_rd",
    "cmd_separate",
    "cmd_verify",
    # bound here, unused, so that bench/tests can check that its tracer
    # wraps every module's binding of the rollout
    "rollout",
]


class ConfigError(ValueError):
    """Config failed validation; the message names the offending key."""


# Each form of a ``medium.links`` entry: the key that names it, and the
# keys it may give besides ``src`` and ``dst``.
_LINK_FORMS = {
    "flip": ("flip",),
    "matrix": ("matrix",),
    "flips": ("watch", "flips"),
    "matrices": ("watch", "matrices"),
    "gilbert_elliott": ("gilbert_elliott",),
    "transition": ("transition", "emission", "initial"),
}

# Every key the parse reads, by section (and by kind, where the section has
# kinds); any other key is a ConfigError.
_KEYS = {
    "config": ("name", "users", "seed", "medium", "modems", "sources", "block_length",
               "warmup", "trials", "separate_trials", "recheck_trials", "targets", "rd",
               "noninterference"),
    "medium": ("links",),
    "medium.links": ("src", "dst", *dict.fromkeys(k for ks in _LINK_FORMS.values() for k in ks)),
    "medium.links.gilbert_elliott": ("flip_good", "flip_bad", "p_good_to_bad",
                                     "p_bad_to_good", "initial"),
    "modems": {"passthrough": ("user", "kind", "send", "recv", "recv_links"),
               "relay": ("user", "kind", "in_link")},
    "modems.recv_links": ("pair", "link"),
    "sources": ("src", "dst", "probs"),
    "targets": ("pair", "metric", "D", "D_prime", "block_lengths", "n_prime_ratio", "psi",
                "alpha", "decode_rule"),
    "rd": ("source", "metric", "grid", "tol"),
    "noninterference": ("trials_blocks", "repetitions"),
}
# libyaml's safe loader when pyyaml was built with it (5-10x faster to parse
# a config), else the pure-Python one; both give the same dict.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_REQUIRED = object()


def _checked(key: str, build):
    """Run a config builder; its errors become a ConfigError naming ``key``."""
    try:
        return build()
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{key}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:  # WiringError is a ValueError
        raise ConfigError(f"{key}: {exc}") from exc


def _section(where: str, value, accepted) -> dict:
    """``value`` as a mapping whose keys are all in ``accepted``; ``where``
    is the section's key, empty at the top level."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'config root'} must be a mapping")
    unknown = [f"{where}.{key}" if where else key for key in value if key not in accepted]
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}")
    return value


def _keyed(where: str, entries, key, value) -> dict:
    """``{key(e): value(e)}`` over the list of entries at ``where``, each a
    mapping of keys accepted there; a key listed twice is a ConfigError."""
    out = {}
    for entry in entries:
        k = key(_section(where, entry, _KEYS[where]))
        if k in out:
            raise ConfigError(f"{where}: {k} is listed twice")
        out[k] = value(entry)
    return out


def _int(value) -> int:
    """``value`` as an int: an integral number, and not a bool, which
    YAML reads from ``true`` and ``false``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _float(value) -> float:
    """``value`` as a finite float, not YAML's ``.nan`` or ``.inf``, and
    not a bool, which YAML reads from ``true`` and ``false``."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{value!r} is not a number")
    number = float(value)
    if not np.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def _floats(value) -> np.ndarray:
    """``value``, a number or nested lists of numbers, as a float array;
    a bool anywhere in it is rejected as ``_float`` rejects one, where
    ``np.asarray`` would read it as 1.0 or 0.0."""
    def walk(v):
        return [walk(e) for e in v] if isinstance(v, (list, tuple)) else _float(v)

    return np.asarray(walk(value), dtype=np.float64)


def _src_dst(entry: dict) -> tuple:
    return _int(entry["src"]), _int(entry["dst"])


def _ints(value) -> tuple:
    return tuple(_int(v) for v in value)


def _get(entry: dict, name: str, parse, default=_REQUIRED):
    """``parse`` of the value at the key ``name`` (the last dotted part is
    its key in ``entry``), or ``default`` when the key is absent; a bad or
    missing required value is a ConfigError naming ``name``."""
    key = name.rpartition(".")[2]
    if key not in entry:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{name}'")
        return default
    return _checked(name, lambda: parse(entry[key]))


def _at_least(floor, parse=_int):
    """Parser of a value, read by ``parse``, that must be >= ``floor``."""
    def parse_floored(value):
        if not parse(value) >= floor:
            raise ValueError(f"{value} is below the floor of {floor}")
        return parse(value)

    return parse_floored


def _positive(value) -> float:
    if not _float(value) > 0:
        raise ValueError(f"{value} is not positive")
    return _float(value)


def _sources(entries, users: int) -> dict:
    out = _keyed("sources", entries, _src_dst, lambda s: Pmf.from_probs(_floats(s["probs"])))
    for i, j in out:
        if not (0 <= i < users and 0 <= j < users) or i == j:
            raise ValueError(f"pair ({i},{j}) is invalid for {users} users")
    if not out:
        raise ValueError("need at least one source pair")
    return out


def _metric(spec, size: int) -> DistortionMetric:
    if spec == "hamming" or spec is None:
        return hamming_metric(size)
    return DistortionMetric(
        hamming_metric(size).source_alphabet,
        hamming_metric(size).repro_alphabet,
        _floats(spec),
    )


def _link(e: dict) -> tuple:
    """One ``medium.links`` entry as a ``MediumKernel`` link (table,
    watched, rule); it gives the keys of exactly one of ``_LINK_FORMS``."""
    forms = [form for form in _LINK_FORMS if form in e]
    if len(forms) != 1:
        raise ConfigError(f"medium.links: link {_src_dst(e)} gives {forms}, needs exactly "
                          f"one of {list(_LINK_FORMS)}")
    form = forms[0]
    others = [k for k in e if k not in ("src", "dst", *_LINK_FORMS[form])]
    if others:
        raise ConfigError(f"medium.links: '{form}' excludes {others}")
    watched = (_int(e["watch"]),) if form in ("flips", "matrices") else ()
    if form == "flip":
        return bsc_matrix(_float(e["flip"])), (), None
    if form == "flips":
        return np.stack([bsc_matrix(_float(q)) for q in e["flips"]]), watched, None
    if form in ("matrix", "matrices"):
        return _floats(e[form]), watched, None
    if form == "gilbert_elliott":
        ge = _section("medium.links.gilbert_elliott", e["gilbert_elliott"],
                      _KEYS["medium.links.gilbert_elliott"])
        flips_and_switches = ("flip_good", "flip_bad", "p_good_to_bad", "p_bad_to_good")
        return gilbert_elliott_link(*(_float(ge[k]) for k in flips_and_switches),
                                    _int(ge.get("initial", 0)))
    rule = MarkovLinkRule(_floats(e["transition"]), _int(e.get("initial", 0)))
    return _floats(e["emission"]), (), rule


def _medium(med: dict, users: int) -> MediumKernel:
    links = _section("medium", med, _KEYS["medium"])["links"]
    return MediumKernel(users, _keyed("medium.links", links, _src_dst, _link))


def _modems(entries) -> tuple:
    modems = []
    for e in entries:
        user = _int(e["user"])
        kind = e.get("kind", "passthrough")
        if kind not in _KEYS["modems"]:
            raise ConfigError(f"modems.kind '{kind}' unknown")
        _section("modems", e, _KEYS["modems"][kind])
        if kind == "relay":
            modems.append(ForwardRelayModem(user, _ints(e["in_link"])))
            continue
        send = _ints(e["send"]) if "send" in e else None
        recv = [_ints(p) for p in e.get("recv", [])]
        links = _keyed("modems.recv_links", e.get("recv_links", []),
                       lambda o: _ints(o["pair"]), lambda o: _ints(o["link"]))
        modems.append(PassthroughModem(user, send_pair=send, recv_pairs=recv, recv_links=links))
    return tuple(modems)


def _nonempty(parse, what: str):
    """Parser of a nonempty list of values, each read by ``parse``."""
    def parse_list(value):
        values = [parse(v) for v in value]
        if not values:
            raise ValueError(f"need at least one {what}")
        return values

    return parse_list


def _target(entry, system: NetworkSystem) -> tuple:
    """One ``targets`` entry: its PairTarget and the block lengths it runs at."""
    t = _section("targets", entry, _KEYS["targets"])
    pair = _get(t, "targets.pair", _ints)
    if pair not in system.latency_map:
        raise ConfigError(f"targets.pair: {list(pair)} has no source or no modem reproducing it")
    source = system.sources[pair]
    size = source.alphabet.size
    lengths = _get(t, "targets.block_lengths", _nonempty(_at_least(1), "block length"),
                   [system.block_length])
    metric = _get(t, "targets.metric", lambda v: _metric(v, size), hamming_metric(size))
    # R(D) of the pair's source is defined only from its d_min on
    floor = _at_least(metric.d_min(source), _float)
    level, level_prime = _get(t, "targets.D", floor), _get(t, "targets.D_prime", floor)
    psi, alpha = _get(t, "targets.psi", _positive, None), _get(t, "targets.alpha", _positive, None)
    # R(D) <= H(X), so a channel rate R(D) - alpha needs alpha below H(X)
    probs = source.probs[source.probs > 0]
    entropy = float(-(probs * np.log2(probs)).sum())
    if alpha is not None and alpha >= entropy:
        raise ConfigError(f"targets.alpha: {alpha} is at least H(X) = {entropy:.6g} bits of "
                          f"pair {list(pair)}'s source, which bounds R(D), so the channel "
                          f"rate R(D) - alpha could never be positive")
    ratio = _get(t, "targets.n_prime_ratio", _float, 1.0)
    rule = _get(t, "targets.decode_rule", str, "within_d")
    # PairTarget names the field it rejects first in its message
    try:
        target = PairTarget(pair, metric, level, level_prime, lengths[0], ratio, psi, alpha, rule)
    except ValueError as exc:
        raise ConfigError(f"targets.{exc}") from exc
    return target, lengths


@dataclass(frozen=True)
class RdSweep:
    """The ``rd`` section: the levels to solve R(D) at for one source."""

    source: Pmf
    metric: DistortionMetric
    grid: tuple  # of float levels
    tol: float


def _rd(entry) -> RdSweep:
    r = _section("rd", entry, _KEYS["rd"])
    source = _get(r, "rd.source", lambda v: Pmf.from_probs(_floats(v)))
    size = source.alphabet.size
    return RdSweep(
        source=source,
        metric=_get(r, "rd.metric", lambda v: _metric(v, size), hamming_metric(size)),
        grid=tuple(_get(r, "rd.grid", _nonempty(_float, "level"))),
        tol=_get(r, "rd.tol", _positive, 1e-6),
    )


def _canonical_digest(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment description parsed once, plus its canonical digest.

    ``from_dict`` reads every key of ``data`` exactly once and keeps the
    results here; the commands read these fields, never ``data``.
    """

    data: dict
    digest: str
    name: str | None
    seed: int
    system: NetworkSystem
    targets: tuple  # PairTarget per ``targets`` entry
    block_lengths: tuple  # the block lengths every target runs at
    trials: int  # baseline
    separate_trials: int
    recheck_trials: int
    ni_trials_blocks: int
    ni_repetitions: int
    rd: RdSweep | None
    path: str | None = None

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        path = Path(path)
        try:
            data = yaml.load(path.read_text(), Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
        return cls.from_dict(data, path=str(path))

    @classmethod
    def from_dict(cls, data: dict, path: str | None = None) -> "ExperimentConfig":
        """Parse ``data``; a bad, missing or unknown key is a ConfigError
        naming it."""
        d = _section("", data, _KEYS["config"])
        users = _get(d, "users", _int)
        block_length = _get(d, "block_length", _at_least(1))
        sources = _get(d, "sources", lambda v: _sources(v, users))
        medium = _get(d, "medium", lambda v: _medium(v, users))
        modems = _get(d, "modems", _modems)
        warmup = _get(d, "warmup", _at_least(0), 8)
        # building the system checks every modem's wiring and times each pair
        system = _checked("modems", lambda: NetworkSystem(
            medium, modems, sources, block_length, warmup))
        parsed = [_target(t, system) for t in _get(d, "targets", list, [])]
        targets = tuple(target for target, _ in parsed)
        pairs = [target.pair for target in targets]
        if len(set(pairs)) != len(pairs):
            raise ConfigError(f"targets: pairs {pairs} are not distinct")
        # separate runs every target at the first target's block lengths
        lengths = [ls for _, ls in parsed]
        if any(ls != lengths[0] for ls in lengths):
            raise ConfigError(f"targets: block lengths {lengths} differ between targets")
        ni = _section("noninterference", d.get("noninterference", {}),
                      _KEYS["noninterference"])
        return cls(
            data=data,
            digest=_canonical_digest(data),
            name=_get(d, "name", str, None),
            seed=_get(d, "seed", _int, 0),
            system=system,
            targets=targets,
            block_lengths=tuple(lengths[0]) if lengths else (),
            trials=_get(d, "trials", _at_least(MIN_TRIALS), 10_000),
            separate_trials=_get(d, "separate_trials", _at_least(MIN_TRIALS), 3000),
            recheck_trials=_get(d, "recheck_trials", _at_least(MIN_TRIALS), 2000),
            ni_trials_blocks=_get(ni, "noninterference.trials_blocks",
                                  _at_least(MIN_TRIALS), 2000),
            ni_repetitions=_get(ni, "noninterference.repetitions", _at_least(1), 1),
            rd=_get(d, "rd", _rd, None),
            path=path,
        )

    def build_system(self) -> NetworkSystem:
        """The system the config describes, built once at load."""
        return self.system


@dataclass
class ResultRecord:
    """One experiment's outputs.

    ``payload`` is the reproducible part: identical (config digest, seed
    root, trials) must reproduce it bit-exactly; ``--trials`` (``trials=``)
    moves neither ``config_digest`` nor ``seed_root``, so each measured
    guarantee in it records its ``trials``. Wall-clock and ids are volatile.
    """

    experiment_id: str
    command: str
    config_digest: str
    seed_root: int
    payload: dict
    wall_clock_s: float = 0.0
    schema: int = 1

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    def save(self, out_dir) -> Path:
        out = Path(out_dir) / self.experiment_id
        out.mkdir(parents=True, exist_ok=True)
        path = out / "record.json"
        path.write_text(self.to_json())
        return path


def _allocate_experiment_id(out_dir, command: str, digest: str, overwrite: bool) -> str:
    base = f"{command}-{digest[:8]}"
    out = Path(out_dir)
    if overwrite:
        return f"{base}-000"
    k = 0
    while (out / f"{base}-{k:03d}").exists():
        k += 1
    return f"{base}-{k:03d}"


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _seed_root(config: ExperimentConfig, seed: int | None) -> int:
    return seed if seed is not None else config.seed


def _save_record(config: ExperimentConfig, out_dir, command: str, seed: int | None,
                 overwrite: bool, t0: float, payload: dict) -> tuple[ResultRecord, Path]:
    """Build the command's record, timed from ``t0`` (a
    ``time.perf_counter`` reading, which a step of the system clock does
    not move), and save it; returns the record and its directory."""
    record = ResultRecord(
        experiment_id=_allocate_experiment_id(out_dir, command, config.digest, overwrite),
        command=command,
        config_digest=config.digest,
        seed_root=_seed_root(config, seed),
        payload=payload,
        wall_clock_s=time.perf_counter() - t0,
    )
    return record, record.save(out_dir).parent


def _guarantee_payload(report: GuaranteeReport) -> dict:
    return {**dataclasses.asdict(report), "pair": list(report.pair)}


def cmd_rd(config: ExperimentConfig, out_dir, seed: int | None = None,
           overwrite: bool = False) -> ResultRecord:
    """Rate-distortion sweep by ``rd_sweep``, which checks that the curve
    is nonincreasing and convex; writes (D, R_bits, slope, iterations,
    converged) CSV rows in the grid's order. A level below the metric's
    d_min gives the row (D, NaN, NaN, 0, False) and a note, and the sweep
    goes on."""
    t0 = time.perf_counter()
    rd = config.rd
    if rd is None:
        raise ConfigError("missing 'rd' section (source, metric, grid)")
    points, notes = rd_sweep(rd.source, rd.metric, rd.grid, tol=rd.tol)
    rows = [[pt.distortion, pt.rate, pt.lagrange_s, pt.iterations, pt.converged]
            for pt in points]
    record, out = _save_record(
        config, out_dir, "rd", seed, overwrite, t0, {"rows": rows, "notes": notes}
    )
    _write_csv(
        out / "rd_sweep.csv",
        ["D", "R_bits", "slope", "iterations", "converged"],
        rows,
    )
    return record


def cmd_baseline(config: ExperimentConfig, out_dir, seed: int | None = None,
                 overwrite: bool = False, trials: int | None = None) -> ResultRecord:
    """Measure the untransformed system's excess-distortion guarantee for
    each target pair at its level D."""
    t0 = time.perf_counter()
    if not config.targets:
        raise ConfigError("targets: baseline needs at least one target pair")
    system = config.system
    root = RandomnessHandle(_seed_root(config, seed))
    trials = int(trials if trials is not None else config.trials)
    payload = {"pairs": {}}
    for target in config.targets:
        budget = DistortionBudget(target.level, target.metric)
        report = measure_end_to_end(
            system,
            target.pair,
            budget,
            trials,
            root.derive("baseline", *target.pair),
            block_length=system.block_length,
        )
        payload["pairs"][str(list(target.pair))] = _guarantee_payload(report)
    record, out = _save_record(config, out_dir, "baseline", seed, overwrite, t0, payload)
    _write_csv(
        out / "baseline.csv",
        ["pair", "D", "epsilon_hat", "half_width", "trials", "block_length"],
        [
            [k, v["level"], v["epsilon_hat"], v["half_width"], v["trials"], v["block_length"]]
            for k, v in payload["pairs"].items()
        ],
    )
    return record


def cmd_separate(config: ExperimentConfig, out_dir, seed: int | None = None,
                 overwrite: bool = False, trials: int | None = None) -> ResultRecord:
    """Plan, apply, and verify the transformation for every target pair
    across the configured block lengths. A pair with no feasible plan is
    recorded under its own key in the run's ``infeasible`` and left plain;
    the other pairs go on. The noninterference test covers every
    reproduced pair that the run did not separate, infeasible ones too."""
    t0 = time.perf_counter()
    if not config.targets:
        raise ConfigError("targets: separate needs at least one target pair")
    system = config.system
    root = RandomnessHandle(_seed_root(config, seed))
    common = root.derive("common-randomness")
    trials = int(trials if trials is not None else config.separate_trials)
    payload = {"runs": [], "trend_rows": []}
    for n in config.block_lengths:
        sized = [dataclasses.replace(t, n=n) for t in config.targets]
        current, steps = separate_network(
            system,
            sized,
            root.derive("sep", n),
            common,
            recheck_trials=config.recheck_trials,
        )
        run = {"n": n, "pairs": {}, "steps": [], "infeasible": {}}
        separated = []
        for target, step in zip(sized, steps):
            if step.infeasible:
                run["infeasible"][str(list(step.pair))] = step.infeasible
                continue
            separated.append(target)
            run["steps"].append(
                {"pair": list(step.pair), "plan": step.plan_summary, "rechecks":
                 {str(list(k)): v for k, v in step.rechecks.items()}})
        for target in separated:
            budget = DistortionBudget(target.level_prime, target.metric)
            report = measure_end_to_end(
                current, target.pair, budget, trials, root.derive("measure", n, *target.pair)
            )
            stats = _guarantee_payload(report)
            run["pairs"][str(list(target.pair))] = stats
            payload["trend_rows"].append(
                [n, str(list(target.pair)), stats["epsilon_hat"], stats["half_width"],
                 stats.get("xi_hat", ""), stats.get("eta_hat", ""), stats["trials"]]
            )
        # a separated pair's law changes by design, so testing it for
        # interference would detect the separation itself
        others = sorted(set(system.latency_map) - {target.pair for target in separated})
        if separated and others:
            results = verify_noninterference(
                system,
                current,
                others,
                config.ni_trials_blocks,
                root.derive("ni", n),
                repetitions=config.ni_repetitions,
            )
            run["noninterference"] = {
                str(list(pair)): {
                    "p_order1": res.p_order1.tolist(),
                    "p_order2": res.p_order2.tolist(),
                    "p_joint": res.p_joint.tolist(),
                    "tv_repro": res.tv_repro,
                    "tv_joint": res.tv_joint,
                    "stream_pass_fraction": res.stream_pass_fraction,
                }
                for pair, res in results.items()
            }
        payload["runs"].append(run)
    record, out = _save_record(config, out_dir, "separate", seed, overwrite, t0, payload)
    _write_csv(
        out / "separation_trend.csv",
        ["n", "pair", "excess_prob", "half_width", "xi_hat", "eta_hat", "trials"],
        payload["trend_rows"],
    )
    return record


# --- verify suites ----------------------------------------------------------

def _suite_negative_control(config: ExperimentConfig, root: RandomnessHandle) -> dict:
    # Wrong generation law on an interference medium must be DETECTED by the
    # noninterference tests of every other reproduced pair; detection is the
    # expected outcome.
    system = config.system
    if not config.targets:
        return {"ok": True, "detail": "skipped: no targets in config", "expected_fail": False}
    small = dataclasses.replace(config.targets[0], n=32)
    others = sorted(set(system.latency_map) - {small.pair})
    if not others:
        return {"ok": True, "detail": "skipped: no reproduced pair but the target",
                "expected_fail": False}
    budget = DistortionBudget(small.level, small.metric)
    guar = measure_end_to_end(
        system, small.pair, budget, 1000, root.derive("nc_base"), block_length=32
    )
    wrong_pmf = Pmf.from_probs([0.8, 0.2])
    plan = plan_separation(system, guar, small, root.derive("nc_common"))
    # rebuild the channel codebook with the wrong marginal
    cb = plan.channel_cb
    bad_cb = Codebook.generate(cb.kind, wrong_pmf, cb.n, cb.cardinality, cb.common_seed)
    after = apply_separation(system, dataclasses.replace(plan, channel_cb=bad_cb))
    results = verify_noninterference(
        system, after, others, 3000, root.derive("nc_ni"), repetitions=1
    )
    min_p = min(res.min_joint_p for res in results.values())
    detected = min_p < 1e-4
    return {
        "ok": detected,
        "detail": f"wrong-pmf control min joint p = {min_p:.2e} (want < 1e-4)",
        "expected_fail": True,
    }


def cmd_verify(config: ExperimentConfig, out_dir, seed: int | None = None,
               overwrite: bool = False) -> tuple[ResultRecord, bool]:
    """Run the suites that read the config, today the wrong-law negative
    control; returns (record, all_ok). The library's fixed-input checks
    are Tier-1 tests."""
    t0 = time.perf_counter()
    root = RandomnessHandle(_seed_root(config, seed))
    suites = {
        "negative_control": lambda: _suite_negative_control(config, root.derive("s5")),
    }
    results = {}
    all_ok = True
    for name, fn in suites.items():
        try:
            res = fn()
        except Exception as exc:  # a crashed suite is a failed suite
            res = {"ok": False, "detail": f"error: {exc!r}"}
        status = "PASS" if res["ok"] else "FAIL"
        if res.get("expected_fail") and res["ok"]:
            status = "EXPECTED-FAIL"
        results[name] = {"status": status, "detail": res["detail"]}
        all_ok = all_ok and res["ok"]
        print(f"{status:>13}  {name}: {res['detail']}")
    payload = {"suites": results}
    return _save_record(config, out_dir, "verify", seed, overwrite, t0, payload)[0], all_ok
