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
modems' wiring, and ``separate`` tests every reproduced pair not a target.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .codec import CHANNEL_EMBEDDING, Codebook, RatePlan, zipf_message_pmf
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
from .probcore import (
    Pmf,
    RandomnessHandle,
    _goodness_of_fit_p,
    sample_iid,
    two_sample_test,
)
from .ratedist import (
    DistortionBudget,
    DistortionMetric,
    InfeasibleDistortionError,
    blahut_arimoto,
    hamming_metric,
    rd_sweep,
)
from .separation import (
    MIN_TRIALS,
    GuaranteeReport,
    PairTarget,
    PlanInfeasible,
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
    """``value`` as a float, and not a bool, which YAML reads from
    ``true`` and ``false``."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


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


def _block_lengths(value) -> list:
    lengths = [_at_least(1)(k) for k in value]
    if not lengths:
        raise ValueError("need at least one block length")
    return lengths


def _target(entry, system: NetworkSystem) -> tuple:
    """One ``targets`` entry: its PairTarget and the block lengths it runs at."""
    t = _section("targets", entry, _KEYS["targets"])
    pair = _get(t, "targets.pair", _ints)
    if pair not in system.latency_map:
        raise ConfigError(f"targets.pair: {list(pair)} has no source or no modem reproducing it")
    source = system.sources[pair]
    size = source.alphabet.size
    lengths = _get(t, "targets.block_lengths", _block_lengths, [system.block_length])
    metric = _get(t, "targets.metric", lambda v: _metric(v, size), hamming_metric(size))
    # R(D) of the pair's source is defined only from its d_min on
    floor = _at_least(metric.d_min(source), _float)
    level, level_prime = _get(t, "targets.D", floor), _get(t, "targets.D_prime", floor)
    psi, alpha = _get(t, "targets.psi", _positive, None), _get(t, "targets.alpha", _positive, None)
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
        grid=_get(r, "rd.grid", lambda v: tuple(_float(level) for level in v)),
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
    untouched: tuple  # noninterference pairs: every reproduced pair not a target
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
            # a target's law changes by design, so testing it for
            # interference would detect the separation itself
            untouched=tuple(sorted(set(system.latency_map) - set(pairs))),
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
    """Rate-distortion sweep; writes (D, R_bits, slope, iterations,
    converged) CSV rows, reporting infeasible grid values without dying."""
    t0 = time.perf_counter()
    rd = config.rd
    if rd is None:
        raise ConfigError("missing 'rd' section (source, metric, grid)")
    rows = []
    notes = []
    for level in rd.grid:
        try:
            pt = blahut_arimoto(rd.source, rd.metric, level, tol=rd.tol)
            rows.append([pt.distortion, pt.rate, pt.lagrange_s, pt.iterations, pt.converged])
        except InfeasibleDistortionError as exc:
            rows.append([level, math.nan, math.nan, 0, False])
            notes.append(str(exc))
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
    the other pairs go on."""
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
        if config.untouched and separated:
            results = verify_noninterference(
                system,
                current,
                config.untouched,
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

def _suite_probcore(root: RandomnessHandle) -> dict:
    pmf = Pmf.from_probs([0.3, 0.7])
    reps, passed = 30, 0
    for k in range(reps):
        a = sample_iid(pmf, 20_000, root.derive("cal_a", k))
        b = sample_iid(pmf, 20_000, root.derive("cal_b", k))
        r1, r2 = two_sample_test(a, b, 2, 1), two_sample_test(a, b, 2, 2)
        passed += int(r1.p_value > 0.01 and r2.p_value > 0.01)
    ok = passed >= math.floor(0.9 * reps)
    s = sample_iid(pmf, 1000, root.derive("ident"))
    ident = two_sample_test(s, s, 2)
    ok = ok and ident.statistic == 0.0 and ident.p_value == 1.0
    return {"ok": ok, "detail": f"calibration {passed}/{reps}, identical-seq p={ident.p_value}"}


def _suite_ratedist() -> dict:
    h2 = lambda x: -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    src = Pmf.from_probs([0.5, 0.5])
    metric = hamming_metric(2)
    worst = 0.0
    for d in np.arange(0.05, 0.46, 0.05):
        pt = blahut_arimoto(src, metric, float(d), tol=1e-6)
        worst = max(worst, abs(pt.rate - (1 - h2(float(d)))))
    tern = blahut_arimoto(Pmf.uniform(3), hamming_metric(3), 0.1, tol=1e-6)
    tern_err = abs(tern.rate - (math.log2(3) - h2(0.1) - 0.1))
    pts = rd_sweep(src, metric, np.arange(0.05, 0.46, 0.05))
    rates = [p.rate for p in pts]
    second = np.diff(rates, 2)
    ok = worst < 1e-4 and tern_err < 1e-3 and second.min() >= -1e-6
    return {"ok": ok, "detail": f"binary err {worst:.2e}, ternary err {tern_err:.2e}"}


def _suite_codec(root: RandomnessHandle) -> dict:
    pmf = Pmf.from_probs([0.5, 0.5])
    plan = RatePlan(n=64, n_prime=48, level=0.125, level_prime=0.2,
                    rate_at_level=0.4564355568, rate_at_level_prime=0.2780719051,
                    psi=0.25, alpha=0.15)
    # the whole |Cc|-row codebook, not only the rows a separated pair draws
    cb = Codebook.generate(CHANNEL_EMBEDDING, pmf, plan.n, plan.channel_cardinality,
                           root.derive("cb"))
    gen = root.derive("msgs").generator()
    oks = []
    for name, probs in (("uniform", None), ("zipf", zipf_message_pmf(cb.cardinality, 0.5).probs)):
        msgs = gen.choice(cb.cardinality, size=2000, p=probs)
        pooled = cb.rows(msgs).reshape(-1)
        counts = np.bincount(pooled, minlength=2)
        oks.append(_goodness_of_fit_p(counts, pmf.probs) > 0.01)
    # the regeneration is compared by digest, so one table is held at a time
    spec, digest = cb.spec(), hashlib.sha256(cb.table).digest()
    del cb
    regen_ok = hashlib.sha256(Codebook.from_spec(spec).table).digest() == digest
    ok = regen_ok and all(oks)
    return {"ok": ok, "detail": f"regen={regen_ok}, gof pass={oks}"}


class _PoisonMedium(MediumKernel):
    """Two-user medium whose dynamic surface explodes on touch: planning and
    applying a separation must never reach it."""

    def __init__(self):
        super().__init__(2, {(0, 1): (np.eye(2), (), None)})

    def start(self, lanes, seeds):
        raise AssertionError("separation transformer touched the medium")

    def window(self, *args, **kwargs):
        raise AssertionError("separation transformer touched the medium")


def _suite_separation(root: RandomnessHandle) -> dict:
    pmf = Pmf.from_probs([0.5, 0.5])
    metric = hamming_metric(2)
    system = NetworkSystem(
        medium=_PoisonMedium(),
        modems=(PassthroughModem(0, send_pair=(0, 1)),
                PassthroughModem(1, recv_pairs=[(0, 1)])),
        sources={(0, 1): pmf},
        block_length=32,
    )
    guar = GuaranteeReport((0, 1), 0.125, 0.05, 0.01, 1000, 32, 50)
    target = PairTarget((0, 1), metric, 0.125, 0.2, n=32)
    plan = plan_separation(system, guar, target, root.derive("common"))
    after = apply_separation(system, plan)
    locality = after.modems[0].inner is system.modems[0] and after.medium is system.medium
    strict = False
    try:
        plan_separation(
            system, guar,
            PairTarget((0, 1), metric, 0.125, 0.125, n=32), root.derive("c2"),
        )
    except PlanInfeasible:
        strict = True
    return {"ok": locality and strict, "detail": f"locality={locality}, strictness={strict}"}


def _suite_negative_control(config: ExperimentConfig, root: RandomnessHandle) -> dict:
    # Wrong generation law on an interference medium must be DETECTED by the
    # noninterference tests; detection is the expected outcome.
    system = config.system
    if not config.targets:
        return {"ok": True, "detail": "skipped: no targets in config", "expected_fail": False}
    if not config.untouched:
        return {"ok": True, "detail": "skipped: no untouched pairs", "expected_fail": False}
    small = dataclasses.replace(config.targets[0], n=32)
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
        system, after, config.untouched, 3000, root.derive("nc_ni"), repetitions=1
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
    """Run the invariant suites; returns (record, all_ok)."""
    t0 = time.perf_counter()
    root = RandomnessHandle(_seed_root(config, seed))
    suites = {
        "probcore_calibration": lambda: _suite_probcore(root.derive("s1")),
        "ratedist_oracles": lambda: _suite_ratedist(),
        "codec_distribution": lambda: _suite_codec(root.derive("s3")),
        "separation_locality": lambda: _suite_separation(root.derive("s4")),
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
