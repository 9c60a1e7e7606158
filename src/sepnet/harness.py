"""Experiment orchestration: configs, commands, and result persistence.

A single YAML config describes the network, sources, budgets, and the set
of pairs to transform. Configs are hashed over their canonical JSON form,
so the digest is stable under key reordering; every stochastic estimate in
a result record is a pure function of (config digest, seed root).
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

from .codec import Codebook, build_channel_codebook, RatePlan, zipf_message_pmf
from .netmodel import (
    ForwardRelayModem,
    CoupledDmcMedium,
    DmcMedium,
    GuaranteeReport,
    MarkovLinkRule,
    NetworkSystem,
    PassthroughModem,
    gilbert_elliott_rule,
    make_markov_medium,
    rollout,
)
from .probcore import (
    Pmf,
    RandomnessHandle,
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
    PairTarget,
    PlanInfeasible,
    SeparationSendModem,
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
]


class ConfigError(ValueError):
    """Config failed validation; the message names the offending key."""


def _bsc(q: float) -> np.ndarray:
    return np.array([[1.0 - q, q], [q, 1.0 - q]])


def _link_matrix(entry: dict) -> np.ndarray:
    if "flip" in entry:
        return _bsc(float(entry["flip"]))
    if "matrix" in entry:
        return np.asarray(entry["matrix"], dtype=np.float64)
    raise ConfigError(f"link {entry}: need 'flip' or 'matrix'")


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


def _pair(key: str, get) -> tuple:
    """The [src, dst] pair ``get()`` reads from a config entry, as ints; a
    bad entry becomes a ConfigError naming ``key``."""
    return _checked(key, lambda: tuple(int(v) for v in get()))


def _canonical_digest(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus its canonical digest."""

    data: dict
    digest: str
    path: str | None = None

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        path = Path(path)
        try:
            data = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
        return cls.from_dict(data, path=str(path))

    @classmethod
    def from_dict(cls, data: dict, path: str | None = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        cfg = cls(data=data, digest=_canonical_digest(data), path=path)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check the keys, then build the medium, the wired system and the
        targets as the commands do, so that a bad value fails here."""
        d = self.data
        for key in ("users", "medium", "sources", "modems", "block_length"):
            if key not in d:
                raise ConfigError(f"missing required key '{key}'")
        users = _checked("users", lambda: int(d["users"]))
        _checked("block_length", lambda: int(d["block_length"]))
        pairs = set(_checked("sources", self.source_pmfs))
        for (i, j) in pairs:
            if not (0 <= i < users and 0 <= j < users) or i == j:
                raise ConfigError(f"sources: pair ({i},{j}) is invalid for {users} users")
        targets = [_pair("targets.pair", lambda: t["pair"]) for t in d.get("targets", [])]
        for pair in targets:
            if pair not in pairs:
                raise ConfigError(f"targets: pair {list(pair)} has no source entry")
        if len(set(targets)) != len(targets):
            raise ConfigError(f"targets: pairs {targets} are not distinct")
        for p in d.get("noninterference", {}).get("untouched", []):
            if _pair("noninterference.untouched", lambda: p) not in pairs:
                raise ConfigError(f"noninterference.untouched: unknown pair {p}")
        for e in d.get("latency", []):
            if _pair("latency", lambda: (e["src"], e["dst"])) not in pairs:
                raise ConfigError(f"latency: unknown pair [{e['src']}, {e['dst']}]")
        ni = d.get("noninterference") or {}
        counts = {key: d.get(key) for key in ("trials", "separate_trials", "recheck_trials")}
        counts["noninterference.trials_blocks"] = ni.get("trials_blocks")
        for key, value in counts.items():
            if value is not None and _checked(key, lambda: int(value)) < MIN_TRIALS:
                raise ConfigError(f"{key}: {value} is below the floor of {MIN_TRIALS}")
        if _checked("noninterference.repetitions", lambda: int(ni.get("repetitions", 1))) < 1:
            raise ConfigError("noninterference.repetitions: need >= 1")
        # separate runs every target at the first target's block lengths
        lengths = [_checked("targets", lambda: self.target_block_lengths(k))
                   for k in range(len(d.get("targets", [])))]
        if any(ls != lengths[0] for ls in lengths):
            raise ConfigError(f"targets: block lengths {lengths} differ between targets")
        _checked("medium", self.build_medium)
        system = _checked("modems", self.build_system)
        for modem in system.modems:
            _checked("modems", lambda: modem.check_wiring(system))
        _checked("targets", self.targets)

    @property
    def seed(self) -> int:
        return int(self.data.get("seed", 0))

    def source_pmfs(self) -> dict:
        return {
            (int(s["src"]), int(s["dst"])): Pmf.from_probs(s["probs"])
            for s in self.data["sources"]
        }

    def metric_for(self, spec, size: int) -> DistortionMetric:
        if spec == "hamming" or spec is None:
            return hamming_metric(size)
        return DistortionMetric(
            hamming_metric(size).source_alphabet,
            hamming_metric(size).repro_alphabet,
            np.asarray(spec, dtype=np.float64),
        )

    def build_medium(self):
        med = self.data["medium"]
        users = int(self.data["users"])
        kind = med.get("kind", "dmc")
        if kind in ("dmc", "coupled_dmc"):
            mats = {
                (int(e["src"]), int(e["dst"])): _link_matrix(e) for e in med["links"]
            }
            if kind == "dmc":
                return DmcMedium(users, mats)
            coupling = {}
            for e in med.get("coupling", []):
                link = (int(e["src"]), int(e["dst"]))
                if "flips" in e:
                    stack = np.stack([_bsc(float(q)) for q in e["flips"]])
                else:
                    stack = np.asarray(e["matrices"], dtype=np.float64)
                coupling[link] = (int(e["watch"]), stack)
            return CoupledDmcMedium(users, mats, coupling)
        if kind == "markov":
            rules = {}
            for e in med["rules"]:
                link = (int(e["src"]), int(e["dst"]))
                if "gilbert_elliott" in e:
                    ge = e["gilbert_elliott"]
                    rules[link] = gilbert_elliott_rule(
                        float(ge["flip_good"]),
                        float(ge["flip_bad"]),
                        float(ge["p_good_to_bad"]),
                        float(ge["p_bad_to_good"]),
                        int(ge.get("initial", 0)),
                    )
                else:
                    rules[link] = MarkovLinkRule(
                        np.asarray(e["transition"], dtype=np.float64),
                        np.asarray(e["emission"], dtype=np.float64),
                        int(e.get("initial", 0)),
                    )
            states = int(med.get("states", 2))
            return make_markov_medium(users, states, rules)
        raise ConfigError(f"medium.kind '{kind}' unknown")

    def build_modems(self) -> tuple:
        modems = []
        for e in self.data["modems"]:
            kind = e.get("kind", "passthrough")
            user = int(e["user"])
            if kind == "passthrough":
                send = tuple(int(v) for v in e["send"]) if "send" in e else None
                recv = [tuple(int(v) for v in p) for p in e.get("recv", [])]
                links = {
                    tuple(int(v) for v in o["pair"]): tuple(int(v) for v in o["link"])
                    for o in e.get("recv_links", [])
                }
                modems.append(
                    PassthroughModem(user, send_pair=send, recv_pairs=recv, recv_links=links)
                )
            elif kind == "relay":
                modems.append(ForwardRelayModem(user, tuple(int(v) for v in e["in_link"])))
            else:
                raise ConfigError(f"modems: kind '{kind}' unknown")
        return tuple(modems)

    def build_system(self) -> NetworkSystem:
        d = self.data
        sources = self.source_pmfs()
        latency = {
            (int(e["src"]), int(e["dst"])): int(e["steps"])
            for e in d.get("latency", [])
        }
        for pair in sources:
            latency.setdefault(pair, 3)
        poi = d.get("pair_of_interest")
        poi = tuple(int(v) for v in poi) if poi else next(iter(sorted(sources)))
        return NetworkSystem(
            medium=self.build_medium(),
            modems=self.build_modems(),
            sources=sources,
            pair_of_interest=poi,
            horizon=int(d.get("horizon", 10 * int(d["block_length"]))),
            block_length=int(d["block_length"]),
            latency_map=latency,
            warmup=int(d.get("warmup", 8)),
        )

    def targets(self) -> list[PairTarget]:
        out = []
        sources = self.source_pmfs()
        for t in self.data.get("targets", []):
            pair = (int(t["pair"][0]), int(t["pair"][1]))
            size = sources[pair].alphabet.size
            metric = self.metric_for(t.get("metric", "hamming"), size)
            n = t.get("n")
            n_prime = t.get("n_prime")
            if n is not None and n_prime is None and "n_prime_ratio" in t:
                n_prime = int(round(float(t["n_prime_ratio"]) * int(n)))
            out.append(
                PairTarget(
                    pair=pair,
                    metric=metric,
                    level=float(t["D"]),
                    level_prime=float(t["D_prime"]),
                    n=int(n) if n is not None else None,
                    n_prime=int(n_prime) if n_prime is not None else None,
                    psi=float(t["psi"]) if "psi" in t else None,
                    alpha=float(t["alpha"]) if "alpha" in t else None,
                    decode_rule=t.get("decode_rule", "within_d"),
                )
            )
        return out

    def target_block_lengths(self, t_index: int = 0) -> list[int]:
        t = self.data.get("targets", [])[t_index]
        if "block_lengths" in t:
            return [int(v) for v in t["block_lengths"]]
        return [int(t.get("n", self.data["block_length"]))]


@dataclass
class ResultRecord:
    """One experiment's outputs.

    ``payload`` is the reproducible part: identical (config digest, seed
    root) must reproduce it bit-exactly. Wall-clock and ids are volatile.
    """

    experiment_id: str
    command: str
    config_digest: str
    seed_root: int
    payload: dict
    wall_clock_s: float = 0.0
    schema: int = 1

    def to_json(self) -> str:
        return json.dumps(
            dataclasses.asdict(self), sort_keys=True, indent=2, default=_json_default
        )

    def save(self, out_dir) -> Path:
        out = Path(out_dir) / self.experiment_id
        out.mkdir(parents=True, exist_ok=True)
        path = out / "record.json"
        path.write_text(self.to_json())
        return path


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


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
    """Build the command's record, timed from ``t0``, and save it; returns
    the record and its directory."""
    record = ResultRecord(
        experiment_id=_allocate_experiment_id(out_dir, command, config.digest, overwrite),
        command=command,
        config_digest=config.digest,
        seed_root=_seed_root(config, seed),
        payload=payload,
        wall_clock_s=time.time() - t0,
    )
    return record, record.save(out_dir).parent


def _guarantee_payload(report: GuaranteeReport) -> dict:
    return {**dataclasses.asdict(report), "pair": list(report.pair)}


def cmd_rd(config: ExperimentConfig, out_dir, seed: int | None = None,
           overwrite: bool = False) -> ResultRecord:
    """Rate-distortion sweep; writes (D, R_bits, slope, iterations,
    converged) CSV rows, reporting infeasible grid values without dying."""
    t0 = time.time()
    rd = config.data.get("rd")
    if rd is None:
        raise ConfigError("missing 'rd' section (source, metric, grid)")
    source = Pmf.from_probs(rd["source"])
    metric = config.metric_for(rd.get("metric", "hamming"), source.alphabet.size)
    rows = []
    notes = []
    for level in rd["grid"]:
        try:
            pt = blahut_arimoto(source, metric, float(level), tol=float(rd.get("tol", 1e-6)))
            rows.append([pt.distortion, pt.rate, pt.lagrange_s, pt.iterations, pt.converged])
        except InfeasibleDistortionError as exc:
            rows.append([float(level), math.nan, math.nan, 0, False])
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
    """Measure the untransformed system's excess-distortion guarantees."""
    t0 = time.time()
    system = config.build_system()
    root = RandomnessHandle(_seed_root(config, seed))
    trials = int(trials if trials is not None else config.data.get("trials", 10_000))
    payload = {"pairs": {}}
    for target in config.targets() or _default_targets(config, system):
        budget = DistortionBudget(target.level, target.metric)
        report = measure_end_to_end(
            system,
            target.pair,
            budget,
            trials,
            root.derive("baseline", *target.pair),
            block_length=config.data["block_length"],
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


def _default_targets(config: ExperimentConfig, system: NetworkSystem) -> list[PairTarget]:
    # Without explicit targets, measure the pair of interest under Hamming
    # at the configured default level.
    pair = system.pair_of_interest
    size = system.sources[pair].alphabet.size
    level = float(config.data.get("default_level", 0.125))
    return [
        PairTarget(pair=pair, metric=hamming_metric(size), level=level,
                   level_prime=min(2 * level, 0.49))
    ]


def cmd_separate(config: ExperimentConfig, out_dir, seed: int | None = None,
                 overwrite: bool = False, trials: int | None = None) -> ResultRecord:
    """Plan, apply, and verify the transformation for every target pair
    across the configured block lengths."""
    t0 = time.time()
    targets = config.targets()
    if not targets:
        return _separate_noop(config, out_dir, seed, overwrite, t0)
    system = config.build_system()
    root = RandomnessHandle(_seed_root(config, seed))
    common = root.derive("common-randomness")
    trials = int(trials if trials is not None else config.data.get("separate_trials", 3000))
    block_lengths = config.target_block_lengths()
    payload = {"runs": [], "trend_rows": []}
    for n in block_lengths:
        sized = [ _resize_target(t, n) for t in targets ]
        run = {"n": n, "pairs": {}, "steps": [], "infeasible": {}}
        current = system
        try:
            current, steps = separate_network(
                current,
                sized,
                root.derive("sep", n),
                common,
                recheck_trials=int(config.data.get("recheck_trials", 2000)),
                recheck=bool(config.data.get("recheck", True)),
            )
            run["steps"] = [
                {"pair": list(s.pair), "plan": s.plan_summary, "rechecks":
                 {str(list(k)): v for k, v in s.rechecks.items()}}
                for s in steps
            ]
        except PlanInfeasible as exc:
            run["infeasible"]["all"] = str(exc)
            payload["runs"].append(run)
            continue
        for target in sized:
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
        ni_cfg = config.data.get("noninterference")
        if ni_cfg and ni_cfg.get("untouched"):
            untouched = [tuple(int(v) for v in p) for p in ni_cfg["untouched"]]
            results = verify_noninterference(
                system,
                current,
                untouched,
                int(ni_cfg.get("trials_blocks", 2000)),
                root.derive("ni", n),
                repetitions=int(ni_cfg.get("repetitions", 1)),
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


def _resize_target(t: PairTarget, n: int) -> PairTarget:
    ratio = (t.n_prime / t.n) if (t.n and t.n_prime) else 1.0
    return dataclasses.replace(t, n=n, n_prime=max(1, int(round(ratio * n))))


def _separate_noop(config, out_dir, seed, overwrite, t0) -> ResultRecord:
    # Empty target set: the transformed system IS the system; record rollout
    # digests to prove bit-identity.
    system = config.build_system()
    root = RandomnessHandle(_seed_root(config, seed))
    traj = rollout(system, root.derive("noop"), lanes=4, horizon=min(system.horizon, 2000))
    digest = hashlib.sha256()
    for pair in sorted(traj.repro):
        digest.update(traj.repro[pair].tobytes())
    payload = {"noop": True, "rollout_digest": digest.hexdigest()}
    return _save_record(config, out_dir, "separate", seed, overwrite, t0, payload)[0]


# --- verify suites ----------------------------------------------------------

def _suite_probcore(root: RandomnessHandle) -> dict:
    pmf = Pmf.from_probs([0.3, 0.7])
    reps, passed = 30, 0
    for k in range(reps):
        a = sample_iid(pmf, 20_000, root.derive("cal_a", k))
        b = sample_iid(pmf, 20_000, root.derive("cal_b", k))
        r1, r2 = two_sample_test(a, b, 1), two_sample_test(a, b, 2)
        passed += int(r1.p_value > 0.01 and r2.p_value > 0.01)
    ok = passed >= math.floor(0.9 * reps)
    s = sample_iid(pmf, 1000, root.derive("ident"))
    ident = two_sample_test(s, s, 1)
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
    from scipy.stats import chisquare

    pmf = Pmf.from_probs([0.5, 0.5])
    plan = RatePlan.make(n=64, level=0.125, level_prime=0.2,
                         rate_at_level=0.4564355568, rate_at_level_prime=0.2780719051,
                         n_prime=48, psi=0.25, alpha=0.15)
    cb = build_channel_codebook(plan, pmf, root.derive("cb"))
    gen = root.derive("msgs").generator()
    oks = []
    for name, probs in (("uniform", None), ("zipf", zipf_message_pmf(cb.cardinality, 0.5).probs)):
        msgs = gen.choice(cb.cardinality, size=2000, p=probs)
        pooled = cb.entries[msgs].reshape(-1)
        counts = np.bincount(pooled, minlength=2)
        stat, p = chisquare(counts, pmf.probs * counts.sum())
        oks.append(p > 0.01)
    # the regeneration is compared by digest, so one table is held at a time
    spec, digest = cb.spec(), hashlib.sha256(cb.entries).digest()
    del cb
    regen_ok = hashlib.sha256(Codebook.from_spec(spec).entries).digest() == digest
    ok = regen_ok and all(oks)
    return {"ok": ok, "detail": f"regen={regen_ok}, gof pass={oks}"}


class _PoisonMedium(DmcMedium):
    """Two-user medium whose dynamic surface explodes on touch: planning and
    applying a separation must never reach it."""

    def __init__(self):
        super().__init__(2, {(0, 1): np.eye(2)})

    def start(self, lanes):
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
        pair_of_interest=(0, 1),
        horizon=1000,
        block_length=32,
        latency_map={(0, 1): 3},
    )
    guar = GuaranteeReport((0, 1), 0.125, 0.05, 0.01, 1000, 32, 50)
    target = PairTarget((0, 1), metric, 0.125, 0.2, n=32, n_prime=32)
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
    system = config.build_system()
    targets = config.targets()
    if not targets:
        return {"ok": True, "detail": "skipped: no targets in config", "expected_fail": False}
    target = targets[0]
    small = _resize_target(target, 32)
    budget = DistortionBudget(small.level, small.metric)
    guar = measure_end_to_end(
        system, small.pair, budget, 1000, root.derive("nc_base"), block_length=32
    )
    wrong_pmf = Pmf.from_probs([0.8, 0.2])
    plan = plan_separation(system, guar, small, root.derive("nc_common"))
    # rebuild the channel codebook with the wrong marginal
    send, cb = plan.send, plan.send.channel_cb
    bad_cb = Codebook.generate(cb.kind, wrong_pmf, cb.n, cb.cardinality, cb.common_seed)
    bad_send = SeparationSendModem(
        send.inner, send.pair, send.plan, send.source_cb, bad_cb, send.metric
    )
    after = apply_separation(system, dataclasses.replace(plan, send=bad_send))
    ni_cfg = config.data.get("noninterference", {})
    untouched = [tuple(int(v) for v in p) for p in ni_cfg.get("untouched", [])]
    if not untouched:
        return {"ok": True, "detail": "skipped: no untouched pairs", "expected_fail": False}
    results = verify_noninterference(
        system, after, untouched, 3000, root.derive("nc_ni"), repetitions=1
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
    t0 = time.time()
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
