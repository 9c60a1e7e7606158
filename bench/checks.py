"""Output checks for each harness command against stored references.

The references in ``references/`` are the payloads each command produced
at its config's own seed. A run at another seed estimates the same
probabilities from other randomness, so estimates are compared within
``WILSON_MULTIPLE`` times the sum of the two 95% Wilson half-widths. With
equal widths that is about 5.5 standard deviations of the difference,
wide enough that a declared re-seeding of the random streams does not fail
by chance, while a changed law moves far past it. Bit-identical payloads
are only counted (``exact``), never required.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
WILSON_MULTIPLE = 2.0
RD_TOLERANCE = 1e-4  # |R(D) - (1 - h2(D))| for the uniform binary source


@dataclass
class Verdict:
    passed: bool = True
    exact: bool = False
    problems: list = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.passed = False
        self.problems.append(problem)


def payload_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def reference_path(command: str, config: str) -> Path:
    return REFERENCE_DIR / f"{command}-{config}.json"


def load_reference(command: str, config: str) -> dict:
    return json.loads(reference_path(command, config).read_text())


def wilson_half_width(successes: int, trials: int, z: float = 1.959964) -> float:
    """95% Wilson score half-width, written out here so the check does not
    reuse the program's own formula."""
    p = successes / trials
    z2 = z * z
    return z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / (1 + z2 / trials)


def _compare_rate(verdict: Verdict, what: str, hits: int, n: int,
                  ref_hits: int, ref_n: int) -> None:
    got, want = hits / n, ref_hits / ref_n
    tol = WILSON_MULTIPLE * (wilson_half_width(hits, n) + wilson_half_width(ref_hits, ref_n))
    if abs(got - want) > tol:
        verdict.fail(f"{what}: {got:.5f} vs reference {want:.5f} (tolerance {tol:.5f})")


def _compare_guarantees(verdict: Verdict, where: str, got: dict, ref: dict) -> None:
    if set(got) != set(ref):
        verdict.fail(f"{where}: pairs {sorted(got)} vs reference {sorted(ref)}")
        return
    for pair, r in ref.items():
        g = got[pair]
        _compare_rate(verdict, f"{where} {pair} epsilon_hat", g["exceed_count"],
                      g["trials"], r["exceed_count"], r["trials"])


def _h2(x: float) -> float:
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def _check_rd(verdict: Verdict, payload: dict, ref: dict) -> None:
    rows = payload["rows"]
    if len(rows) != len(ref["rows"]):
        verdict.fail(f"{len(rows)} rd rows vs reference {len(ref['rows'])}")
    for d, rate, *_ in rows:
        err = abs(rate - (1 - _h2(d)))
        if not err <= RD_TOLERANCE:  # also catches NaN rates
            verdict.fail(f"rd row D={d}: R={rate} is {err:.2e} from 1 - h2(D)")


def _check_separate(verdict: Verdict, payload: dict, ref: dict) -> None:
    runs, ref_runs = payload["runs"], ref["runs"]
    if [r["n"] for r in runs] != [r["n"] for r in ref_runs]:
        verdict.fail("block lengths differ from the reference")
        return
    for run, ref_run in zip(runs, ref_runs):
        where = f"n={run['n']}"
        if set(run["infeasible"]) != set(ref_run["infeasible"]):
            verdict.fail(f"{where}: infeasible {run['infeasible']} vs reference "
                         f"{ref_run['infeasible']}")
            continue
        _compare_guarantees(verdict, where, run["pairs"], ref_run["pairs"])
        ref_ni = ref_run.get("noninterference", {})
        ni = run.get("noninterference", {})
        if set(ni) != set(ref_ni):
            verdict.fail(f"{where}: noninterference pairs {sorted(ni)} vs reference "
                         f"{sorted(ref_ni)}")
            continue
        for pair, r in ref_ni.items():
            reps, ref_reps = len(ni[pair]["p_order1"]), len(r["p_order1"])
            _compare_rate(
                verdict, f"{where} {pair} stream_pass_fraction",
                round(ni[pair]["stream_pass_fraction"] * reps), reps,
                round(r["stream_pass_fraction"] * ref_reps), ref_reps,
            )


def _check_verify(verdict: Verdict, payload: dict, ok: bool, ref: dict) -> None:
    if not ok:
        verdict.fail("verify did not pass (the CLI would exit 3)")
    for name, ref_suite in ref["suites"].items():
        status = payload["suites"].get(name, {}).get("status")
        if status != ref_suite["status"]:
            verdict.fail(f"suite {name}: {status} vs reference {ref_suite['status']}")


def check(step, payload: dict, ok: bool) -> Verdict:
    """Judge one command's payload; ``ok`` is verify's acceptance flag."""
    reference = load_reference(step.command, step.config)
    ref = reference["payload"]
    verdict = Verdict(exact=payload_digest(payload) == reference["sha256"])
    if step.command == "rd":
        _check_rd(verdict, payload, ref)
    elif step.command == "baseline":
        _compare_guarantees(verdict, "baseline", payload["pairs"], ref["pairs"])
    elif step.command == "separate":
        _check_separate(verdict, payload, ref)
    elif step.command == "verify":
        _check_verify(verdict, payload, ok, ref)
    else:
        verdict.fail(f"no check for command {step.command!r}")
    return verdict
