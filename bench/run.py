"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload bsc-separate --seed 1 --seconds 60 --trace 0

Run from the repository root. Each pass runs the workload's commands back
to back in a fresh process (``bench/child.py``) after that process's
set-up. With ``--trace 0`` passes repeat for about ``--seconds`` (at least
one), set-up is sampled in further fresh processes, and the end-to-end
metrics are reported as medians over the run. With ``--trace 1`` one
untraced and one traced pass run and the per-layer metrics are reported.
Every command's output is checked against ``bench/references``.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def _require_checkout() -> None:
    """Exit 2 unless run inside a checkout that holds the program."""
    missing = [p for p in ("src/sepnet/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a sepnet checkout, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        raise SystemExit(2)


def _child(workload: str, seed: int | None, mode: str) -> dict:
    """Run ``bench.child`` in a fresh interpreter and wait for its result."""
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload, "--mode", mode]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {mode} child for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _totals(results) -> tuple[int, int, list]:
    """Commands attempted and failed, and the failed checks, over passes."""
    return (sum(r["attempted"] for r in results), sum(r["failed"] for r in results),
            [q for r in results for q in r["problems"]])


def run_untraced(workload: str, seed: int | None, seconds: float):
    """One set-up-only process to warm the file cache, then passes in fresh
    processes for about ``seconds`` (at least one; the number of passes is
    the one whose expected total is nearest to ``seconds``), then
    set-up-only processes until there are SETUP_REPEATS set-up samples.
    Each pass process is a set-up sample too."""
    setups = [_child(workload, seed, "setup")["setup_s"]]
    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(_child(workload, seed, "pass"))
        last = time.perf_counter() - t0
        if time.perf_counter() - t_start + last / 2 > seconds:
            break  # another pass would end further from ``seconds``
    setups += [c["setup_s"] for c in passes]
    while len(setups) < SETUP_REPEATS:
        setups.append(_child(workload, seed, "setup")["setup_s"])
    results = [c["pass"] for c in passes]
    attempted, failed, problems = _totals(results)
    metrics = {
        "wall_s": (_median([r["wall_s"] for r in results]), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in passes), "MB"),
    }
    extra = {f"{cmd}_s": (_median([r["command_s"][cmd] for r in results]), "s")
             for cmd in results[0]["command_s"]}
    extra["failed_frac"] = (failed / attempted, "ratio")
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in results)
    notes = [f"passes: {len(results)} ({walls} s), "
             f"set-up samples: {', '.join(f'{t:.3f}' for t in setups)} s"]
    return metrics, extra, attempted, failed, problems, notes, passes[0]["machine"]


def run_traced(workload: str, seed: int | None):
    """One untraced and one traced pass, each in a fresh process."""
    from bench.layers import UNITS

    plain = _child(workload, seed, "pass")
    traced = _child(workload, seed, "traced")
    values = dict(traced["layers"])
    for command in ("rd", "baseline", "separate", "verify"):
        values[f"harness.{command}_s"] = plain["pass"]["command_s"].get(command, 0.0)
    values["trace.overhead_frac"] = traced["pass"]["wall_s"] / plain["pass"]["wall_s"] - 1
    metrics = {k: (values[k], UNITS[k]) for k in UNITS}
    attempted, failed, problems = _totals([plain["pass"], traced["pass"]])
    notes = [f"untraced pass {plain['pass']['wall_s']:.3f} s, traced pass "
             f"{traced['pass']['wall_s']:.3f} s, {traced['spans']} spans",
             "largest self times: "
             + ", ".join(f"{n} {t:.3f} s" for n, t in traced["top_self"])]
    return metrics, {}, attempted, failed, problems, notes, plain["machine"]


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed root for every command (default: each config's seed)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measuring time; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # at most 2 BLAS threads, set before numpy loads
        os.environ[var] = "2"
    _require_checkout()

    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    metrics, extra, attempted, failed, problems, notes, machine = result

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for note in notes:
        print(note)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
