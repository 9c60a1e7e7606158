"""One measured pass in a fresh interpreter; ``bench/run.py`` starts it.

    python3 -m bench.child --workload NAME [--seed N] [--mode pass|setup|traced]

``setup`` times set-up only: importing sepnet, loading the workload's
configs and building their systems. ``pass`` then runs the workload's
commands once. ``traced`` runs them under the tracing shim and adds the
per-layer metrics and the codec search sweep. The last line of standard
output is a JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=("pass", "setup", "traced"), default="pass")
    args = parser.parse_args(argv)

    from bench import workloads as wl

    t0 = time.perf_counter()
    import sepnet  # noqa: F401  (part of the timed set-up)

    configs = wl.load_configs(ROOT, args.workload)
    out = {"setup_s": time.perf_counter() - t0, "machine": machine_facts()}
    if args.mode == "pass":
        with wl.scratch_dir(ROOT) as out_dir:
            out["pass"] = asdict(wl.run_pass(args.workload, configs, out_dir, args.seed))
    elif args.mode == "traced":
        from bench import layers
        from bench.tracer import Tracer

        tracer = Tracer()
        with wl.scratch_dir(ROOT) as out_dir, tracer.installed():
            with tracer.span("harness.config"):
                configs = wl.load_configs(ROOT, args.workload)
            result = wl.run_pass(args.workload, configs, out_dir, args.seed)
        table = layers.SpanTable(tracer.spans)
        out["pass"] = asdict(result)
        out["layers"] = {
            **layers.span_metrics(table),
            "harness.config_s": table.total["harness.config"],
            "harness.payload_exact": result.payload_exact,
            **layers.search_sweep(args.seed if args.seed is not None else 0),
        }
        out["spans"] = len(tracer.spans)
        out["top_self"] = table.top_self()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
