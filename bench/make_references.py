"""Regenerate the reference payloads in bench/references.

    python3 bench/make_references.py

Runs every (command, config) step of every workload once at the config's
own seed and stores its payload with the payload's sha256. Regenerate only
when a change is meant to alter results, and say so where the change is
described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import checks, workloads as wl  # noqa: E402


def main() -> int:
    from sepnet.harness import ExperimentConfig

    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    steps = {s for w in wl.WORKLOADS.values() for s in w}
    with wl.scratch_dir(ROOT) as out_dir:
        for step in sorted(steps, key=lambda s: (s.command, s.config)):
            cfg = ExperimentConfig.load(wl.config_path(ROOT, step.config))
            record, ok = wl.run_step(step, cfg, out_dir, seed=None)
            payload = wl.payload_of(record)
            if not ok:
                print(f"{step.command} {step.config}: verify failed", file=sys.stderr)
                return 1
            reference = {
                "command": step.command,
                "config": step.config,
                "seed": cfg.seed,
                "trials": step.trials,
                "sha256": checks.payload_digest(payload),
                "payload": payload,
            }
            path = checks.reference_path(step.command, step.config)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
