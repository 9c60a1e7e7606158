"""Shipped payloads, pinned bit for bit.

``rd``, ``baseline``, ``separate`` and ``verify`` run on every shipped
config at the config's own seed, and the sha256 of each payload, as
``json.dumps(payload, sort_keys=True, separators=(",", ":"))``, must match
its entry in ``payload_digests.json``. A change that moves a payload on
purpose, such as a declared change of how a random stream is consumed,
rewrites the table with

    PYTHONPATH=src python3 tests/test_payloads.py

and lists the old and new digests from the diff.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from sepnet.harness import ExperimentConfig, cmd_baseline, cmd_rd, cmd_separate, cmd_verify

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
TABLE = Path(__file__).resolve().parent / "payload_digests.json"
COMMANDS = {"rd": cmd_rd, "baseline": cmd_baseline, "separate": cmd_separate,
            "verify": cmd_verify}


def cases() -> list:
    """``command-config`` for every command a shipped config supports:
    ``rd`` needs an ``rd`` section."""
    out = []
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        config = ExperimentConfig.load(path)
        out += [f"{command}-{path.stem}" for command in COMMANDS
                if command != "rd" or config.rd is not None]
    return out


def payload_digest(case: str, out_dir) -> str:
    command, stem = case.split("-", 1)
    config = ExperimentConfig.load(CONFIG_DIR / f"{stem}.yaml")
    with contextlib.redirect_stdout(io.StringIO()):  # verify prints its suites
        record = COMMANDS[command](config, out_dir)
    if command == "verify":
        record = record[0]
    blob = json.dumps(record.payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("case", cases())
def test_payload_matches_the_table(case, tmp_path):
    assert payload_digest(case, tmp_path) == json.loads(TABLE.read_text()).get(case)


def test_the_table_has_no_stale_entry():
    assert sorted(json.loads(TABLE.read_text())) == sorted(cases())


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]}  (rewrites {TABLE.name}; takes no arguments)")
    with tempfile.TemporaryDirectory() as out_dir:
        table = {case: payload_digest(case, out_dir) for case in cases()}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {TABLE}")
