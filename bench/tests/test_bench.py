"""Tests of the benchmark's tracing shim and output checks.

    python3 -m pytest -q bench/tests

The workload tests run each workload's commands once under the shim, which
takes about a minute and up to 750 MB of memory.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import sepnet  # noqa: E402
from sepnet import codec, harness, netmodel, probcore, separation  # noqa: E402

from bench import checks, layers, workloads as wl  # noqa: E402
from bench.tracer import Tracer  # noqa: E402


def test_shim_wraps_every_binding_and_restores_it():
    originals = (netmodel.rollout, probcore.sample_iid_array, codec.Codebook.generate)
    tracer = Tracer()
    with tracer.installed():
        assert tracer.unwrapped_bindings() == []
        # one wrapper per function, whichever module bound the name
        assert separation.rollout is harness.rollout is netmodel.rollout
        assert separation.rollout.__wrapped__ is originals[0]
        for module in (netmodel, codec, separation):
            assert module.sample_iid_array.__wrapped__ is originals[1]
        assert separation.batch_min_distortion_rows is codec.batch_min_distortion_rows
        assert codec.Codebook.generate.__func__.__wrapped__ is originals[2].__func__
    assert (netmodel.rollout, probcore.sample_iid_array) == originals[:2]
    assert codec.Codebook.generate.__func__ is originals[2].__func__
    assert separation.rollout is originals[0] and sepnet.rollout is originals[0]


def test_spans_nest_and_count():
    tracer = Tracer()
    pmf = probcore.Pmf.from_probs([0.5, 0.5])
    with tracer.installed():
        probcore.sample_iid(pmf, 1000, probcore.RandomnessHandle(1))
    by_name = {s.name: s for s in tracer.spans}
    outer, inner = by_name["probcore.sample_iid"], by_name["probcore.sample_iid_array"]
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.counts == {"symbols": 1000}
    assert outer.child_time == inner.duration
    assert 0 <= outer.self_time <= outer.duration


@pytest.fixture(scope="module")
def traced_workloads(tmp_path_factory):
    out = {}
    for name in wl.WORKLOADS:
        configs = wl.load_configs(ROOT, name)
        tracer = Tracer()
        with tracer.installed():
            result = wl.run_pass(name, configs, tmp_path_factory.mktemp(name), seed=None)
        out[name] = (result, tracer.spans)
    return out


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_workload_passes_checks_and_matches_references(traced_workloads, name):
    result, _ = traced_workloads[name]
    assert result.failed == 0, result.problems
    # at the config seeds every payload is the stored reference, bit for bit
    assert result.payload_exact == result.attempted


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_search_calls_and_largest_self_time(traced_workloads, name):
    _, spans = traced_workloads[name]
    table = layers.SpanTable(spans)
    metrics = layers.span_metrics(table)
    if name == "baseline-wide":
        assert metrics["codec.search_calls"] == 0
        assert metrics["codec.comparisons"] == 0
    else:
        assert metrics["codec.search_calls"] > 0
        assert metrics["codec.comparisons"] > 0
    largest = table.top_self(1)[0][0]
    expected = ("codec.batch_min_distortion_rows" if name == "bsc-separate"
                else "netmodel.rollout")
    assert largest == expected


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_child_self_time_within_parent(traced_workloads, name):
    _, spans = traced_workloads[name]
    by_id = {s.sid: s for s in spans}
    children_time = {}
    for s in spans:
        assert s.self_time >= 0
        if s.parent is not None:
            parent = by_id[s.parent]
            assert s.self_time <= parent.duration
            children_time[s.parent] = children_time.get(s.parent, 0.0) + s.duration
    for sid, covered in children_time.items():
        assert covered <= by_id[sid].duration + 1e-9


def _reference_step(command, config):
    step = next(s for w in wl.WORKLOADS.values() for s in w
                if (s.command, s.config) == (command, config))
    return step, copy.deepcopy(checks.load_reference(command, config)["payload"])


def test_checks_accept_references_and_reject_changed_results():
    step, payload = _reference_step("baseline", "single_bsc")
    verdict = checks.check(step, payload, True)
    assert verdict.passed and verdict.exact
    pair = next(iter(payload["pairs"].values()))
    pair["exceed_count"] = int(pair["exceed_count"] * 1.3) + 20
    assert not checks.check(step, payload, True).passed

    step, payload = _reference_step("rd", "relay_chain")
    payload["rows"][2][1] += 1e-3
    assert not checks.check(step, payload, True).passed

    step, payload = _reference_step("verify", "two_pair_interference")
    assert checks.check(step, payload, True).passed
    assert not checks.check(step, payload, False).passed
    payload["suites"]["negative_control"]["status"] = "FAIL"
    assert not checks.check(step, payload, True).passed

    step, payload = _reference_step("separate", "two_pair_interference")
    ni = next(iter(payload["runs"][0]["noninterference"].values()))
    ni["stream_pass_fraction"] = 0.3
    assert not checks.check(step, payload, True).passed
