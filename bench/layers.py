"""Per-layer metrics derived from a traced pass, and the codec search sweep.

Each metric belongs to one sepnet module (its name's prefix). Times are
self times (a span minus the spans it called) where the name says
``self``, for search, and for rollout; other times are whole span
durations. Work counts come from the counters in ``tracer.COUNTERS``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

SEARCH = ("codec.batch_min_distortion_rows", "codec.batch_unique_within_decode")
GENERATE = "codec.Codebook.generate"
FROM_SPEC = "codec.Codebook.from_spec"
ROLLOUT = "netmodel.rollout"
NONINTERFERENCE = "separation.verify_noninterference"

# Codebook sizes of the search sweep: both sides of the m >= 65536 branch
# switch in codec.batch_min_distortion_rows, and the largest single_bsc size.
SWEEP_SIZES = {"m256": 256, "m4096": 4096, "m65535": 65535, "m65536": 65536,
               "m800k": 800_000}
SWEEP_N = 64
SWEEP_BATCH = 512
SWEEP_MIN_S = 0.25

UNITS = {
    "codec.search_calls": "count", "codec.search_s": "s", "codec.comparisons": "count",
    "codec.gcmp_per_s": "Gcmp/s", "codec.decode_fail_frac": "ratio",
    "codec.gen_calls": "count", "codec.gen_s": "s", "codec.codebook_bytes": "B",
    "codec.regen_frac": "ratio",
    **{f"codec.ns_per_cmp.{k}": "ns" for k in SWEEP_SIZES},
    "netmodel.rollout_calls": "count", "netmodel.rollout_self_s": "s",
    "netmodel.steps": "count", "netmodel.lane_steps": "count",
    "netmodel.us_per_step": "us", "netmodel.msym_per_s": "Msym/s",
    "netmodel.block_avg_s": "s",
    "separation.plan_s": "s", "separation.measure_self_s": "s",
    "separation.ni_self_s": "s",
    "ratedist.ba_calls": "count", "ratedist.ba_s": "s", "ratedist.ba_iters": "count",
    "ratedist.ba_unconverged": "count",
    "probcore.sample_s": "s", "probcore.sampled_syms": "count",
    "probcore.chi2_calls": "count", "probcore.chi2_s": "s",
    "harness.config_s": "s", "harness.payload_exact": "count",
    "harness.rd_s": "s", "harness.baseline_s": "s", "harness.separate_s": "s",
    "harness.verify_s": "s",
    "trace.overhead_frac": "ratio",
}


class SpanTable:
    """Sums over spans by name, and over child spans by (parent, child)."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.child_total = defaultdict(float)
        names = {s.sid: s.name for s in spans}
        for s in spans:
            self.calls[s.name] += 1
            self.total[s.name] += s.duration
            self.self_time[s.name] += s.self_time
            for key, value in s.counts.items():
                self.counts[s.name][key] += value
            if s.parent is not None:
                self.child_total[(names[s.parent], s.name)] += s.duration

    def count(self, name: str, key: str) -> int:
        return self.counts[name][key]

    def top_self(self, k: int = 8) -> list[tuple[str, float]]:
        return sorted(self.self_time.items(), key=lambda kv: -kv[1])[:k]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(table: SpanTable) -> dict:
    """Per-layer metrics that come from the traced pass's spans."""
    search_s = sum(table.self_time[n] for n in SEARCH)
    comparisons = sum(table.count(n, "comparisons") for n in SEARCH)
    rollout_self = table.self_time[ROLLOUT]
    steps = table.count(ROLLOUT, "steps")
    lane_steps = table.count(ROLLOUT, "lane_steps")
    measure = "separation.measure_end_to_end"
    return {
        "codec.search_calls": sum(table.calls[n] for n in SEARCH),
        "codec.search_s": search_s,
        "codec.comparisons": comparisons,
        "codec.gcmp_per_s": _ratio(comparisons, search_s) / 1e9,
        "codec.decode_fail_frac": _ratio(table.count(measure, "decode_fails"),
                                         table.count(measure, "decodes")),
        "codec.gen_calls": table.calls[GENERATE],
        "codec.gen_s": table.total[GENERATE],
        "codec.codebook_bytes": table.count(GENERATE, "bytes"),
        "codec.regen_frac": _ratio(table.calls[FROM_SPEC], table.calls[GENERATE]),
        "netmodel.rollout_calls": table.calls[ROLLOUT],
        "netmodel.rollout_self_s": rollout_self,
        "netmodel.steps": steps,
        "netmodel.lane_steps": lane_steps,
        "netmodel.us_per_step": _ratio(rollout_self, steps) * 1e6,
        "netmodel.msym_per_s": _ratio(lane_steps, rollout_self) / 1e6,
        "netmodel.block_avg_s": table.total["netmodel.block_average_distortions"],
        "separation.plan_s": table.total["separation.plan_separation"],
        "separation.measure_self_s": table.self_time[measure],
        "separation.ni_self_s": table.total[NONINTERFERENCE]
        - table.child_total[(NONINTERFERENCE, ROLLOUT)],
        "ratedist.ba_calls": table.calls["ratedist.blahut_arimoto"],
        "ratedist.ba_s": table.total["ratedist.blahut_arimoto"],
        "ratedist.ba_iters": table.count("ratedist.blahut_arimoto", "iterations"),
        "ratedist.ba_unconverged": table.count("ratedist.blahut_arimoto", "unconverged"),
        "probcore.sample_s": table.total["probcore.sample_iid_array"],
        "probcore.sampled_syms": table.count("probcore.sample_iid_array", "symbols"),
        "probcore.chi2_calls": table.calls["probcore.chi_square_homogeneity"],
        "probcore.chi2_s": table.total["probcore.chi_square_homogeneity"],
    }


def search_sweep(seed: int) -> dict:
    """ns per codeword comparison of batch_min_distortion_rows on binary
    n = 64 codebooks of each sweep size, at a fixed batch of blocks."""
    import numpy as np

    from sepnet.codec import Codebook, batch_min_distortion_rows
    from sepnet.probcore import Pmf, RandomnessHandle, sample_iid_array
    from sepnet.ratedist import hamming_metric

    pmf = Pmf.from_probs([0.5, 0.5])
    root = RandomnessHandle(seed).derive("bench-search-sweep")
    full = Codebook.generate("channel", pmf, SWEEP_N, max(SWEEP_SIZES.values()),
                             root.derive("codebook"))
    blocks = sample_iid_array(pmf, SWEEP_BATCH * SWEEP_N,
                              root.derive("blocks").generator()).reshape(SWEEP_BATCH, SWEEP_N)
    metric = hamming_metric(2)
    out = {}
    for label, m in SWEEP_SIZES.items():
        cb = Codebook(full.kind, full.n, m, full.gen_pmf, full.common_seed, full.entries[:m])
        batch_min_distortion_rows(cb, blocks, metric)  # packs the rows once
        times = []
        t_end = time.perf_counter() + SWEEP_MIN_S
        while len(times) < 3 or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            batch_min_distortion_rows(cb, blocks, metric)
            times.append(time.perf_counter() - t0)
        out[f"codec.ns_per_cmp.{label}"] = statistics.median(times) / (SWEEP_BATCH * m) * 1e9
    return out
