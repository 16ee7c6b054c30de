"""Self-tests of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spans  # noqa: E402


def brute_band_cells(tx: int, ty: int, w: int) -> int:
    # The cells the DTW recurrence visits: row i spans max(1, i-w)..min(ty, i+w).
    return sum(max(0, min(ty, i + w) - max(1, i - w) + 1) for i in range(1, tx + 1))


def test_band_cells_matches_brute_force():
    for tx in range(1, 13):
        for ty in range(1, 13):
            for w in range(0, 15):
                assert spans.band_cells(tx, ty, w) == brute_band_cells(tx, ty, w), (tx, ty, w)
    assert spans.band_cells(64, 64, 64) == 64 * 64
    assert spans.band_cells(64, 64, 0) == 64


def test_conv_flops_hand_sized():
    # 2 series x 3 steps x 4 out x 5 in x 6 taps = 720 multiply-adds.
    assert spans.conv_flops(2, 3, 4, 5, 6) == 1440
    assert spans.im2col_bytes(2, 3, 5, 6) == 8 * 2 * 3 * 5 * 6
    filters = np.zeros((4, 5, 6))
    batched = spans._conv_forward_work((np.zeros((2, 5, 3)), filters, np.zeros(4)), {}, None)
    single = spans._conv_forward_work((np.zeros((5, 3)), filters, np.zeros(4)), {}, None)
    assert batched["flop"] == 1440
    assert single["flop"] == 720


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    rec = spans.Recorder(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("g"):
                pass
        with rec.span("b"):
            pass
    assert rec.parents == [-1, 0, 1, 0]
    assert rec.self_times() == [3, 2, 1, 4]
    assert sum(rec.self_times()) == 10


def test_layer_metrics_account_for_traced_time():
    rec = spans.Recorder(clock=ScriptedClock([0, 1, 3, 4, 5, 6, 7, 8]))
    with rec.span("bench.pass"):
        rec.wrap(lambda: None, "kernels.bn")()
        with rec.span("baselines.dtw_1nn"):
            rec.wrap(lambda x, y, w: 0.0, "baselines.dtw_distance", spans._dtw_work)(
                np.zeros(4), np.zeros(4), 1)
    metrics = spans.layer_metrics(rec, passes=2, traced_s=8.0)
    assert metrics["kernels.bn.calls"] == 0.5
    assert metrics["kernels.bn.s"] == 1.0
    assert metrics["baselines.dtw_1nn.s"] == 1.5
    assert metrics["baselines.dtw_distance.mcells"] == spans.band_cells(4, 4, 1) / 1e6 / 2
    assert metrics["trace.glue_frac"] == 3 / 8
    assert metrics["trace.accounted_frac"] == 1.0


def test_benchmark_json_lists_the_reported_metrics():
    import bench
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(bench.WORKLOADS)
