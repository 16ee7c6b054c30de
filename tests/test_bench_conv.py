"""Smoke test of ``scripts/bench_conv.py``: one layer at a tiny size returns
a row with the figures of each timed op and worker count, one training step
and one model build return their times, and the script times the default
and tiny architectures' layers, projections, steps and builds."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_conv.py"


@pytest.fixture
def bench(monkeypatch):
    # The script pins the BLAS thread variables on import; keep that out of
    # the environment later tests see.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_conv", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # time_layer sets the worker count it times; restore the library's.
    monkeypatch.setattr(module.kernels, "_WORKERS", module.kernels._WORKERS)
    return module


def test_time_layer_reports_every_op_and_worker_count(bench):
    assert_row(bench, (4, 8, 16, 32, 64), 33, 1)


@pytest.mark.parametrize("lengths, per_length, in_ch", [((8, 5), 4, 8), ((1,), 8, 1)])
def test_time_layer_times_small_layers_and_projections(bench, lengths, per_length, in_ch):
    assert_row(bench, lengths, per_length, in_ch)


def assert_row(bench, lengths, per_length, in_ch):
    row = bench.time_layer(lengths, per_length, in_ch, t=16, batch=2, repeats=1)

    timed = {f"{op}_ms_{n}w" for op in ("fwd", "bwd", "bn_fwd", "bn_bwd")
             for n in sorted({1, bench.CPUS})}
    assert set(row) == {"lengths", "per_length", "in_ch", "T", "b"} | timed
    assert (row["lengths"], row["per_length"], row["in_ch"], row["T"], row["b"]) == (
        list(lengths), per_length, in_ch, 16, 2)
    assert all(row[key] >= 0.0 for key in timed)


def test_layers_cover_both_archs_and_projections(bench):
    shapes = {(tuple(lengths), per, in_ch, t) for _, lengths, per, in_ch, t in bench.LAYERS}
    default = (4, 8, 16, 32, 64)
    assert {(default, 33, c, t) for c in (1, 165) for t in (128, 512)} <= shapes
    assert {((8, 5), 4, c, 128) for c in (1, 8)} <= shapes
    assert {((1,), 165, 1, 128), ((1,), 8, 1, 128)} <= shapes
    assert len({name for name, *_ in bench.LAYERS}) == len(bench.LAYERS)
    tiny = bench.ArchSpec(filter_lengths=(8, 5), filters_per_length=4)
    assert {(spec, t) for _, spec, t in bench.STEPS} == {(tiny, 64), (bench.ArchSpec(), 128)}
    assert {spec for _, spec in bench.BUILDS} == {tiny, bench.ArchSpec()}


def test_time_step_reports_a_whole_step(bench):
    spec = bench.ArchSpec(blocks=1, convs_per_block=2, filter_lengths=(3, 2),
                          filters_per_length=2)
    row = bench.time_step(spec, t=16, batch=3, repeats=2)
    assert set(row) == {"arch", "T", "b", "step_ms"}
    assert (row["arch"], row["T"], row["b"]) == (spec.to_dict(), 16, 3)
    assert row["step_ms"] > 0.0


def test_time_build_reports_a_model_build(bench):
    spec = bench.ArchSpec(blocks=1, convs_per_block=2, filter_lengths=(3, 2),
                          filters_per_length=2)
    row = bench.time_build(spec, repeats=2)
    assert set(row) == {"arch", "build_ms"}
    assert row["arch"] == spec.to_dict()
    assert row["build_ms"] > 0.0


def test_main_prints_a_build_entry(bench, monkeypatch, capsys):
    spec = bench.ArchSpec(blocks=1, convs_per_block=1, filter_lengths=(2,),
                          filters_per_length=2)
    monkeypatch.setattr(bench, "LAYERS", [])
    monkeypatch.setattr(bench, "STEPS", [])
    monkeypatch.setattr(bench, "BUILDS", [("small build", spec)])
    bench.main(["--repeats", "1"])
    out = bench.json.loads(capsys.readouterr().out)
    assert [row["build"] for row in out["build"]] == ["small build"]
    assert out["build"][0]["build_ms"] > 0.0
