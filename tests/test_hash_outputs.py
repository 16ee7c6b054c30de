"""``scripts/hash_outputs.py`` is a bitwise probe: two runs of its tiny part,
its generated bundles, its DTW tasks and its loaded files in one process give
the same hashes for the same outputs, a freshly built model's checkpoint among
them."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "hash_outputs.py"


def test_tiny_outputs_hash_the_same_twice(monkeypatch):
    # The script sets the BLAS thread variables on import when they are
    # unset; keep that out of the environment later tests see.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("hash_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    first = module.hash_outputs(["tiny"])
    second = module.hash_outputs(["tiny"])

    assert first == second
    # The generated bundles: three families at two shapes, each its own hash.
    synthetic = first["synthetic"]
    assert set(synthetic) == {f"{family}/{shape}" for family in ("sine", "square", "ar")
                              for shape in ("T37", "T128")}
    assert len(set(synthetic.values())) == 6
    # The DTW tasks: three families at three lengths under two grids, each
    # the window LOOCV selects and the hash of the 1NN labels at it.
    dtw = first["dtw"]
    assert set(dtw) == {f"{family}/T{t}/{grid}/{part}"
                        for family in ("sine", "square", "ar") for t in (37, 64, 128)
                        for grid in ("default", "three") for part in ("window", "labels")}
    for key, value in dtw.items():
        if key.endswith("/window"):
            grid = module.DTW_GRIDS[key.split("/")[2]]
            assert value in grid.fractions
        else:
            assert len(value) == 16
    task = module.square_duty_domain(128, n_classes=4, length=128, train_per_class=4,
                                     test_per_class=3)
    window = module.dtw_loocv_window(task.train, module.DTW_GRIDS["three"])
    assert dtw["square/T128/three/window"] == window
    labels = module.dtw_1nn(task.train, task.test.values, window)
    assert dtw["square/T128/three/labels"] == module.digest(labels.tobytes())
    # The loaded files: two datasets under three delimiters, each the hash of
    # both splits and the label names, one map over both files' tokens.
    ucr = first["ucr"]
    delimiters = ("tab", "comma", "space")
    assert set(ucr) == {f"{dataset}/{delim}/{part}" for dataset in ("numeric", "text")
                        for delim in delimiters for part in ("splits", "label_names")}
    for dataset, names in (("numeric", ["1", "1.0", "2", "3"]), ("text", ["a", "b", "c"])):
        assert len({ucr[f"{dataset}/{delim}/splits"] for delim in delimiters}) == 1
        assert len(ucr[f"{dataset}/tab/splits"]) == 16
        for delim in delimiters:
            assert ucr[f"{dataset}/{delim}/label_names"] == names
    assert ucr["numeric/tab/splits"] != ucr["text/tab/splits"]
    hashes = first["tiny"]
    for key in ("fresh.ckpt", "fs1/iter_000003.ckpt", "fs2/model_selection.json",
                "fs2/train_log.jsonl", "finetune/frozen2.ckpt", "finetune/frozen2.infer_z",
                "train/grads", "protocol/records.jsonl", "protocol/tasks.jsonl",
                "report/summary.json"):
        assert len(hashes[key]) == 16
    # Outputs that differ hash apart: three fine-tunes, two meta-trainers.
    assert len({hashes[f"finetune/frozen{f}.ckpt"] for f in (0, 1, 2)}) == 3
    assert hashes["fs1/iter_000003.ckpt"] != hashes["fs2/iter_000003.ckpt"]
    # The fresh checkpoint is the seed-8 build the meta-trainers start from.
    fresh = module.build_model(module.ARCHS["tiny"], module.np.random.default_rng(8))
    assert hashes["fresh.ckpt"] == module.digest(module.checkpoint_bytes(fresh))
    assert hashes["fresh.ckpt"] not in {hashes["fs1/iter_000003.ckpt"],
                                        hashes["fs2/iter_000003.ckpt"]}
