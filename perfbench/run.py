"""fewts benchmark: three workloads, end-to-end metrics from an untraced
run, per-layer metrics from a traced one, outputs checked against
``reference.json``.

    python3 perfbench/run.py --workload meta-train --seed 0 --seconds 20 --trace 0

Run it from the repository root. It imports fewts from the ``src/``
directory beside ``perfbench/`` and refuses to run without it, and it
writes only under ``perfbench/``.

``--trace 0`` sets up several times, then repeats passes of the workload
for ``--seconds`` and reports the end-to-end metrics. ``--trace 1``
alternates an untraced and a traced pass, each with its own setup, and
reports per-layer metrics per pass plus the tracing overhead; its spans go
to ``perfbench/_out/``. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("meta-train", "embed-eval", "baseline-eval")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_source_tree() -> None:
    """Import fewts from ``src/`` with one BLAS thread. Call before numpy is
    imported.

    Each workload is a single closed-loop client, and a second BLAS thread
    on a small shared machine makes every matmul wait for the slower of two
    cores, which is slower and far less repeatable.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fewts" / "__init__.py").is_file():
        print(f"error: no fewts sources at {SRC / 'fewts'}", file=sys.stderr)
        return 2
    use_source_tree()
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
