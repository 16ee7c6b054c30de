"""Regenerate ``reference.json``: the outputs of one untraced pass of each
workload on each input variant.

    python3 perfbench/make_reference.py

Only regenerate when the benchmark's inputs change. A change to fewts that
moves these outputs fails the benchmark's output check, which is the point.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

run.use_source_tree()

import spans  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402


def main() -> int:
    here = Path(__file__).resolve().parent
    path = here / "reference.json"
    reference = {}
    work_dir = here / "_work" / "reference"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            reference[name] = {}
            for variant in range(VARIANTS):
                state = workload.setup(variant, work_dir, spans.NULL)
                result = workload.run_pass(state, spans.NULL)
                if result.failed:
                    print(f"{name} variant {variant}: {result.failed} operations failed",
                          file=sys.stderr)
                    return 1
                reference[name][str(variant)] = result.outputs
                print(f"{name} variant {variant}: {result.seconds:.2f} s", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
