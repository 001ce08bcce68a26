"""Record pins.json: the sha256 of the stdout of every seeded CLI job
(rank-exp, clt, escape) the default seed generates for runs of up to 60
seconds.

    python3 perfbench/pin.py

run.py compares these bytes on default-seed runs, because byte-identical
CSVs for identical inputs are a project invariant.  Re-record only with a
change that alters those bytes on purpose, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402
from worker import Runner  # noqa: E402


def main() -> int:
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = tempfile.mkdtemp(dir=root, prefix=".perfbench_pin_")
    pins = {}
    try:
        runner = Runner(workdir)
        for workload in inputs.WORKLOADS:
            once, passes = inputs.generate(workload, inputs.DEFAULT_SEED, inputs.passes_for(workload, 60))
            for job in once + [j for p in passes for j in p]:
                if job["class"] in oracles.SEEDED:
                    error, text = runner.execute(runner.prepare(job))
                    if error is not None:
                        raise RuntimeError(f"{job['id']} failed: {error}")
                    pins[job["id"]] = hashlib.sha256(text.encode()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
