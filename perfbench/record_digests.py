"""Record the output digest of every operation in every workload's pool.

    python3 perfbench/record_digests.py

Writes `perfbench/digests.json`.  Run it only when an output is meant to
change; the digests are what later runs compare exact results against.
Every operation must pass its own oracle before its digest is recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.dont_write_bytecode = True  # no .pyc files in the checkout
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    os.environ["COXFORGE_PURE_PYTHON"] = "1"
    os.environ.pop("COXFORGE_DEGREE_BOUND", None)
    import workloads

    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="digests-", dir=build_dir)
    try:
        pools = {
            "paper": [workloads.Paper(0, workdir)],
            "scaled": [workloads.Scaled(0, workdir, pick=lambda key, v=v: [v])
                       for v in range(workloads.VARIANTS)],
            "lattice": [workloads.Lattice(0, workdir, pick=lambda key, v=v: [v])
                        for v in range(workloads.VARIANTS)],
            "cli": [workloads.Cli(0, workdir, ROOT, os.path.join(workdir, "pycache"))],
        }
        out = {}
        for name, instances in pools.items():
            digests = out.setdefault(name, {})
            for workload in instances:
                for op in workload.warmup + workload.ops:
                    digests[op.key] = workloads.digest(op.check(op.run()))
            print(f"{name}: {len(digests)} operations", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
