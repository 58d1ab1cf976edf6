"""Self-check of the benchmark: every workload once, both modes.

    python3 perfbench/smoke.py [--seconds 1]

Asserts that each run ends with a result line whose metrics are exactly
the `end_to_end` (untraced) or `per_layer` (traced) metrics named in
`BENCHMARK.json`, each with its unit, and that no operation failed.  Then
it feeds each workload's first operation a deliberately wrong expected
value and asserts that the operation is reported as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec: dict, workload: str, trace: int, seconds: float) -> None:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}: {proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{workload}: {proc.stdout}"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace {trace}: metrics differ: " \
        f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, " \
        f"units {[(n, got[n], wanted[n]) for n in got if n in wanted and got[n] != wanted[n]]}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (workload, name, m)
    print(f"ok  {workload} trace {trace}: {len(got)} metrics, "
          f"{result['attempted']} operations", flush=True)


def check_wrong_expectations() -> None:
    """A wrong expected value or digest must be reported as a failed operation."""
    sys.dont_write_bytecode = True  # no .pyc files in the checkout
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    os.environ["COXFORGE_PURE_PYTHON"] = "1"
    import signal

    import paper
    import workloads
    from worker import Runner, _on_alarm

    signal.signal(signal.SIGALRM, _on_alarm)

    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=build_dir)
    try:
        instances = [
            workloads.Paper(1, workdir), workloads.Scaled(1, workdir),
            workloads.Lattice(1, workdir),
            workloads.Cli(1, workdir, ROOT, os.path.join(workdir, "pycache")),
        ]
        recorded = workloads.load_digests()
        for w in instances:
            op = w.ops[0]
            right = Runner(w, recorded[w.name])
            right.execute(op)
            assert right.failed == 0, f"{w.name}: {right.failures}"
            wrong = Runner(w, {op.key: "0" * 20})
            wrong.execute(op)
            assert wrong.failed == 1, f"{w.name}: a wrong digest was not reported"
            print(f"ok  {w.name}: wrong expected digest reported as a failure")
        w = instances[0]
        w.expected["01.minor_gcd"] = paper.EXPECTED["01.minor_gcd"] + 1
        wrong = Runner(w, recorded["paper"])
        wrong.execute(w.ops[0])
        assert wrong.failed == 1 and "01.minor_gcd" in wrong.failures[0], wrong.failures
        print("ok  paper: wrong expected criterion value reported as a failure")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace, args.seconds)
    check_wrong_expectations()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
