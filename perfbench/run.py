"""coxforge benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads (see `workloads.py`): `paper`, `scaled`, `lattice`, `cli`.  Each
runs in its own single-threaded process (`worker.py`) as a closed loop with
one client.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object: `{"correct", "attempted", "failed", "metrics"}`.

The end-to-end metrics are `latency_p50_ms` and `latency_tail_ms` (median
and tail operation time; the tail's percentile and sample count are
printed beside it), `throughput_ops_s` (operations per second of
operation time), `ok_ratio` (1 - fail_ratio), `setup_s` and `peak_rss_mb`.

Times are paced: the speed a shared host gives this benchmark drifts by up
to 2x within seconds and between runs, so a reference computation runs
beside the operations (`reference.py`) and each operation time is divided
by how slowly the reference ran next to it, relative to the reference's
nominal time.  The figures read as times on a host where the reference
runs at its nominal speed.  The unpaced figures and the measured slowdown
are printed on a line of their own.

Set-up (`setup_s`: process start to first timed operation, i.e. interpreter
start, import, input generation and warm-up) is measured in several fresh
processes, each paced by reference interpreters started just before it,
and reported as the median.

The run pins its environment: the package comes from `src/` of this
checkout, the pure-Python kernel backend is selected, `COXFORGE_*`
overrides are cleared, in-process workloads compile the package from
source on every start, and CLI children share a bytecode cache under
`.bench_build/` (never `.pyc` files in `src/`).  Everything written goes
under `.bench_build/` and is removed at exit.

Other entry points: `smoke.py` (self-check), `compare.py` (parent vs
change), `record_digests.py` (re-record output digests).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

sys.dont_write_bytecode = True  # no .pyc files in the checkout
import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "scaled", "lattice", "cli")
SETUP_PROBES = 3          # extra set-ups per run; the worker's own is one more
SETUP_BUDGET_S = 20
SETUP_PACE_S = 0.6        # reference interpreters before each set-up
SETUP_PACE_NOMINAL_S = 0.35  # one, compiling from source as the worker does
WORKER_TIMEOUT_S = 150


def worker_env(workdir: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and not k.startswith("COXFORGE_")}
    nopyc = os.path.join(workdir, "nopyc")
    os.makedirs(nopyc, exist_ok=True)
    env.update(
        COXFORGE_PURE_PYTHON="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPYCACHEPREFIX=nopyc,   # empty: the package compiles on each start
    )
    return env


def start_worker(args, workdir: str, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time (start to `ready`).

    The set-up time is paced like the operations: divided by how slowly
    fresh reference interpreters ran just before it (`reference.Spawned`).
    """
    os.makedirs(workdir, exist_ok=True)
    pace = reference.Spawned(worker_env(workdir), SETUP_PACE_NOMINAL_S)
    ref_s, spawns = pace.run(SETUP_PACE_S)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(workdir),
                            text=True)
    line = proc.stdout.readline()
    elapsed = (perf_counter() - start) / (ref_s / (spawns * pace.nominal_s))
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, elapsed


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "coxforge", "__init__.py")):
        print(f"error: no coxforge package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=build_dir)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                proc, elapsed = start_worker(args, os.path.join(workdir, f"probe{i}"), True)
                finish(proc)
                setups.append(elapsed)
                if sum(setups) > SETUP_BUDGET_S:  # a broken set-up must not eat the run
                    break
        proc, elapsed = start_worker(args, os.path.join(workdir, "run"), False)
        setups.append(elapsed)
        report = json.loads(finish(proc).strip().splitlines()[-1])
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload} seed {args.seed}: backend {report['backend']}, "
          f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"cpu {cpu_model()}")
    for failure in report["failures"]:
        print(f"failed: {failure}")
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    metrics = report["metrics"]
    if args.trace:
        units = {}
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["ok_ratio"] = (attempted - failed) / attempted
        pace = report["latency"]
        print(f"latency_tail_ms is p{pace['percentile']} of {pace['samples']} samples "
              f"({pace['beyond']} beyond it)")
        print(f"pace: the reference ran {pace['slowdown']:.3f}x its nominal time; unpaced "
              f"latency_p50_ms {pace['unpaced_p50_ms']:.3f}, throughput_ops_s "
              f"{pace['unpaced_ops_s']:.3f}")
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "ops/s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith(".calls") or name.endswith(".out"):
        return "count"
    if name.endswith("max_bits"):
        return "bits"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
