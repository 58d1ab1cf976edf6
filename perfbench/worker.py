"""The workload process: set-up, then a closed loop with one client.

Started by `run.py`; not meant to be run by hand.  It prints `ready` when
set-up ends (import, inputs, warm-up) and, unless `--setup-only`, one JSON
line with its measurements after the timed phase.

The loop runs whole passes over the workload's operations and stops after
the pass in which the summed operation and reference time reaches
`--seconds`; operation times are paced by the reference (`reference.py`,
`paced`).  Each operation runs under a deadline; an overrun, an
exception, an oracle failure or a changed output digest counts as a
failed operation, and the loop goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

import kernel_cases
import reference
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OVERRUN_S = 30.0
REF_SHARE = 0.25     # reference time per unit of operation time
CLI_PACE_NOMINAL_S = 0.1  # a reference interpreter with the CLI's warm cache
REF_WINDOW = 8       # operations on each side whose reference runs pace one


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def tail_index(n: int, percentile: float) -> int:
    """Nearest-rank index of a percentile in a sorted sample of size n."""
    k = -(-percentile * n // 100)
    return max(0, min(n - 1, int(k) - 1))


def tail(durations: list[float], percentile: int) -> tuple[float, int, int]:
    """The workload's tail percentile, stepped down until >= 10 samples lie beyond.

    Returns (value, percentile used, samples beyond it).
    """
    ordered = sorted(durations)
    n = len(ordered)
    for p in [percentile] + [q for q in (90, 80, 75, 50) if q < percentile]:
        i = tail_index(n, p)
        beyond = n - 1 - i
        if beyond >= 10 or p == 50:
            return ordered[i], p, beyond
    raise AssertionError("unreachable")


class Runner:
    def __init__(self, workload, digests: dict) -> None:
        self.workload = workload
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        if workload.name == "cli":  # the children's cache state, not their source tree
            env = {k: v for k, v in workload.env.items() if k != "PYTHONPATH"}
            self.pace = reference.Spawned(env, CLI_PACE_NOMINAL_S)
        else:
            self.pace = reference.InProcess()

    def execute(self, op) -> float:
        """Run one operation under its deadline, check it; return seconds."""
        signal.setitimer(signal.ITIMER_REAL, self.workload.deadline_s)
        start = perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a failed operation must not stop the loop
            error = exc
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.attempted += 1
        if error is None:
            error = self.check(op, result)
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.key}: {type(error).__name__}: {error}")
        return elapsed

    def check(self, op, result):
        try:
            plain = op.check(result)
        except Exception as exc:
            return exc
        expected = self.digests.get(op.key)
        got = workloads.digest(plain)
        if got != expected:
            return AssertionError(f"output digest {got} differs from recorded {expected}")
        return None

    def passes(self, seconds: float) -> list[tuple[float, float, int]]:
        """Whole passes until the summed operation and reference time reaches `seconds`.

        After each operation the reference computation runs for a share of
        the operation's time.  Returns one (operation seconds, reference
        seconds, reference chunks) triple per operation.  A pass is cut
        short only past `seconds + OVERRUN_S`, so that a run whose
        operations all hit their deadline still ends in time.
        """
        samples: list[tuple[float, float, int]] = []
        total = 0.0
        while True:
            for op in self.workload.ops:
                d = self.execute(op)
                r, c = self.pace.run(REF_SHARE * d)
                samples.append((d, r, c))
                total += d + r
                if total >= seconds + OVERRUN_S:
                    return samples
            if total >= seconds:
                return samples


def paced(samples, nominal_s: float) -> list[float]:
    """Operation times at the reference's nominal speed.

    Each is divided by how slowly the reference ran over the window of
    operations around it: the window's reference seconds over its
    reference units times `nominal_s`.
    """
    out = []
    for i, (d, _, _) in enumerate(samples):
        window = samples[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        slowdown = sum(s[1] for s in window) / (sum(s[2] for s in window) * nominal_s)
        out.append(d / slowdown)
    return out


def build(args):
    """Import the package from the checkout and build the workload."""
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:  # the package is imported by the children only
        return cls(args.seed, args.workdir, args.root, os.path.join(args.workdir, "pycache"))
    import coxforge

    src = os.path.join(args.root, "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(coxforge.__file__))) != src:
        raise SystemExit(f"coxforge imported from {coxforge.__file__}, not {src}")
    return cls(args.seed, args.workdir)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = build(args)
    runner = Runner(workload, workloads.load_digests().get(workload.name, {}))
    for op in workload.warmup:  # counted as attempted: a broken warm-up shows
        runner.execute(op)
    runner.pace.run(0.0)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out = {"ops_per_pass": len(workload.ops)}
    if args.trace:
        out["metrics"] = traced_run(args, workload, runner)
    else:
        samples = runner.passes(args.seconds)
        durations = paced(samples, runner.pace.nominal_s)
        value, pct, beyond = tail(durations, workload.tail_percentile)
        raw = [d for d, _, _ in samples]
        out["metrics"] = {
            "latency_p50_ms": statistics.median(durations) * 1e3,
            "latency_tail_ms": value * 1e3,
            "throughput_ops_s": len(durations) / sum(durations),
            "peak_rss_mb": peak_rss_mb(workload),
        }
        out["latency"] = {
            "percentile": pct, "samples": len(durations), "beyond": beyond,
            "slowdown": (sum(s[1] for s in samples)
                         / (sum(s[2] for s in samples) * runner.pace.nominal_s)),
            "unpaced_p50_ms": statistics.median(raw) * 1e3,
            "unpaced_ops_s": len(raw) / sum(raw),
        }
    from coxforge import _kernels  # after timing: the CLI worker needs no import

    out["backend"] = _kernels.BACKEND
    out["attempted"] = runner.attempted
    out["failed"] = runner.failed
    out["failures"] = runner.failures
    print(json.dumps(out), flush=True)
    return 0


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process, or of the largest child for the CLI."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_run(args, workload, runner) -> dict:
    """Untraced then traced passes over the same operations.

    Layer counts come from the first traced pass and are exact; layer times
    average all traced passes; `trace.overhead` is the ratio of the two
    phases' median operation times.
    """
    from coxforge import _kernels

    micro, attempted, failed = kernel_cases.run(_kernels, args.seed)
    runner.attempted += attempted
    runner.failed += failed
    budget = max(args.seconds / 2, 0.1)
    untraced = runner.passes(budget)
    if workload.name == "cli":
        traced, summaries, import_ms = traced_cli_passes(runner, workload, budget)
        counted = tracing.merge(summaries[: len(workload.ops)])
        timed = tracing.merge(summaries)
        extra = cli_startup_metrics(args, workload)
        extra["cli.import_ms"] = statistics.median(import_ms)
    else:
        t = tracing.Tracer()
        t.install()
        try:
            traced, summaries = [], []
            while not traced or sum(d for d, _, _ in traced) < budget:
                traced += runner.passes(0.0)
                summaries.append(t.take())
        finally:
            t.uninstall()
        counted, timed = summaries[0], tracing.merge(summaries)
        extra = {name: 0.0 for name in cli_metric_names()}
    metrics = tracing.layer_metrics(counted, len(workload.ops), timed, len(traced))
    metrics.update(extra)
    metrics.update(micro)
    nominal = runner.pace.nominal_s
    metrics["trace.overhead"] = (statistics.median(paced(traced, nominal))
                                 / statistics.median(paced(untraced, nominal)))
    return metrics


def traced_cli_passes(runner, workload, budget):
    """CLI passes whose children trace themselves and report to a file."""
    summaries, import_ms, traced = [], [], []
    report = os.path.join(workload.inputs, "trace.json")
    entry = workload.prefix
    workload.prefix = [sys.executable, os.path.join(HERE, "cli_child.py")]
    workload.env["PERFBENCH_TRACE_OUT"] = report
    while not traced or sum(d for d, _, _ in traced) < budget:
        for op in workload.ops:
            d = runner.execute(op)
            traced.append((d, *runner.pace.run(REF_SHARE * d)))
            try:
                with open(report, encoding="utf-8") as fh:
                    data = json.load(fh)
            except FileNotFoundError:  # the child failed; already counted
                continue
            os.unlink(report)
            summaries.append(data["summary"])
            import_ms.append(data["import_ms"])
    del workload.env["PERFBENCH_TRACE_OUT"]
    workload.prefix = entry
    return traced, summaries, import_ms


IMPORT_MODULES = ("coxforge", "coxforge.errors", "coxforge._kernels", "coxforge._kernels_py",
                  "coxforge.intlattice", "coxforge.coxpres", "coxforge.galefan",
                  "coxforge.singular", "coxforge.vgit", "coxforge.blowup",
                  "coxforge.formats", "coxforge.cli")


def import_metric(module: str) -> str:
    short = "package" if module == "coxforge" else module.split(".", 1)[1]
    return f"cli.import_ms.{short}"


def cli_metric_names() -> list[str]:
    return (["cli.interp_ms", "cli.import_ms", "cli.import_ms.stdlib"]
            + [import_metric(m) for m in IMPORT_MODULES])


def coxforge_import_tree(importtime: str) -> list[tuple[str, int]]:
    """(module, self microseconds) of every import made by `import coxforge.cli`.

    `-X importtime` prints each import when it completes, children first and
    indented one level deeper, so a top-level `coxforge*` line closes the
    subtree of lines since the previous top-level line.  Interpreter start-up
    imports (site, encodings) are other top-level entries and are left out.
    """
    out, pending = [], []
    for line in importtime.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        raw = fields[2][1:]
        module = raw.strip()
        pending.append((module, int(fields[0])))
        if raw == module:  # top level
            if module.split(".")[0] == "coxforge":
                out.extend(pending)
            pending = []
    return out


def cli_startup_metrics(args, workload, repeats: int = 5) -> dict:
    """Bare interpreter start and `-X importtime` self times, medians of runs."""
    import subprocess

    interp, per_module = [], {name: [] for name in cli_metric_names()[2:]}
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=workload.env, check=True)
        interp.append((perf_counter() - start) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import coxforge.cli"],
            env=workload.env, check=True, capture_output=True, text=True,
        )
        totals = {name: 0.0 for name in per_module}
        for module, self_us in coxforge_import_tree(proc.stderr):
            key = import_metric(module) if module in IMPORT_MODULES else "cli.import_ms.stdlib"
            totals[key] += self_us / 1e3
        for name, value in totals.items():
            per_module[name].append(value)
    out = {"cli.interp_ms": statistics.median(interp)}
    out.update({name: statistics.median(v) for name, v in per_module.items()})
    return out


if __name__ == "__main__":
    sys.exit(main())
