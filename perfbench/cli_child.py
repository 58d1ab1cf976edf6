"""A traced CLI invocation: `cli_child.py VERB ARGS...`, as the console script.

Used by the traced `cli` run.  It times `import coxforge.cli`, runs
`coxforge.cli.main` under the tracer and writes the import time and the
span summary as JSON to the file named by `PERFBENCH_TRACE_OUT`.  Stdout
and the exit code are the CLI's own.
"""

import json
import os
import sys
from time import perf_counter

start = perf_counter()
import coxforge.cli  # noqa: E402  (timed above)

import_ms = (perf_counter() - start) * 1e3

import tracer  # noqa: E402

t = tracer.Tracer()
t.install()
try:
    code = coxforge.cli.main(sys.argv[1:])
finally:
    t.uninstall()
sys.stdout.flush()
with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
    json.dump({"import_ms": import_ms, "summary": t.take()}, fh)
sys.exit(code)
