"""Outside-in tracer: spans around calls into each layer of coxforge.

The tracer changes no code of the package.  `install` wraps every public
function of each layer module and every dataclass `__post_init__`
validator, and rebinds each module namespace entry that refers to the
same function object, so calls from one module into another (and from the
benchmark into the package) are caught too.  Spans record name, start, end and parent; a span's self time is its
duration minus that of its child spans.  Kernel spans also record how many
distinct inputs were seen and the largest operand bit length.
"""

from __future__ import annotations

import importlib
import sys
import types
from time import perf_counter

# Layer order matters: a function re-exported by a later module (say
# `coxforge.cli` importing `well_form`) belongs to the module that owns it.
LAYERS = (
    "_kernels",
    "intlattice",
    "coxpres",
    "galefan",
    "singular",
    "vgit",
    "blowup",
    "formats",
    "cli",
)

# Calls whose result length is recorded as the span's output count.
_COUNT_OUTPUT = {"coxpres.minimal_transversals", "vgit.graded_ring_generators"}


def _public_functions(module) -> list[tuple[str, types.FunctionType]]:
    names = getattr(module, "__all__", None)
    if names is None:  # intlattice has no __all__: take its own public functions
        names = [
            n for n, v in vars(module).items()
            if not n.startswith("_") and isinstance(v, types.FunctionType)
            and v.__module__ == module.__name__
        ]
    out = []
    for n in names:
        v = getattr(module, n)
        if isinstance(v, types.FunctionType):
            out.append((n, v))
    return out


def _validators(module) -> list[type]:
    return [
        v for v in vars(module).values()
        if isinstance(v, type) and v.__module__ == module.__name__
        and "__post_init__" in vars(v)
    ]


class Tracer:
    """Records spans while installed; `take` returns and clears them."""

    def __init__(self) -> None:
        self.names: list[str] = []          # span name per name id
        self.layer_of: list[str] = []       # layer per name id
        self.validator: list[bool] = []     # name id is a __post_init__
        self.spans: list[list] = []         # [name_id, start, end, parent, out]
        self.stack: list[int] = []
        self.kernel_inputs: set = set()
        self.max_bits = 0
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def _name_id(self, name: str, layer: str, validator: bool) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.validator.append(validator)
        return len(self.names) - 1

    def _wrap(self, fn, name_id: int, kernel: bool, count_output: bool):
        spans, stack = self.spans, self.stack
        tracer = self

        def traced(*args, **kwargs):
            if kernel:
                rows = args[0]
                key = tuple(map(tuple, rows))
                tracer.kernel_inputs.add((name_id, key))
                bits = max((abs(x).bit_length() for row in key for x in row), default=0)
                if bits > tracer.max_bits:
                    tracer.max_bits = bits
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count_output:
                span[4] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer; the modules must already be importable."""
        modules = {layer: importlib.import_module(f"coxforge.{layer}") for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, module in modules.items():
            for fname, fn in _public_functions(module):
                if id(fn) in replace:
                    continue
                name = f"{layer}.{fname}"
                nid = self._name_id(name, layer, False)
                replace[id(fn)] = self._wrap(
                    fn, nid, layer == "_kernels", name in _COUNT_OUTPUT
                )
            for cls in _validators(module):
                fn = vars(cls)["__post_init__"]
                nid = self._name_id(f"{layer}.{cls.__name__}.__post_init__", layer, True)
                self._undo.append((cls, "__post_init__", fn))
                setattr(cls, "__post_init__", self._wrap(fn, nid, False, False))
        # Every module, so that the benchmark's own `from coxforge... import`
        # names are caught as well as the package's cross-module ones.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def take(self) -> dict:
        """Summarise and clear the spans recorded since the last call."""
        result = summarize(self, self.spans)
        self.spans.clear()
        self.kernel_inputs.clear()
        self.max_bits = 0
        return result


def _nested_in(spans, parent, pred) -> bool:
    while parent >= 0:
        if pred(parent):
            return True
        parent = spans[parent][3]
    return False


def summarize(tracer: Tracer, spans: list) -> dict:
    """Totals of one traced pass, as JSON-ready data.

    `inclusive_s` counts only the outermost span of each name, and
    `validate_s` only validators not nested in another validator of the
    same layer, so that recursion is not counted twice.
    """
    names, layers, validator = tracer.names, tracer.layer_of, tracer.validator
    out = {
        "calls": {},
        "self_s": {layer: 0.0 for layer in LAYERS},
        "inclusive_s": {},
        "outputs": {},
        "validate_calls": {layer: 0 for layer in LAYERS},
        "validate_s": {layer: 0.0 for layer in LAYERS},
        "distinct_kernel_inputs": len(tracer.kernel_inputs),
        "max_bits": tracer.max_bits,
    }
    calls, self_s, inclusive = out["calls"], out["self_s"], out["inclusive_s"]
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    for i, (nid, start, end, parent, count) in enumerate(spans):
        name, layer = names[nid], layers[nid]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[layer] += dur - child[i]
        if count is not None:
            out["outputs"][name] = out["outputs"].get(name, 0) + count
        if not _nested_in(spans, parent, lambda p: spans[p][0] == nid):
            inclusive[name] = inclusive.get(name, 0.0) + dur
        if validator[nid]:
            out["validate_calls"][layer] += 1
            if not _nested_in(spans, parent, lambda p: validator[spans[p][0]]
                              and layers[spans[p][0]] == layer):
                out["validate_s"][layer] += dur
    return out


def merge(summaries: list[dict]) -> dict:
    """Sum pass summaries (the largest operand is a maximum)."""
    out = {"calls": {}, "self_s": {}, "inclusive_s": {}, "outputs": {},
           "validate_calls": {}, "validate_s": {}, "distinct_kernel_inputs": 0,
           "max_bits": 0}
    for s in summaries:
        for key in ("calls", "self_s", "inclusive_s", "outputs", "validate_calls",
                    "validate_s"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["distinct_kernel_inputs"] += s["distinct_kernel_inputs"]
        out["max_bits"] = max(out["max_bits"], s["max_bits"])
    return out


def layer_metrics(counted: dict, n_counted: int, timed: dict, n_timed: int) -> dict:
    """Per-operation layer metrics.

    Counts come from `counted` (whole passes, so they are exact) and times
    from `timed`; each is divided by its number of operations.
    """
    calls = counted["calls"]
    kernel_calls = {k: calls.get(f"_kernels.{k}", 0) for k in ("smith", "hnf", "det")}
    total_kernel = sum(kernel_calls.values())
    games = calls.get("vgit.two_ray_game", 0)

    def per_op(n):
        return n / n_counted

    def ms(seconds):
        return seconds * 1e3 / n_timed

    def inclusive(prefix):
        return sum(v for k, v in timed["inclusive_s"].items() if k.startswith(prefix))

    def layer_calls(layer):
        return sum(n for name, n in calls.items()
                   if name.startswith(layer + ".") and not name.endswith(".__post_init__"))

    m = {f"kernels.{k}.calls": per_op(n) for k, n in kernel_calls.items()}
    m.update({
        "kernels.distinct_ratio": (counted["distinct_kernel_inputs"] / total_kernel
                                   if total_kernel else 0.0),
        "kernels.self_ms": ms(timed["self_s"].get("_kernels", 0.0)),
        "kernels.max_bits": counted["max_bits"],
        "intlattice.calls": per_op(layer_calls("intlattice")),
        "intlattice.self_ms": ms(timed["self_s"].get("intlattice", 0.0)),
        "coxpres.validate.calls": per_op(counted["validate_calls"].get("coxpres", 0)),
        "coxpres.validate_ms": ms(timed["validate_s"].get("coxpres", 0.0)),
        "galefan.validate_ms": ms(timed["validate_s"].get("galefan", 0.0)),
        "coxpres.equivalent_ms": ms(inclusive("coxpres.presentations_equivalent")),
        "coxpres.transversals_ms": ms(inclusive("coxpres.minimal_transversals")),
        "coxpres.transversals.out": per_op(
            counted["outputs"].get("coxpres.minimal_transversals", 0)),
        "vgit.generators_ms": ms(inclusive("vgit.graded_ring_generators")),
        "vgit.generators.out": per_op(
            counted["outputs"].get("vgit.graded_ring_generators", 0)),
        "vgit.sweeps_per_game": (calls.get("vgit.chambers_rank2", 0) / games
                                 if games else 0.0),
        "formats.parse_ms": ms(inclusive("formats.parse_")),
        "formats.serialize_ms": ms(inclusive("formats.serialize_")),
        "cli.compute_ms": ms(inclusive("cli.main")),
    })
    for layer in ("vgit", "coxpres", "galefan", "singular", "blowup"):
        m[f"{layer}.self_ms"] = ms(timed["self_s"].get(layer, 0.0))
    return m
