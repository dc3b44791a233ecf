"""In-memory span tracing of noiselab's public functions, from outside.

`instrument(tracer)` wraps each function listed in TARGETS and rebinds the
wrapper under every name that points at the original in any loaded
``noiselab`` module: ``fitting`` imports ``schedule_superoperator`` and
``extract_phasors`` by name and ``analysis`` imports ``minimize_multistart``
by name, so patching only the defining module would miss those calls.  The
originals are put back when the block exits.

A span is (name, start, end, parent index, op id).  `rollup` turns the span
list into per-layer calls, self time (duration minus the time covered by
child spans) and total time (outermost spans of a name only, so recursion
such as ``generate_campaign`` -> ``generate_batch`` counts once).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import os
import sys
import time

import numpy as np

# (module, attribute) -> span name.  Several functions may share one span
# name; that name is then the layer metric for all of them.
TARGETS: dict[tuple[str, str], str] = {
    ("noiselab.pauli", "build_generator"): "pauli.build_generator",
    ("noiselab.pauli", "propagate"): "pauli.propagate",
    ("noiselab.schedule", "schedule_superoperator"): "schedule.schedule_superoperator",
    ("noiselab.models", "markovian_generator"): "models.generator",
    ("noiselab.models", "qubit_tls_generator"): "models.generator",
    ("noiselab.models", "markovian_idle_bloch"): "models.idle_bloch",
    ("noiselab.models", "qubit_tls_idle_bloch"): "models.idle_bloch",
    ("noiselab.models", "pmme_idle_bloch"): "models.idle_bloch",
    ("noiselab.optim", "minimize_multistart"): "optim.minimize_multistart",
    ("noiselab.optim", "central_jacobian"): "optim.central_jacobian",
    ("noiselab.fitting", "fit_model"): "fitting.fit_model",
    ("noiselab.analysis", "extract_phasors"): "analysis.extract_phasors",
    ("noiselab.analysis", "fit_purity"): "analysis.fit_purity",
    ("noiselab.analysis", "fit_single_frequency"): "analysis.fit_single_frequency",
    ("noiselab.analysis", "detect_nonmarkovianity"): "analysis.detect_nonmarkovianity",
    ("noiselab.synth", "generate_batch"): "synth.generate",
    ("noiselab.synth", "generate_grid_batch"): "synth.generate",
    ("noiselab.synth", "generate_campaign"): "synth.generate",
    ("noiselab.synth", "write_records_csv"): "synth.write_records",
    ("noiselab.synth", "write_records_jsonl"): "synth.write_records",
    ("noiselab.synth", "read_records_csv"): "synth.read_records",
    ("noiselab.synth", "read_records_jsonl"): "synth.read_records",
    ("noiselab.cli", "cmd_simulate"): "cli.cmd_simulate",
    ("noiselab.cli", "cmd_analyze"): "cli.cmd_analyze",
}

# calls whose arguments are hashed to count repeated identical work
HASHED = ("analysis.extract_phasors", "analysis.fit_purity")

# PowerEngine is a class: its two methods are patched on the class itself
ENGINE = "pauli.PowerEngine"
ENGINE_METHODS = ("__init__", "states")

OBJECTIVE = "optim.objective"


class Tracer:
    """Span recorder plus the counters that live at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = "setup"
        self.digests: dict[str, list[bool]] = {name: [] for name in HASHED}
        self._seen: set[tuple[str, str]] = set()
        self.write_bytes = 0

    def begin_op(self, op_id: str) -> None:
        """Start a new op: spans get its id and duplicate detection resets."""
        self.op = op_id
        self._seen = set()

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def note_call(self, name: str, bound: inspect.BoundArguments) -> None:
        key = (name, digest(list(bound.arguments.items())))
        self.digests[name].append(key in self._seen)
        self._seen.add(key)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def digest(obj) -> str:
    """Stable sha256 of nested arrays, sequences and plain values."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"nd{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(f"seq{len(x)}(".encode())
            for item in x:
                feed(item)
            h.update(b")")
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _wrap(tracer: Tracer, name: str, fn):
    if name == "optim.minimize_multistart":
        @functools.wraps(fn)
        def wrapper(fun, *args, **kwargs):
            def objective(x):
                return tracer.span(OBJECTIVE, fun, x)
            return tracer.span(name, fn, objective, *args, **kwargs)
    elif name in HASHED:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # bind to the signature so positional, keyword and defaulted
            # spellings of one call hash alike
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.note_call(name, bound)
            return tracer.span(name, fn, *args, **kwargs)
    elif name == "synth.write_records":
        @functools.wraps(fn)
        def wrapper(records, path, *args, **kwargs):
            out = tracer.span(name, fn, records, path, *args, **kwargs)
            tracer.write_bytes += os.path.getsize(path)
            return out
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)
    return wrapper


def _noiselab_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "noiselab" or n.startswith("noiselab.")]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind every TARGETS function (and the PowerEngine methods) to a
    span-recording wrapper in all loaded noiselab modules; restore on exit."""
    import noiselab.cli  # noqa: F401  -- load every module that imports a target
    from noiselab.pauli import PowerEngine

    restore: list[tuple[object, str, object]] = []
    try:
        wrappers = {}
        for (modname, attr), name in TARGETS.items():
            orig = getattr(sys.modules[modname], attr)
            wrappers[id(orig)] = (orig, _wrap(tracer, name, orig))
        for module in _noiselab_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for method in ENGINE_METHODS:
            orig = PowerEngine.__dict__[method]
            restore.append((PowerEngine, method, orig))
            setattr(PowerEngine, method, _wrap(tracer, f"{ENGINE}.{method}", orig))
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# rollup

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def rollup(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s (duration minus child coverage) and
    total_s (duration of spans with no ancestor of the same name)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children.setdefault(parent, []).append((max(start, p_start), min(end, p_end)))
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(children.get(i, []))
        outer = True
        j = parent
        while j >= 0:
            if spans[j][0] == name:
                outer = False
                break
            j = spans[j][3]
        if outer:
            row["total_s"] += end - start
    return out


def child_total(spans: list[tuple], name: str, parent_name: str) -> float:
    """Summed duration of `name` spans whose direct parent is `parent_name`."""
    return sum(
        end - start
        for n, start, end, parent, _ in spans
        if n == name and parent >= 0 and spans[parent][0] == parent_name
    )
