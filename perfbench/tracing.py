"""Per-layer tracing from outside the program.

The layers are qspan's modules.  A ``Tracer`` replaces, for the length
of one survey, the names one module imports from another (or calls
through its own globals) with timing wrappers, and puts the originals
back afterwards.  Nothing inside ``src/qspan`` changes.  A name the
calling module no longer has is skipped and reads as 0 calls.

Calls below the trial level run millions of times in a walk survey, so
they are aggregated per name: count, total time and self time (total
minus the time of wrapped calls made inside).  Calls from the trial
level up keep a full span: identifier, parent span, start and end, with
the survey index as the trace identifier.
"""

from __future__ import annotations

import importlib
import time

perf_counter = time.perf_counter

#: (module, attribute, layer, keep a span per call)
TARGETS = (
    ("qspan.cli", "run_experiment", "cli", True),
    ("qspan.cli", "render", "cli", True),
    ("qspan.cli", "critical_step_for_trial", "walk", True),
    ("qspan.cli", "critical_threshold_sample", "percolation", True),
    ("qspan.cli", "fit_power_law", "analysis", True),
    ("qspan.cli", "fit_exponent_scaling", "analysis", True),
    ("qspan.cli", "fit_saturating_power_law", "analysis", True),
    ("qspan.walk", "run_walk", "walk", False),
    ("qspan.walk", "brentq", "walk", False),
    ("qspan.walk", "minimize_scalar", "walk", False),
    ("qspan.walk", "random_state", "hilbert", False),
    ("qspan.walk", "to_coords", "hilbert", False),
    ("qspan.walk", "metric_tensor", "hilbert", False),
    ("qspan.walk", "random_tangent_step", "hilbert", False),
    ("qspan.walk", "state_from_angles", "hilbert", False),
    ("qspan.walk", "fs_distance", "hilbert", False),
    ("qspan.percolation", "random_cloud", "percolation", False),
    ("qspan.percolation", "pairwise_distances", "percolation", False),
    ("qspan.percolation", "critical_threshold", "percolation", False),
    ("qspan.percolation", "random_state", "hilbert", False),
)


class Stat:
    __slots__ = ("calls", "total", "self", "raises", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.raises = {}
        self.extra = {}


def _extra(name: str, result) -> dict:
    """Per-call quantities read off a return value (0 when absent)."""
    if name == "analysis.fit_saturating_power_law":
        return {"iterations": getattr(result, "n_iterations", 0)}
    return {}


class Tracer:
    def __init__(self):
        self.stats = {f"{layer}.{attr}": Stat() for _, attr, layer, _ in TARGETS}
        self.layer_self = {layer: 0.0 for _, _, layer, _ in TARGETS}
        #: (trace id, span id, parent span id, name, start, end)
        self.spans = []
        self.trace_id = 0
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name: str, layer: str, keep_span: bool):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            span_id = len(spans) if keep_span else parent
            if keep_span:
                spans.append(None)
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                stat.raises[kind] = stat.raises.get(kind, 0) + 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                own = duration - frame[1]
                stat.calls += 1
                stat.total += duration
                stat.self += own
                self.layer_self[layer] += own
                if stack:
                    stack[-1][1] += duration
                if keep_span:
                    spans[span_id] = (self.trace_id, span_id, parent, name, frame[0], end)
            for key, value in _extra(name, result).items():
                stat.extra[key] = stat.extra.get(key, 0) + value
            return result

        return traced

    def install(self, trace_id: int) -> None:
        self.trace_id = trace_id
        for module_name, attr, layer, keep_span in TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(original, f"{layer}.{attr}", layer, keep_span))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def durations(self, name: str) -> list:
        return [end - start for _, _, _, n, start, end in self.spans if n == name]
