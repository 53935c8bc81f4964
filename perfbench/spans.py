"""Per-layer tracing of one sweep by wrapping the public functions of each layer.

The wrappers are installed on the names the simulator looks up at call
time and removed afterwards; nothing under src/ changes.  Each wrapped
call is a span.  A span's self time is its duration minus the time of
the spans it encloses, so the layers' self times add up to the time
spent inside traced functions without double counting.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from common import BenchError

# Span name -> (module or class path inside bccsim, attribute).  The
# montecarlo entries wrap the names montecarlo binds, which are the ones
# its block loop calls.
TARGETS = {
    "link.generate_received": ("montecarlo", "generate_received"),
    "link.generate_data_symbols": ("montecarlo", "generate_data_symbols"),
    "detectors.compute_training_stats": ("montecarlo", "compute_training_stats"),
    "detectors.detect": ("montecarlo", "detect"),
    "detectors.mrc_detect": ("montecarlo", "mrc_detect"),
    "detectors.fuse": ("detectors", "fuse"),
    "channels.BurrXII.inverse_cdf": ("channels.BurrXII", "inverse_cdf"),
    "channels.Weibull.inverse_cdf": ("channels.Weibull", "inverse_cdf"),
    "cli.format_csv": ("cli", "format_csv"),
}


class Tracer:
    """Aggregated spans: per name the call count and self nanoseconds, plus
    work counters recorded at the same boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self._child_ns = []

    def wrap(self, name, fn, count=None, label=None):
        """Return ``fn`` wrapped in a span.

        ``count(counts, args, result)`` adds to the work counters after a
        successful call; ``label(args)`` picks the span name from the arguments.
        """
        stack = self._child_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = label(args) if label else name
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{span}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                duration = perf_counter_ns() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += duration
                self.calls[span] += 1
                self.self_ns[span] += duration - inner
            if count:
                count(self.counts, args, result)
            return result

        return traced


def _count_slots(counts, args, result):
    counts["channels.inverse_cdf.slots"] += np.size(args[1])


def _count_frame(counts, args, result):
    counts["link.generate_received.slots"] += result.y.size
    counts["link.generate_received.bytes_computed"] += result.y.nbytes + result.h.nbytes


def _hooks(name):
    if name.endswith(".inverse_cdf"):
        return {"count": _count_slots}
    if name == "link.generate_received":
        return {"count": _count_frame}
    if name == "detectors.detect":
        # detect's self time is the weight rule of its technique; fuse is a child.
        return {"label": lambda args: f"detectors.weights.{args[0]}"}
    return {}


@contextlib.contextmanager
def traced():
    """Install every TARGETS wrapper for the duration of the block.

    A target that no longer exists raises BenchError at once, so a rename
    fails the trace loudly instead of reporting zero calls.  Originals are
    restored on exit, also when the block raises.
    """
    tracer = Tracer()
    installed = []
    try:
        for name, (path, attr) in TARGETS.items():
            module, _, cls = path.partition(".")
            try:
                owner = importlib.import_module(f"bccsim.{module}")
            except ImportError:
                owner = None
            if cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                raise BenchError(f"trace target bccsim.{path}.{attr} does not exist")
            setattr(owner, attr, tracer.wrap(name, original, **_hooks(name)))
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def check_coverage(tracer: Tracer, uncalled=frozenset()) -> None:
    """Raise BenchError when a target the workload reaches recorded no call."""
    called = set(tracer.calls)
    if any(name.startswith("detectors.weights.") for name in called):
        called.add("detectors.detect")
    missing = [name for name in TARGETS if name not in uncalled and name not in called]
    if missing:
        raise BenchError(f"traced functions recorded no call: {', '.join(missing)}")
