"""Outside-in span tracing for the benchmark's traced runs.

Nothing under ``src/`` is instrumented.  A traced pass rebinds, for its own
duration, (a) the public functions the benchmark calls and (b) the public
names through which one layer calls another, to thin wrappers that record a
span per call.  Spans live in memory; self time is a span's duration minus the
time its child spans cover.  Untraced passes run with every original restored.
"""

from __future__ import annotations

import functools
import threading
import time

# modules whose functions are layer boundaries (numerics and errors are not)
LAYERS = ("windows", "zak", "gabor", "lattice", "orbit", "trigpoly", "cocycle", "cli")

PHASE_SPANS = {
    "cocycle.phase_cocycle_iterate",
    "cocycle.phase_at_step",
    "cocycle.phase_mean_along_orbit",
    "cocycle.normalized_phase_sequence",
}
CLUSTER_SPANS = {
    "cocycle.cluster_set_c1",
    "cocycle.cluster_set_c2",
    "cocycle.cluster_sets_match",
}

# span record layout: [id, parent id, name, start, end, count, failed]
_ID, _PARENT, _NAME, _START, _END, _COUNT, _FAILED = range(7)


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[list] = []
        # counters that are not one number per span (e.g. zak lattice terms)
        self.extra: dict[str, int] = {"zak_lattice_terms": 0}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, counter=None):
        stack = self._stack()
        with self._lock:
            span = [len(self.spans), stack[-1][_ID] if stack else None, name, 0.0, 0.0, 0, False]
            self.spans.append(span)
        stack.append(span)
        span[_START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[_FAILED] = True
            raise
        finally:
            span[_END] = time.perf_counter()
            stack.pop()
        if counter is not None:
            span[_COUNT] = counter(self, args, kwargs, result)
        return result

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    def summarize(self) -> dict:
        """Per span name: calls, self_s, failed, count; plus derived counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] is not None:
                child_time[s[_PARENT]] += s[_END] - s[_START]
        names: dict[str, dict] = {}
        for s in spans:
            rec = names.setdefault(s[_NAME], {"calls": 0, "self_s": 0.0, "failed": 0, "count": 0})
            rec["calls"] += 1
            rec["self_s"] += s[_END] - s[_START] - child_time[s[_ID]]
            rec["failed"] += int(s[_FAILED])
            rec["count"] += s[_COUNT]

        derived = {"haar_single_point_evals": 0, "phase_steps": 0, **self.extra}
        for s in spans:
            if s[_NAME] == "trigpoly.eval_points" and s[_COUNT] == 1:
                derived["haar_single_point_evals"] += self._below(s, lambda n: n == "cocycle.theta_haar")
            elif s[_NAME] == "trigpoly.eval":
                derived["phase_steps"] += self._below(s, PHASE_SPANS.__contains__)
        return {"names": names, "derived": derived}

    def _below(self, span, match) -> bool:
        """Whether some ancestor of ``span`` has a name for which ``match`` holds."""
        p = span[_PARENT]
        while p is not None:
            if match(self.spans[p][_NAME]):
                return True
            p = self.spans[p][_PARENT]
        return False

    def durations(self, span_name: str, under: str | None = None) -> list[float]:
        """Durations of spans called ``span_name`` (optionally below a span
        whose name starts with ``under``)."""
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == span_name
                and (under is None or self._below(s, lambda n: n.startswith(under)))]


def merge_summaries(total: dict, part: dict) -> None:
    for name, rec in part["names"].items():
        dst = total["names"].setdefault(name, dict.fromkeys(rec, 0))
        for key, val in rec.items():
            dst[key] += val
    for key, val in part["derived"].items():
        total["derived"][key] = total["derived"].get(key, 0) + val


def empty_summary() -> dict:
    return {"names": {}, "derived": {}}


# -- counters -----------------------------------------------------------------


def _rows(arr) -> int:
    shape = getattr(arr, "shape", None)
    if shape is None:
        return len(arr)
    return 1 if len(shape) < 2 else int(shape[0])


def _count_window_points(tracer, args, kwargs, result):
    # args[0] is the window; a flat array is n one-dimensional points
    return len(args[1])


def _count_poly_points(tracer, args, kwargs, result):
    # args[0] is the polynomial; a flat array is a single torus point
    return _rows(args[1])


def _count_orbit_points(tracer, args, kwargs, result):
    return int(result.shape[0])


def _count_zak_transform(tracer, args, kwargs, result):
    """Span count: grid values M^{2d}; also the computed lattice terms
    (2K+1)^d M^{2d} the direct sums evaluate."""
    d, m, k = result.dimension, result.resolution, result.truncation
    tracer.extra["zak_lattice_terms"] += (2 * k + 1) ** d * m ** (2 * d)
    return int(result.values.size)


COUNTERS = {
    "windows.eval_many": _count_window_points,
    "trigpoly.eval_points": _count_poly_points,
    "orbit.orbit_points": _count_orbit_points,
    "zak.zak_transform": _count_zak_transform,
}


# -- installation ---------------------------------------------------------------


def _layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Installation:
    """Wrappers installed into gaborzak for one traced pass; ``restore``
    puts every original back."""

    def __init__(self, tracer: Tracer):
        from gaborzak import cli, cocycle, orbit, trigpoly, windows, zak
        from gaborzak.cocycle import SyntheticPhaseField
        from gaborzak.trigpoly import TrigPolynomial

        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        # inter-layer names, rebound where the calling module looks them up
        for owner, attr in (
            (zak, "decay_bound"),
            (zak, "_choose_truncation"),
            (zak, "zak_point"),
            (orbit, "hnf_basis"),
            (orbit, "kernel_of_form"),
            (orbit, "smith_normal_form"),
            (trigpoly, "lattice_contains"),
            (cocycle, "orbit_points"),
            (cocycle, "haar_sample_points"),
        ):
            self._rebind(owner, attr)
        for cls in (windows.GaussianWindow, windows.HermiteWindow, windows.SampledGridWindow):
            self._rebind(cls, "eval_many")
        for attr in ("eval", "eval_points"):
            self._rebind(TrigPolynomial, attr)
        self._rebind(SyntheticPhaseField, "phase_at_step")
        self._cli = cli

    def wrapper(self, fn):
        """The traced stand-in for ``fn`` (one per function object)."""
        key = id(fn)
        if key not in self._wrappers:
            name = f"{_layer_of(fn)}.{fn.__name__}"
            self._wrappers[key] = self.tracer.wrap(name, fn, COUNTERS.get(name))
        return self._wrappers[key]

    def _rebind(self, owner, attr: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(original))

    def rebind_cli_imports(self) -> None:
        """Wrap every compute-layer function the cli module imported by name,
        so cli self time is argument parsing, formatting and its own loops."""
        cli = self._cli
        for attr, val in list(vars(cli).items()):
            if callable(val) and getattr(val, "__module__", "").startswith("gaborzak."):
                if _layer_of(val) in LAYERS and _layer_of(val) != "cli" and not isinstance(val, type):
                    self._rebind(cli, attr)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
