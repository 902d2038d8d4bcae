"""Declarative SLO objectives evaluated over sliding sample windows.

An :class:`SloObjective` names one promise the service makes — "p99
query latency stays under 250 ms", "the error rate stays under 1%",
"ingest lag stays at zero windows" — and an :class:`SloTracker` holds
the recent samples each objective is judged on.  Evaluation is a pure
function of the samples inside the objective's sliding window under the
tracker's injectable clock, so a fake clock makes every verdict exact
in tests (the same determinism contract the tracer has).

Each objective resolves to one of three states:

- ``ok``        the aggregated value meets ``target``;
- ``degraded``  it misses ``target`` but stays within ``degraded``;
- ``failing``   it is beyond ``degraded`` (or missed ``target`` with no
  ``degraded`` threshold configured).

The tracker's overall status is the worst objective's status — the
one-word summary ``/healthz`` reports.
"""

import threading
import time
from collections import deque
from dataclasses import dataclass

#: evaluation states, best to worst (index = severity).
STATES = ("ok", "degraded", "failing")

#: aggregation kinds an objective may use over its window.
KINDS = ("p50", "p99", "mean", "max", "rate")


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _aggregate(kind, values):
    if kind == "mean" or kind == "rate":
        return sum(values) / len(values)
    if kind == "max":
        return max(values)
    ordered = sorted(values)
    return percentile(ordered, 0.50 if kind == "p50" else 0.99)


@dataclass(frozen=True)
class SloObjective:
    """One declarative service-level objective.

    Args:
        name: objective label (``query_latency_p99``).
        metric: the sample stream it is judged on (see
            :meth:`SloTracker.record`).
        kind: aggregation over the window — one of :data:`KINDS`
            (``rate`` is the mean of 0/1 samples).
        target: the ``ok`` threshold.
        comparison: ``"<="`` (value must stay at or below target) or
            ``">="``.
        degraded: optional second threshold bounding the ``degraded``
            band; beyond it the objective is ``failing``.  ``None``
            means any target miss is immediately ``failing``.
        window_seconds: sliding-window width samples are judged over.
    """

    name: str
    metric: str
    kind: str
    target: float
    comparison: str = "<="
    degraded: float = None
    window_seconds: float = 300.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if self.comparison not in ("<=", ">="):
            raise ValueError("comparison must be '<=' or '>='")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")

    def _meets(self, value, threshold):
        if self.comparison == "<=":
            return value <= threshold
        return value >= threshold

    def judge(self, values):
        """``(state, aggregated_value)`` for the window's samples.

        An empty window is ``ok`` (no evidence of a breach) with a
        ``None`` value — the caller surfaces ``samples: 0`` so a silent
        no-traffic state is distinguishable from a healthy one.
        """
        if not values:
            return "ok", None
        value = _aggregate(self.kind, values)
        if self._meets(value, self.target):
            return "ok", value
        if self.degraded is not None and self._meets(value,
                                                     self.degraded):
            return "degraded", value
        return "failing", value


def worst_state(states):
    """The most severe of ``states`` (``ok`` when empty)."""
    severity = max((STATES.index(state) for state in states),
                   default=0)
    return STATES[severity]


class SloTracker:
    """Sliding-window sample store + evaluator for a set of objectives."""

    def __init__(self, objectives, clock=time.monotonic):
        self.objectives = tuple(objectives)
        self.clock = clock
        self._lock = threading.Lock()
        self._samples = {}
        names = [objective.name for objective in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError("objective names must be unique")
        #: widest window per metric — samples older than this are dead
        #: for every objective and can be pruned.
        self._horizon = {}
        for objective in self.objectives:
            self._horizon[objective.metric] = max(
                self._horizon.get(objective.metric, 0.0),
                objective.window_seconds)

    def record(self, metric, value):
        """Append one ``(now, value)`` sample to ``metric``'s stream.

        Samples for metrics no objective watches are dropped — the
        tracker's memory is bounded by the configured windows.
        """
        horizon = self._horizon.get(metric)
        if horizon is None:
            return
        now = self.clock()
        with self._lock:
            stream = self._samples.setdefault(metric, deque())
            stream.append((now, value))
            self._prune(stream, now - horizon)

    @staticmethod
    def _prune(stream, cutoff):
        while stream and stream[0][0] < cutoff:
            stream.popleft()

    def _window_values(self, objective, now):
        with self._lock:
            stream = self._samples.get(objective.metric, ())
            cutoff = now - objective.window_seconds
            return [value for when, value in stream if when >= cutoff]

    def evaluate(self):
        """Every objective's verdict plus the overall worst state.

        Returns ``{"status", "objectives": [{name, metric, kind,
        target, comparison, degraded, value, samples, status}, ...]}``
        — the ``GET /v1/slo`` payload.
        """
        now = self.clock()
        verdicts = []
        for objective in self.objectives:
            values = self._window_values(objective, now)
            state, value = objective.judge(values)
            verdicts.append({
                "name": objective.name,
                "metric": objective.metric,
                "kind": objective.kind,
                "target": objective.target,
                "comparison": objective.comparison,
                "degraded": objective.degraded,
                "window_seconds": objective.window_seconds,
                "samples": len(values),
                "value": None if value is None else round(value, 6),
                "status": state,
            })
        return {
            "status": worst_state(v["status"] for v in verdicts),
            "objectives": verdicts,
        }

    def summary(self):
        """Compact ``{"status", "objectives": {name: status}}`` view
        (the ``/healthz`` attachment)."""
        full = self.evaluate()
        return {
            "status": full["status"],
            "objectives": {v["name"]: v["status"]
                           for v in full["objectives"]},
        }
