"""Per-layer tracing shim for the dynrank benchmark.

Each layer is timed by replacing a public function at the name its caller
looks up (``harness`` and ``policy`` import several functions by name, so
``dynrank.policy.target_value`` is patched, not
``dynrank.metrics.target_value``). Spans are kept in memory as
(name, start, end, parent) and summarised or written out when the repeat
ends. Nothing under ``src/`` is modified; the patches live only in the
traced process.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path


class Tracer:
    """Collects spans from wrapped functions; single-threaded use only."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self.names: list[str] = []  # every span name patched in

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(args, kwargs, result)``
        may return a dict of counts stored on the span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, attrs=None):
        self.names.append(name)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def write(self, path) -> None:
        """Write spans as JSON lines: name, start, end (s), parent index."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


def install(tracer: Tracer) -> None:
    """Patch every traced layer boundary of an imported dynrank."""
    from dynrank import feedback, harness, policy, valuenet

    def candidate_counts(args, kwargs, result):
        return {"rows": len(args[2]), "prefix_steps": len(args[1])}

    def positive_round(args, kwargs, result):
        return {"positive": int(bool(args[2].positive_docs()))}

    for fn in ("forward_candidates", "forward", "backward", "apply_update", "save", "load"):
        tracer.patch(valuenet, fn, f"valuenet.{fn}",
                     candidate_counts if fn == "forward_candidates" else None)
    for fn in ("score_candidates", "select_action", "new_session"):
        tracer.patch(policy, fn, f"policy.{fn}")
    for fn in ("target_value", "report_value"):
        tracer.patch(policy, fn, f"metrics.{fn}")
    tracer.patch(policy, "simulate_feedback", "feedback.simulate_feedback")
    tracer.patch(feedback.EmbedRocchioFeedback, "__call__", "feedback.reformulate", positive_round)
    for fn in ("train_session", "evaluate_session"):
        tracer.patch(harness, fn, f"policy.{fn}")
    for fn in ("gen_synthetic", "split_folds"):
        tracer.patch(harness, fn, f"data.{fn}")
    for fn in ("train_run", "evaluate_run", "emit_report"):
        tracer.patch(harness, fn, f"harness.{fn}")


def _quantile_us(durations: list[float], q: float) -> float:
    """Nearest-rank quantile of span durations, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


def summarise(tracer: Tracer) -> dict[str, float]:
    """Statistics of every patched function in one traced repeat, named
    ``<span>.<stat>``: calls, total_s, self_s, us_p50, us_p99 and the sum of
    each span attribute. Functions a workload does not reach read 0."""
    durations: dict[str, list[float]] = {name: [] for name in tracer.names}
    self_s = dict.fromkeys(tracer.names, 0.0)
    sums: Counter = Counter()
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, start, end, _, attrs), children in zip(tracer.spans, child_time):
        durations[name].append(end - start)
        self_s[name] += end - start - children
        for key, value in (attrs or {}).items():
            sums[f"{name}.{key}"] += value

    out: dict[str, float] = dict(sums)
    for name, d in durations.items():
        out.update({f"{name}.calls": len(d), f"{name}.total_s": sum(d),
                    f"{name}.self_s": self_s[name], f"{name}.us_p50": _quantile_us(d, 0.5),
                    f"{name}.us_p99": _quantile_us(d, 0.99)})
    rounds = out["feedback.reformulate.calls"]
    positive = sums["feedback.reformulate.positive"]
    out["feedback.positive_round_share"] = positive / rounds if rounds else 0.0
    return out
