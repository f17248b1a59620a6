"""Declarative health rules over the live telemetry.

The paper's operational claim is sub-0.1 s end-to-end recognition
latency (Fig. 24); a deployment also dies quietly when the read rate
collapses (detuned tags, interference) or when the streaming layer
stalls (reads keep flowing but no windows close).  This module turns
those failure modes into *data*: a list of :class:`HealthRule` records —
loadable from JSON, shipped with defaults derived from the Fig. 24
budget — evaluated against the metrics registry, the tracer, and a
:class:`~repro.obs.telemetry.TelemetryHub` window.

Rule kinds
----------
``span_p95_budget``   p95 of all completed spans *named* ``target`` must
                      be <= ``threshold`` seconds.
``gauge_min`` /       the gauge ``target`` must be >= / <= ``threshold``.
``gauge_max``
``counter_min`` /     the counter ``target`` must be >= / <=
``counter_max``       ``threshold`` (``counter_max`` with threshold 0 is
                      the "any occurrence is a finding" form — drops,
                      aborts, crashes).
``histogram_p95_max`` the histogram ``target``'s p95 must be <=
                      ``threshold``.
``gauge_drop``        across the hub window, the latest value of gauge
                      ``target`` must not sit more than ``threshold``
                      (fraction, 0..1) below the window peak — the
                      read-rate-drop detector.
``counter_stall``     across the hub window, counter ``target`` must
                      have advanced whenever counter ``watch`` advanced
                      by more than ``threshold`` — the event-latency
                      stall detector (reads flowing, no windows closing).
``gauge_growth``      across the hub window, the latest value of gauge
                      ``target`` must not sit more than ``threshold``
                      above the window *minimum* — the sustained-growth
                      detector (a serving queue that only ever deepens is
                      a hub that cannot keep up).

Rules that reference telemetry not yet recorded evaluate to ``skip``
(not a failure): health rules describe a running system, and a cold
registry is not an unhealthy one.  Findings with status ``warn``/``fail``
are also emitted as structured one-line JSON warnings on the
``repro.obs.health`` logger, and ``repro top`` exits nonzero when any
rule fails — which is what lets ``scripts/check.sh`` gate on them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .log import get_logger
from .metrics import MetricsRegistry, get_metrics
from .trace import Tracer, get_tracer, percentile

__all__ = [
    "HealthFinding",
    "HealthRule",
    "HealthRuleError",
    "default_rules",
    "evaluate_rules",
    "load_rules",
    "render_status",
    "rules_from_doc",
    "worst_status",
]

_KINDS = (
    "span_p95_budget",
    "gauge_min",
    "gauge_max",
    "counter_min",
    "counter_max",
    "histogram_p95_max",
    "gauge_drop",
    "counter_stall",
    "gauge_growth",
)
_SEVERITIES = ("warn", "fail")


class HealthRuleError(ValueError):
    """A rule file (or embedded rule doc) is malformed."""


@dataclass(frozen=True)
class HealthRule:
    """One declarative check over the live telemetry (see module doc)."""

    name: str
    kind: str
    target: str
    threshold: float
    severity: str = "warn"
    watch: Optional[str] = None  # counter_stall only: the activity counter
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise HealthRuleError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(_KINDS)})"
            )
        if self.severity not in _SEVERITIES:
            raise HealthRuleError(
                f"rule {self.name!r}: severity must be 'warn' or 'fail', "
                f"got {self.severity!r}"
            )
        if self.kind == "counter_stall" and not self.watch:
            raise HealthRuleError(
                f"rule {self.name!r}: counter_stall needs a 'watch' counter"
            )
        if self.kind == "gauge_drop" and not 0.0 < self.threshold <= 1.0:
            raise HealthRuleError(
                f"rule {self.name!r}: gauge_drop threshold is a fraction "
                f"in (0, 1], got {self.threshold!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "threshold": self.threshold,
            "severity": self.severity,
        }
        if self.watch is not None:
            out["watch"] = self.watch
        if self.description:
            out["description"] = self.description
        return out


@dataclass(frozen=True)
class HealthFinding:
    """The outcome of evaluating one rule."""

    rule: HealthRule
    status: str  # "ok" | "warn" | "fail" | "skip"
    value: Optional[float]
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule.name,
            "kind": self.rule.kind,
            "target": self.rule.target,
            "status": self.status,
            "value": self.value,
            "threshold": self.rule.threshold,
            "message": self.message,
        }


# ----------------------------------------------------------------------
# Rule loading.


def rules_from_doc(doc: Any) -> List[HealthRule]:
    """Build rules from a parsed JSON document (a list of objects)."""
    if not isinstance(doc, list):
        raise HealthRuleError(
            f"rule file must be a JSON array of rule objects, got {type(doc).__name__}"
        )
    rules: List[HealthRule] = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict):
            raise HealthRuleError(f"rule #{i} is not an object")
        missing = {"name", "kind", "target", "threshold"} - set(item)
        if missing:
            raise HealthRuleError(
                f"rule #{i} is missing required field(s): {', '.join(sorted(missing))}"
            )
        unknown = set(item) - {
            "name", "kind", "target", "threshold", "severity", "watch",
            "description",
        }
        if unknown:
            raise HealthRuleError(
                f"rule #{i} ({item.get('name')!r}) has unknown field(s): "
                f"{', '.join(sorted(unknown))}"
            )
        if not isinstance(item["threshold"], (int, float)) or isinstance(
            item["threshold"], bool
        ):
            raise HealthRuleError(
                f"rule #{i} ({item.get('name')!r}): threshold must be a number"
            )
        rules.append(
            HealthRule(
                name=str(item["name"]),
                kind=str(item["kind"]),
                target=str(item["target"]),
                threshold=float(item["threshold"]),
                severity=str(item.get("severity", "warn")),
                watch=item.get("watch"),
                description=str(item.get("description", "")),
            )
        )
    return rules


def load_rules(path: str) -> List[HealthRule]:
    """Load and validate a JSON rule file; raises :class:`HealthRuleError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise HealthRuleError(f"cannot read rule file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise HealthRuleError(f"rule file {path} is not valid JSON: {exc}") from exc
    return rules_from_doc(doc)


#: Default rule set (mirrored in scripts/health_rules.json).  The span
#: budgets derive from the paper's Fig. 24 sub-0.1 s end-to-end breakdown:
#: the whole recognition pass gets the 0.1 s claim as a hard budget, each
#: stage gets a slice of it (generous vs the measured p95s recorded in
#: BENCH_pipeline.json, which sit 10-100x below these bounds on the
#: reference container).
_DEFAULT_RULE_DOC: List[Dict[str, Any]] = [
    {"name": "detect_motion_budget", "kind": "span_p95_budget",
     "target": "detect_motion", "threshold": 0.1, "severity": "fail",
     "description": "Fig. 24: end-to-end single-stroke recognition < 0.1 s"},
    {"name": "recognize_letter_budget", "kind": "span_p95_budget",
     "target": "recognize_letter", "threshold": 0.1, "severity": "fail",
     "description": "Fig. 24: end-to-end letter recognition < 0.1 s"},
    {"name": "analyze_window_budget", "kind": "span_p95_budget",
     "target": "analyze_window", "threshold": 0.05, "severity": "warn",
     "description": "per-window analysis slice of the 0.1 s budget"},
    {"name": "segmentation_budget", "kind": "span_p95_budget",
     "target": "segmentation", "threshold": 0.02, "severity": "warn",
     "description": "segmentation slice of the 0.1 s budget"},
    {"name": "suppression_budget", "kind": "span_p95_budget",
     "target": "suppression", "threshold": 0.025, "severity": "warn",
     "description": "interference-suppression slice of the 0.1 s budget"},
    {"name": "unwrap_budget", "kind": "span_p95_budget",
     "target": "unwrap", "threshold": 0.01, "severity": "warn",
     "description": "phase-unwrap slice of the 0.1 s budget"},
    {"name": "imaging_budget", "kind": "span_p95_budget",
     "target": "imaging", "threshold": 0.01, "severity": "warn",
     "description": "imaging slice of the 0.1 s budget"},
    {"name": "otsu_budget", "kind": "span_p95_budget",
     "target": "otsu", "threshold": 0.01, "severity": "warn",
     "description": "binarization slice of the 0.1 s budget"},
    {"name": "classify_budget", "kind": "span_p95_budget",
     "target": "classify", "threshold": 0.01, "severity": "warn",
     "description": "stroke-classification slice of the 0.1 s budget"},
    {"name": "direction_budget", "kind": "span_p95_budget",
     "target": "direction", "threshold": 0.01, "severity": "warn",
     "description": "direction-resolution slice of the 0.1 s budget"},
    {"name": "grammar_budget", "kind": "span_p95_budget",
     "target": "grammar", "threshold": 0.01, "severity": "warn",
     "description": "tree-grammar slice of the 0.1 s budget"},
    {"name": "read_rate_floor", "kind": "gauge_min",
     "target": "reader.read_rate_hz", "threshold": 10.0, "severity": "warn",
     "description": "aggregate read rate a 5x5 pad needs for segmentation"},
    {"name": "read_rate_drop", "kind": "gauge_drop",
     "target": "reader.read_rate_hz", "threshold": 0.5, "severity": "warn",
     "description": "read rate fell >50% below its recent peak"},
    {"name": "stream_event_latency", "kind": "histogram_p95_max",
     "target": "stream.event_latency_s", "threshold": 1.5, "severity": "warn",
     "description": "stream-time stroke-event decision lag p95"},
    {"name": "stream_stall", "kind": "counter_stall",
     "target": "stream.windows", "watch": "stream.reads",
     "threshold": 500.0, "severity": "warn",
     "description": "reads flowing but no stroke windows closing"},
    {"name": "serve_drops", "kind": "counter_max",
     "target": "serve.dropped_chunks", "threshold": 0.0, "severity": "warn",
     "description": "any shed chunk means a session lost bit-identity"},
    {"name": "serve_queue_depth", "kind": "gauge_max",
     "target": "serve.queue_depth", "threshold": 1024.0, "severity": "warn",
     "description": "total pending chunks across all serving sessions"},
    {"name": "serve_queue_growth", "kind": "gauge_growth",
     "target": "serve.queue_depth", "threshold": 256.0, "severity": "warn",
     "description": "sustained queue-depth growth: the hub is not keeping up"},
    {"name": "serve_event_latency", "kind": "histogram_p95_max",
     "target": "serve.event_latency_s", "threshold": 0.15, "severity": "warn",
     "description": "hub-side final-event latency p95 vs the serving SLO"},
]


def default_rules() -> List[HealthRule]:
    """The built-in rule set (Fig. 24 budgets + flow detectors)."""
    return rules_from_doc(_DEFAULT_RULE_DOC)


# ----------------------------------------------------------------------
# Evaluation.


def _eval_rule(
    rule: HealthRule,
    metrics: MetricsRegistry,
    tracer: Tracer,
    hub: Optional[Any],
) -> HealthFinding:
    def finding(status: str, value: Optional[float], message: str) -> HealthFinding:
        return HealthFinding(rule=rule, status=status, value=value, message=message)

    def verdict(ok: bool, value: float, message: str) -> HealthFinding:
        return finding("ok" if ok else rule.severity, value, message)

    if rule.kind == "span_p95_budget":
        durs = tracer.durations(rule.target)
        if not durs:
            return finding("skip", None, f"no {rule.target!r} spans recorded")
        p95 = percentile(durs, 95.0)
        return verdict(
            p95 <= rule.threshold, p95,
            f"span {rule.target!r} p95 {p95 * 1e3:.2f} ms vs budget "
            f"{rule.threshold * 1e3:.0f} ms over {len(durs)} spans",
        )
    if rule.kind in ("gauge_min", "gauge_max"):
        value = metrics.gauge_value(rule.target)
        if value is None:
            return finding("skip", None, f"gauge {rule.target!r} not recorded")
        ok = value >= rule.threshold if rule.kind == "gauge_min" else (
            value <= rule.threshold
        )
        op = ">=" if rule.kind == "gauge_min" else "<="
        return verdict(
            ok, value,
            f"gauge {rule.target!r} = {value:g} (required {op} {rule.threshold:g})",
        )
    if rule.kind in ("counter_min", "counter_max"):
        value = metrics.counter_value(rule.target)
        ok = value >= rule.threshold if rule.kind == "counter_min" else (
            value <= rule.threshold
        )
        op = ">=" if rule.kind == "counter_min" else "<="
        return verdict(
            ok, value,
            f"counter {rule.target!r} = {value:g} "
            f"(required {op} {rule.threshold:g})",
        )
    if rule.kind == "histogram_p95_max":
        hist = metrics.get_histogram(rule.target)
        if hist is None or hist.count == 0:
            return finding("skip", None, f"histogram {rule.target!r} empty")
        p95 = hist.percentile(95.0)
        return verdict(
            p95 <= rule.threshold, p95,
            f"histogram {rule.target!r} p95 {p95:g} "
            f"(required <= {rule.threshold:g})",
        )
    if rule.kind == "gauge_drop":
        if hub is None:
            return finding("skip", None, "no telemetry hub window available")
        series = [v for _, v in hub.gauge_series(rule.target)]
        if len(series) < 2:
            return finding(
                "skip", None, f"gauge {rule.target!r}: <2 samples in window"
            )
        peak, last = max(series), series[-1]
        if peak <= 0:
            return finding("skip", last, f"gauge {rule.target!r} peak is 0")
        drop = 1.0 - last / peak
        return verdict(
            drop <= rule.threshold, drop,
            f"gauge {rule.target!r} dropped {drop * 100:.0f}% from window "
            f"peak {peak:g} (allowed {rule.threshold * 100:.0f}%)",
        )
    if rule.kind == "gauge_growth":
        if hub is None:
            return finding("skip", None, "no telemetry hub window available")
        series = [v for _, v in hub.gauge_series(rule.target)]
        if len(series) < 2:
            return finding(
                "skip", None, f"gauge {rule.target!r}: <2 samples in window"
            )
        growth = series[-1] - min(series)
        return verdict(
            growth <= rule.threshold, growth,
            f"gauge {rule.target!r} grew {growth:g} above its window "
            f"minimum {min(series):g} (allowed {rule.threshold:g})",
        )
    if rule.kind == "counter_stall":
        if hub is None:
            return finding("skip", None, "no telemetry hub window available")
        watch = [v for _, v in hub.counter_series(rule.watch)]
        target = [v for _, v in hub.counter_series(rule.target)]
        if len(watch) < 2:
            return finding(
                "skip", None, f"counter {rule.watch!r}: <2 samples in window"
            )
        activity = watch[-1] - watch[0]
        progress = (target[-1] - target[0]) if len(target) >= 2 else 0.0
        if activity <= rule.threshold:
            return finding(
                "ok", progress,
                f"{rule.watch!r} grew by {activity:g} (< stall threshold "
                f"{rule.threshold:g}); not enough activity to judge",
            )
        return verdict(
            progress > 0.0, progress,
            f"{rule.watch!r} grew by {activity:g} while {rule.target!r} "
            f"grew by {progress:g}",
        )
    raise AssertionError(f"unhandled rule kind {rule.kind!r}")  # pragma: no cover


def evaluate_rules(
    rules: List[HealthRule],
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    hub: Optional[Any] = None,
) -> List[HealthFinding]:
    """Evaluate every rule; warn/fail findings are logged as JSON lines."""
    metrics = metrics if metrics is not None else get_metrics()
    tracer = tracer if tracer is not None else get_tracer()
    logger = get_logger("obs.health")
    findings = [_eval_rule(rule, metrics, tracer, hub) for rule in rules]
    for f in findings:
        if f.status in ("warn", "fail"):
            logger.warning("health %s", json.dumps(f.to_dict(), sort_keys=True))
    return findings


def worst_status(findings: List[HealthFinding]) -> str:
    """Overall status: fail > warn > ok (skips don't count against)."""
    statuses = {f.status for f in findings}
    if "fail" in statuses:
        return "fail"
    if "warn" in statuses:
        return "warn"
    return "ok"


# ----------------------------------------------------------------------
# The `repro top` frame.

_STATUS_MARK = {"ok": " ok ", "warn": "WARN", "fail": "FAIL", "skip": " -- "}

#: Gauges surfaced in the live frame, in display order.
_TOP_GAUGES = (
    "reader.read_rate_hz",
    "stream.buffered_reads",
    "stream.lag_s",
)

#: Counters surfaced in the live frame, in display order.
_TOP_COUNTERS = (
    "reader.reads",
    "runner.motion_trials",
    "runner.letter_trials",
    "stream.windows",
    "stream.reads",
)


def render_status(
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    findings: Optional[List[HealthFinding]] = None,
    hub: Optional[Any] = None,
) -> str:
    """One ``repro top`` frame: span p95s, key gauges/rates, health table."""
    metrics = metrics if metrics is not None else get_metrics()
    tracer = tracer if tracer is not None else get_tracer()
    lines: List[str] = ["== spans (p95 by name, ms) =="]
    seen = set()
    rows = []
    for span in tracer.finished:
        if span.name in seen:
            continue
        seen.add(span.name)
        durs = tracer.durations(span.name)
        rows.append((span.name, len(durs), percentile(durs, 95.0)))
    if rows:
        width = max(len(name) for name, _, _ in rows)
        for name, count, p95 in rows:
            lines.append(
                f"  {name.ljust(width)}  count={count:>5d}  p95={p95 * 1e3:9.3f} ms"
            )
    else:
        lines.append("  (no spans recorded)")

    lines.append("== flow ==")
    for name in _TOP_GAUGES:
        value = metrics.gauge_value(name)
        if value is not None:
            lines.append(f"  gauge    {name} = {value:g}")
    for key, value in sorted(metrics.snapshot()["gauges"].items()):
        # Labeled per-session variants surface right below the aggregates.
        if key.startswith("stream.") and "{" in key:
            lines.append(f"  gauge    {key} = {value:g}")
    for name in _TOP_COUNTERS:
        value = metrics.counter_value(name)
        if value:
            rate = hub.counter_rate(name) if hub is not None else None
            rate_text = f"  ({rate:.1f}/s)" if rate is not None else ""
            lines.append(f"  counter  {name} = {value:g}{rate_text}")

    lines.append("== health ==")
    if findings:
        for f in findings:
            lines.append(f"  [{_STATUS_MARK[f.status]}] {f.rule.name}: {f.message}")
    else:
        lines.append("  (no rules evaluated)")
    return "\n".join(lines)
