"""The traced run: layer spans around the public calls, self-time
accounting, and the per-layer metrics.

In-process workloads are traced by wrapping each layer's public
function at every ``repro`` module that imported it (so ``tokenize``
is wrapped where :mod:`repro.frontend.parser` imported it, and
``map_call``/``unmap_call`` where :mod:`repro.core.interproc` did),
then running one round under :func:`repro.obs.tracing`, which also
turns on the counters the program already emits.  Each operation is a
root span (``op:<kind>``); a layer's self time is its span's duration
minus the durations of the nearest layer spans beneath it, and the
operation root's own self time is ``other.self_s``.

The daemon's worker runs in another process, so daemon-warm is traced
through the daemon's own ``{"trace": true}`` documents instead: their
span names map onto the same layers (:data:`DAEMON_SPANS`).
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager

from repro import obs
from repro.service.queries import QuerySession
from repro.service.store import ResultStore

#: layer -> (module, attribute) of the public function it times.
FUNCTIONS = (
    ("frontend.lex", "repro.frontend.lexer", "tokenize"),
    ("frontend.parse", "repro.frontend.parser", "parse"),
    ("simple.simplify", "repro.simple.simplify", "simplify_program"),
    ("core.analysis", "repro.core.analysis", "analyze"),
    ("core.mapping.map", "repro.core.mapping", "map_call"),
    ("core.mapping.unmap", "repro.core.mapping", "unmap_call"),
    ("service.serialize.encode", "repro.service.serialize", "encode_analysis"),
    ("service.serialize.decode", "repro.service.serialize", "decode_analysis"),
    ("checkers.facts", "repro.checkers.facts", "collect_facts"),
    ("checkers.run", "repro.checkers.runner", "run_checkers"),
    ("checkers.sarif", "repro.checkers.sarif", "render_sarif"),
    ("core.incremental.update", "repro.core.incremental", "update_analysis"),
    ("checkers.diff.check", "repro.checkers.diff", "check_diff"),
)

#: layer -> (class, method) for the layers reached through objects.
METHODS = (
    ("service.store.put", ResultStore, "put"),
    ("service.store.get", ResultStore, "get"),
    ("service.store.get", ResultStore, "get_record"),
    ("service.queries.eval", QuerySession, "evaluate"),
)

#: Span names in daemon trace documents -> layer.
DAEMON_SPANS = {
    "daemon.request": "daemon.queue_wait",
    "daemon.admission": "daemon.queue_wait",
    "daemon.queue": "daemon.queue_wait",
    "daemon.worker": "daemon.worker",
    "handle": "daemon.worker",
    "frontend.parse": "frontend.parse",
    "simple.simplify": "simple.simplify",
    "analyze": "core.analysis",
    "core.analysis": "core.analysis",
    "store.encode": "service.serialize.encode",
    "store.decode": "service.serialize.decode",
    "service.query": "service.queries.eval",
    "checkers.run": "checkers.run",
    "diffcheck.run": "checkers.diff.check",
}

TIME_LAYERS = (
    "frontend.lex", "frontend.parse", "simple.simplify", "core.analysis",
    "core.mapping.map", "core.mapping.unmap", "service.serialize.encode",
    "service.serialize.decode", "service.store.put", "service.store.get",
    "service.queries.eval", "checkers.facts", "checkers.run",
    "checkers.sarif", "core.incremental.update", "checkers.diff.check",
    "daemon.queue_wait", "daemon.worker",
)

#: Per-layer metric name for a layer's self time (the analysis core's
#: is ``self_s`` because map/unmap are carved out of it).
TIME_METRIC = {layer: f"{layer}_s" for layer in TIME_LAYERS}
TIME_METRIC["core.analysis"] = "core.analysis.self_s"

#: Largest share of the traced wall ``other.self_s`` may take for the
#: layers to count as accounting for the run.
ATTRIBUTION_TOLERANCE = 0.10


def _wrap(layer: str, function):
    span_name = "layer:" + layer

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with obs.span(span_name):
            return function(*args, **kwargs)

    return wrapper


@contextmanager
def instrumented():
    """Wrap every layer function at each ``repro`` module that bound
    it, and every layer method; restore the originals on exit."""
    restore: list[tuple[object, str, object]] = []
    try:
        for layer, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = _wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if not name.startswith("repro") or module is None:
                    continue
                if getattr(module, attr, None) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for layer, cls, attr in METHODS:
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, _wrap(layer, original))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(roots: list[dict], layer_of) -> tuple[dict, dict]:
    """Self time and call count per layer over span dicts.

    ``layer_of(name)`` gives a span's layer, or None for spans that
    belong to whichever layer encloses them.  Unmapped roots account to
    ``other``."""
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    stack = [(root, layer_of(root["name"]) or "other") for root in roots]
    while stack:
        span, layer = stack.pop()
        own = span.get("duration_s") or 0.0
        calls[layer] = calls.get(layer, 0) + 1
        frontier = list(span.get("children", ()))
        while frontier:
            child = frontier.pop()
            child_layer = layer_of(child["name"])
            if child_layer is None:
                frontier.extend(child.get("children", ()))
                continue
            own -= child.get("duration_s") or 0.0
            stack.append((child, child_layer))
        selfs[layer] = selfs.get(layer, 0.0) + own
    return selfs, calls


#: Clock slack allowed per span (span times are rounded to
#: microseconds).
NESTING_SLACK_S = 1e-5


def nested(roots: list[dict]) -> bool:
    """The balance check for trace documents assembled from two
    processes: every span is closed, and its children, which run one
    after another, fit within its duration together.  (The worker's
    subtree keeps its own clock origin, so start times of a parent and
    its grafted children are not comparable; durations are.)"""
    stack = list(roots)
    while stack:
        span = stack.pop()
        duration = span.get("duration_s")
        if duration is None:
            return False
        children = span.get("children", ())
        if any(child.get("duration_s") is None for child in children):
            return False
        total = sum(child["duration_s"] for child in children)
        if total > duration + NESTING_SLACK_S * (len(children) + 1):
            return False
        stack.extend(children)
    return True


def inprocess_layer(name: str) -> str | None:
    if name.startswith("layer:"):
        return name[len("layer:"):]
    if name.startswith("op:"):
        return "other"
    return None


def daemon_layer(name: str) -> str | None:
    return DAEMON_SPANS.get(name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    selfs: dict,
    calls: dict,
    counters: dict,
    traced_wall: float,
    untraced_wall: float,
    extra: dict,
) -> tuple[dict, dict]:
    """Every per-layer metric, plus the attribution check.

    ``extra`` carries what the benchmark observed itself: update tiers,
    artifact bytes and the daemon's coalesced/shed counters."""
    metrics: dict[str, tuple[float, str]] = {}
    for layer in TIME_LAYERS:
        metrics[TIME_METRIC[layer]] = (selfs.get(layer, 0.0), "s")
    # Waiting layers (the daemon's admission and queue) count: the
    # request's wall includes them.
    attributed = sum(
        value for layer, value in selfs.items() if layer != "other"
    )
    other = traced_wall - attributed
    metrics["other.self_s"] = (other, "s")
    metrics["obs.trace_overhead"] = (
        _ratio(traced_wall, untraced_wall), "ratio"
    )

    def count(name: str) -> float:
        return counters.get(name, 0)

    metrics["frontend.source_chars"] = (count("frontend.source_chars"), "chars")
    metrics["simple.basic_stmts"] = (count("simple.basic_stmts"), "stmts")
    visits = count("analysis.worklist_visits")
    metrics["core.analysis.worklist_visits"] = (visits, "count")
    metrics["core.analysis.worklist_skip_ratio"] = (
        _ratio(count("analysis.worklist_skips"), visits), "ratio"
    )
    metrics["core.mapping.map_calls"] = (count("analysis.map_calls"), "count")
    metrics["core.mapping.mapped_rels"] = (
        count("analysis.mapped_relationships"), "count"
    )
    metrics["core.mapping.unmapped_rels"] = (
        count("analysis.unmapped_relationships"), "count"
    )
    hits, misses = count("analysis.memo_hits"), count("analysis.memo_misses")
    metrics["core.interproc.memo_hits"] = (hits, "count")
    metrics["core.interproc.memo_misses"] = (misses, "count")
    metrics["core.interproc.memo_hit_ratio"] = (
        _ratio(hits, hits + misses), "ratio"
    )
    metrics["core.interproc.slice_memo_hits"] = (
        count("analysis.slice_memo_hits"), "count"
    )
    metrics["service.serialize.artifact_bytes"] = (
        extra.get("artifact_bytes", 0), "bytes"
    )
    metrics["service.store.put_bytes"] = (count("store.put_bytes"), "bytes")
    store_hits, store_misses = count("store.hits"), count("store.misses")
    metrics["service.store.hit_ratio"] = (
        _ratio(store_hits, store_hits + store_misses), "ratio"
    )
    metrics["service.queries.count"] = (
        calls.get("service.queries.eval", 0), "count"
    )
    metrics["checkers.findings"] = (
        sum(
            value for name, value in counters.items()
            if name.startswith("checkers.findings.")
        ),
        "count",
    )
    tiers = extra.get("tiers", {})
    for tier in ("splice", "seeded", "cold"):
        metrics[f"core.incremental.tier.{tier}"] = (tiers.get(tier, 0), "count")
    metrics["core.incremental.reused_summaries"] = (
        count("incremental.reused_summaries"), "count"
    )
    replayed = count("diffcheck.findings_replayed")
    metrics["checkers.diff.replayed_ratio"] = (
        _ratio(replayed, replayed + count("diffcheck.findings_fresh")),
        "ratio",
    )
    metrics["daemon.coalesced"] = (extra.get("coalesced", 0), "count")
    metrics["daemon.shed"] = (extra.get("shed", 0), "count")
    attribution = {
        "traced_wall_s": traced_wall,
        "attributed_s": attributed,
        "other_share": _ratio(other, traced_wall),
        "ok": abs(other) <= ATTRIBUTION_TOLERANCE * traced_wall,
    }
    return metrics, attribution
