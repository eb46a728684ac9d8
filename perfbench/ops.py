"""Timed operations and the recorder that turns them into metrics.

Every operation goes through the system's public entry points and is
timed end to end with tracing off.  Outputs are compared against the
oracle-checked :class:`~perfbench.reference.Reference` *after* the
clock stops; a mismatch, an exception or an error response makes the
operation a failure, recorded under its error class.  Failures rank
slower than any success in every latency percentile and are left out
of ``cold_stmts_per_s``.

There are two kinds of operation.  :func:`cold` runs one program from
C text to stored artifact plus SARIF by calling the pipeline's
functions directly.  Everything else is a protocol request
(:class:`Step`) sent through a sender: :class:`InProcess` answers it
with ``handle_request`` (the stdin serve loop), the daemon workload's
sender with a ``DaemonClient``.  Both record through :func:`send`.

Module functions are called through their modules (``parser.parse``,
``commands.handle_request``, ...) so that the traced run's wrappers,
which replace those module attributes, see every call.  Cold
operations and edits start after a collection, so each pays only for
its own garbage and collection pauses land in the same operations
every run.
"""

from __future__ import annotations

import gc
import json
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.checkers import runner, sarif
from repro.core import analysis as core_analysis
from repro.frontend import parser
from repro.service import commands, serialize
from repro.service.store import ResultStore
from repro.simple import simplify

from perfbench.reference import answer_digest, digest, semantic_digest

FAILED = math.inf


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``;
    failures are ``inf`` and so rank above every success."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if math.isinf(ordered[high]):
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples lands on a failure"
        )
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Recorder:
    """Latency samples per operation kind plus failure accounting."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.requests: list[float] = []
        self.errors: Counter = Counter()
        self.outputs: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # every operation's time, failures included
        self.cold_stmts = 0
        self.cold_ok_s = 0.0
        self.artifact_bytes = 0
        self.tiers: Counter = Counter()
        self.trace_ids: list[str] = []  # of traced daemon requests

    def record(
        self,
        kind: str,
        name: str,
        seconds: float,
        error: str | None = None,
        output: str | None = None,
        request: bool = False,
        stmts: int = 0,
        artifact_bytes: int = 0,
    ) -> bool:
        self.attempted += 1
        self.busy_s += seconds
        if error is not None:
            self.failed += 1
            self.errors[error] += 1
            seconds = FAILED
        else:
            if kind == "cold":
                self.cold_stmts += stmts
                self.cold_ok_s += seconds
                self.artifact_bytes += artifact_bytes
            if output is not None:
                self.outputs.add(f"{kind}:{name}:{output}")
        self.samples[kind].append(seconds)
        if request:
            self.requests.append(seconds)
        return error is None

    def output_digest(self) -> str:
        return digest("\n".join(sorted(self.outputs)))

    def metrics(self) -> dict:
        """The end-to-end metrics this recorder can give (everything
        but ``setup_s`` and ``peak_rss_mb``).  Requests per second are
        over the summed latency of the completed requests: one client
        sends one request at a time, so that is the time it waited."""
        cold = self.samples["cold"]
        completed = [s for s in self.requests if not math.isinf(s)]
        return {
            "cold_p50_s": (percentile(cold, 0.50), "s"),
            "cold_p90_s": (percentile(cold, 0.90), "s"),
            "cold_stmts_per_s": (
                self.cold_stmts / self.cold_ok_s, "stmt/s"
            ),
            "load_p50_ms": (
                percentile(self.samples["load"], 0.50) * 1e3, "ms"
            ),
            "query_p50_ms": (
                percentile(self.samples["query"], 0.50) * 1e3, "ms"
            ),
            "query_p99_ms": (
                percentile(self.samples["query"], 0.99) * 1e3, "ms"
            ),
            "edit_p50_ms": (
                percentile(self.samples["edit"], 0.50) * 1e3, "ms"
            ),
            "edit_p90_ms": (
                percentile(self.samples["edit"], 0.90) * 1e3, "ms"
            ),
            "requests_per_s": (len(completed) / sum(completed), "req/s"),
            "request_p50_ms": (percentile(self.requests, 0.50) * 1e3, "ms"),
            "request_p99_ms": (percentile(self.requests, 0.99) * 1e3, "ms"),
            "success_share": (
                (self.attempted - self.failed) / self.attempted, "ratio"
            ),
        }

    def counts(self) -> dict:
        return {kind: len(values) for kind, values in self.samples.items()}


def _verdict(ref, matches: bool) -> str | None:
    if not ref.ok:
        return ref.error
    return None if matches else "OutputMismatch"


def cold(rec: Recorder, store: ResultStore, ref) -> bool:
    """C text -> parse -> SIMPLE -> fixpoint -> encode -> store put ->
    checkers -> SARIF, for one program."""
    source, name = ref.source, ref.name
    gc.collect()
    with obs.span("op:cold"):
        start = time.perf_counter()
        try:
            unit = parser.parse(source, name)
            program = simplify.simplify_program(
                unit, source_lines=source.count("\n") + 1
            )
            result = core_analysis.analyze(program)
            payload = serialize.encode_analysis(
                result, name=name, source=source
            )
            store.put(ResultStore.key_for(source), payload)
            findings = runner.run_checkers(result, source=source)
            rendered = sarif.render_sarif(findings, name)
        except Exception as exc:  # a failed operation, recorded by class
            rec.record(
                "cold", name, time.perf_counter() - start,
                error=type(exc).__name__,
            )
            return False
        elapsed = time.perf_counter() - start
    output = (semantic_digest(payload), digest(rendered))
    return rec.record(
        "cold", name, elapsed,
        error=_verdict(ref, output == (ref.payload, ref.sarif)),
        output=":".join(output), stmts=ref.stmts,
        artifact_bytes=ref.artifact_bytes,
    )


@dataclass
class Step:
    """One protocol request of a workload's script.

    ``check(result)`` returns the digest of a right answer and None for
    a wrong one.  ``edit`` steps (``watch`` with ``from``) leave the
    edited text's analysis live in the sender, which may also show it
    (:meth:`InProcess.payload`)."""

    kind: str  # the latency family it is recorded in
    ref: object  # the Reference the answer must match
    body: dict
    check: Callable[[dict], str | None]
    stmts: int = 0  # SIMPLE statements, for cold requests


class InProcess:
    """Requests answered by ``handle_request`` over one store and one
    session cache, as the stdin serve loop answers them."""

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self.sessions = commands.SessionCache()

    def send(self, body: dict) -> dict:
        return commands.handle_request(body, self.store, self.sessions)

    def payload(self, ref) -> str | None:
        """Semantic digest of the live analysis of ``ref``'s text,
        encoded under the reference's name."""
        session = self.sessions.get(ResultStore.key_for(ref.source))
        if session is None:
            return None
        return semantic_digest(
            serialize.encode_analysis(
                session.analysis, name=ref.name, source=ref.source
            )
        )


def send(rec: Recorder, sender, step: Step, trace: bool = False) -> bool:
    """Send one step, time it at the client, and check the reply.  An
    edit must also leave the reference's analysis live where the
    sender can show it (in process; a daemon's worker cannot)."""
    ref, kind = step.ref, step.kind
    body = dict(step.body, trace=True) if trace else step.body
    if kind == "edit":
        gc.collect()
    with obs.span(f"op:{kind}"):
        start = time.perf_counter()
        try:
            response = sender.send(body)
        except Exception as exc:  # a failed operation, recorded by class
            rec.record(
                kind, ref.tag, time.perf_counter() - start,
                error=type(exc).__name__, request=True,
            )
            return False
        elapsed = time.perf_counter() - start
    if "trace_id" in response:
        rec.trace_ids.append(response["trace_id"])
    if not response.get("ok"):
        return rec.record(
            kind, ref.tag, elapsed, error="ErrorResponse", request=True
        )
    try:
        output = step.check(response["result"])
    except (KeyError, TypeError):
        output = None
    if kind == "load" and response.get("cached") is not True:
        output = None  # a load must come from the stored artifact
    if kind == "edit" and output is not None:
        rec.tiers[response["result"].get("mode", "unknown")] += 1
        live = getattr(sender, "payload", None)
        if live is not None and live(ref) != ref.payload:
            output = None
    return rec.record(
        kind, ref.tag, elapsed, error=_verdict(ref, output is not None),
        output=output, request=True, stmts=step.stmts,
        artifact_bytes=ref.artifact_bytes if kind == "cold" else 0,
    )


# Reply checks.  Each returns the digest of a right answer, or None.

def answer_check(ref, query: str):
    def check(result):
        answer = answer_digest(result)
        return f"{query}={answer}" if answer == ref.answers.get(query) else None

    return check


def sarif_check(ref):
    """A ``check`` reply with ``format: sarif`` on inline source."""

    def check(result):
        rendered = digest(result["sarif"])
        return rendered if rendered == ref.sarif_inline else None

    return check


def watch_check(ref):
    """A ``watch`` reply.  Establishing one reports every finding, which
    must be the reference's.  A diff reports only the new ones: they
    must be findings of the edited text, and new plus unchanged must
    be all of them."""

    def check(result):
        records = sorted(
            json.dumps(record, sort_keys=True)
            for record in result.get("findings", result.get("new"))
        )
        total = len(records) + result.get("unchanged", 0)
        if "findings" in result:
            right = records == ref.records
        else:
            right = set(records) <= set(ref.records)
        if right and total == len(ref.records):
            return digest("\n".join(records) + f"\n{total}")
        return None

    return check
