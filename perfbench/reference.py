"""Oracle-checked reference results and the digests operations are
compared against.

At set-up every distinct input text is analyzed once, the result is
run through the concrete-execution oracle of Definition 3.3
(:func:`repro.interp.check_soundness`), and the digests of what a user
would see are kept: the semantic artifact payload, the rendered SARIF
findings, the finding records, and the answer to each demand query the
workload will ask.  A timed operation whose output differs from these
digests is a failed operation; so is every operation on an input whose
reference raised or failed the oracle (its class is then the
reference's error class, e.g. ``RecursionError`` or
``SoundnessViolation``).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.checkers.runner import run_checkers
from repro.checkers.sarif import render_sarif
from repro.core.analysis import analyze_source
from repro.interp import check_soundness
from repro.service.queries import QuerySession
from repro.service.serialize import canonical_json, encode_analysis

#: Concrete-execution budget per input.  The oracle checks every
#: executed statement up to this many steps; the default of
#: ``check_soundness`` (200k) would make set-up dominate every run.
ORACLE_MAX_STEPS = 5_000

#: Artifact name used by protocol requests carrying inline source.
INLINE = "<inline>"

_NAME = re.compile(r"^[A-Za-z_]\w*$")


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def answer_digest(answer) -> str:
    return digest(json.dumps(answer, sort_keys=True))


def semantic_digest(payload: dict) -> str:
    """Digest of an encoded artifact minus its run-shape counters
    (top-level ``stats`` and ``summaries.perf``), the same cut as
    :func:`repro.service.serialize.semantic_payload_bytes`."""
    payload = dict(payload)
    payload.pop("stats", None)
    summaries = payload.get("summaries")
    if isinstance(summaries, dict):
        payload["summaries"] = {
            key: value for key, value in summaries.items() if key != "perf"
        }
    return digest(canonical_json(payload))


def finding_records(findings) -> list[str]:
    return sorted(json.dumps(f.as_dict(), sort_keys=True) for f in findings)


@dataclass
class Reference:
    """What one input text must produce."""

    name: str  # the artifact name outputs are rendered under
    source: str
    tag: str = ""  # identity in output digests (the name by default)
    error: str | None = None  # error class when the reference failed
    stmts: int = 0
    payload: str = ""
    sarif: str = ""
    sarif_inline: str = ""
    records: list = field(default_factory=list)
    answers: dict = field(default_factory=dict)  # query -> digest
    artifact_bytes: int = 0
    artifact: dict | None = None  # the checked payload, when kept

    @property
    def ok(self) -> bool:
        return self.error is None

    def __post_init__(self) -> None:
        self.tag = self.tag or self.name


def candidate_queries(analysis) -> list[str]:
    """Every demand query of the four benchmarked kinds that the
    result can answer: ``points_to`` and ``may_alias`` at each label,
    ``callees_at`` each call site, ``read_write`` of each function."""
    session = QuerySession(analysis)
    program = analysis.program
    queries: list[str] = []
    names = sorted(n for n in program.global_types if _NAME.match(n))
    for label in sorted(program.labels):
        pts = analysis.at_label(label)
        sources = sorted(
            {str(src) for src, _, _ in pts.triples()} & set(names)
        )
        queries.extend(f"points_to:{n}@{label}" for n in sources)
        queries.extend(
            f"may_alias:{a},{b}@{label}"
            for a, b in zip(sources, sources[1:])
        )
    queries.extend(f"callees_at:{site}" for site in session.call_sites())
    queries.extend(f"read_write:{fn}" for fn in sorted(program.functions))
    return queries


def sample_queries(
    candidates: list[str], count: int, rng: random.Random
) -> list[str]:
    """``count`` queries drawn evenly across the query kinds (so the
    mix of kinds, and with it the cost, does not depend on the seed),
    taking from the remaining kinds where one runs short."""
    by_kind: dict[str, list[str]] = {}
    for query in candidates:
        by_kind.setdefault(query.partition(":")[0], []).append(query)
    pools = [rng.sample(group, len(group)) for group in by_kind.values()]
    chosen: list[str] = []
    while len(chosen) < count and any(pools):
        for pool in pools:
            if pool and len(chosen) < count:
                chosen.append(pool.pop())
    return chosen


def build_reference(
    name: str,
    source: str,
    n_queries: int,
    tag: str = "",
    keep_artifact: bool = False,
) -> Reference:
    """Analyze ``source`` once, check it against concrete execution,
    and record the digests of everything the workload will compare.
    The queries are a sample of :func:`candidate_queries` drawn the
    same way on every run: which queries land in the tail decides the
    p99, so a per-seed sample moved it between runs.  (Generated
    programs still get different queries per seed, because their
    candidates differ.)"""
    ref = Reference(name, source, tag)
    rng = random.Random(f"{ref.tag}:queries")
    try:
        analysis = analyze_source(source, filename=name)
        payload = encode_analysis(analysis, name=name, source=source)
        findings = run_checkers(analysis, source=source)
        session = QuerySession(analysis, source)
        chosen = sample_queries(candidate_queries(analysis), n_queries, rng)
        answers = {q: answer_digest(session.evaluate(q)) for q in chosen}
        report = check_soundness(
            source, analysis=analysis, max_steps=ORACLE_MAX_STEPS
        )
    except Exception as exc:  # recorded as the input's failure class
        ref.error = type(exc).__name__
        return ref
    if not report.ok:
        ref.error = "SoundnessViolation"
    ref.stmts = analysis.program.count_basic_stmts()
    ref.payload = semantic_digest(payload)
    ref.artifact_bytes = len(canonical_json(payload))
    if keep_artifact:
        ref.artifact = payload
    ref.sarif = digest(render_sarif(findings, name))
    ref.sarif_inline = digest(render_sarif(findings, INLINE))
    ref.records = finding_records(findings)
    ref.answers = answers
    return ref


def _build(job: tuple) -> Reference:
    args, kwargs = job
    return build_reference(*args, **kwargs)


def build_references(jobs: list[tuple], workers: int = 1) -> list[Reference]:
    """``build_reference(*args, **kwargs)`` for each ``(args, kwargs)``
    job, over ``workers`` spawned processes when more than one."""
    if workers <= 1:
        return [_build(job) for job in jobs]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        # Largest inputs first, so the longest job does not start last.
        order = sorted(range(len(jobs)), key=lambda i: -len(jobs[i][0][1]))
        results = dict(zip(order, pool.map(_build, [jobs[i] for i in order])))
    return [results[i] for i in range(len(jobs))]
