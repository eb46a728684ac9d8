"""The three workloads: inputs, set-up and one measured round each.

* ``call-scaling`` — the generated families of :mod:`perfbench.families`
  run cold into a store that is fresh every round, then loaded back,
  queried and (the small ones) edited once.
* ``edit-session`` — the paper's 17 programs plus livc, relay and
  fanout, each opened cold, loaded back and queried, then given two
  edits from the ``propose_edits`` corpus that are applied to the warm
  session and undone, each followed by one query, and checked cold
  again at the end.
* ``daemon-warm`` — one closed-loop client against a daemon with one
  worker and a pre-warmed file store.

Apart from the in-process cold pipeline, every operation is a
protocol request from :func:`program_steps`, one script per program
that both transports run: the in-process workloads send it through
``handle_request`` (the serve loop), daemon-warm through a
``DaemonClient``.  So every workload measures every end-to-end metric;
daemon-warm's cold operations are its miss requests.
"""

from __future__ import annotations

import multiprocessing
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.benchsuite import BENCHMARKS, PERF_BENCHMARKS, livc_source
from repro.benchsuite.edits import propose_edits
from repro.daemon import DaemonClient, DaemonConfig, DaemonHandle
from repro.service.store import ResultStore

from perfbench import families, ops
from perfbench.reference import Reference, build_references


def suite_sources() -> list[tuple[str, str]]:
    programs = {name: b.source for name, b in BENCHMARKS.items()}
    programs.update({name: b.source for name, b in PERF_BENCHMARKS.items()})
    programs["livc"] = livc_source()
    return sorted(programs.items())


@dataclass
class Program:
    ref: Reference
    edits: list[Reference] = field(default_factory=list)


@dataclass
class Plan:
    programs: list[Program]
    workdir: Path
    misses: list[Reference] = field(default_factory=list)
    daemon: "Daemon | None" = None  # daemon-warm: started at set-up


#: Every run edits the edit mutator's corpus at this seed; the run's
#: seed only orders the programs.  Where an edit lands decides much of
#: its cost, so a per-run corpus would move the edit percentiles with
#: the seed.  At this seed, edit-session's edit, undo, edit chain on
#: stanford gets wrong findings (two OutputMismatch failures a round),
#: which keeps that defect in view.
EDIT_SEED = 2


def corpus_edits(source: str, kinds, count: int) -> list:
    """Up to ``count`` edits of ``source``, one of each of the first
    ``kinds`` that apply."""
    edits = []
    for kind in kinds:
        if len(edits) == count:
            break
        edits.extend(
            propose_edits(source, EDIT_SEED, kinds=(kind,), per_kind=1)
        )
    return edits


class Workload:
    """Inputs, set-up and one round of operations."""

    name = ""
    #: Queries per program, the first of them a load.  Queries are
    #: cheap, and a p99 over fewer than about a thousand of them rests
    #: on the few that a collection pause happens to land in.
    n_queries = 16
    #: Edits made per program, of the first kinds in this order that
    #: apply.
    edits_per_program = 1
    edit_kinds = (
        "add_assignment", "retarget_fnptr", "remove_assignment",
        "rename_local", "delete_function",
    )
    #: edit-session: undo each edit, and check the program cold again
    #: after its edits.
    undo = False
    reopen = False
    #: Whether peak memory counts reaped child processes (the daemon's
    #: worker); set-up's reference builders never count.
    rss_children = False
    #: Processes that build the references (the in-process workloads
    #: report their own process's peak memory, so set-up workers do not
    #: count; daemon-warm counts its worker and builds serially).
    setup_workers = 2
    #: Extra ``build_reference`` options for the programs' references.
    ref_options: dict = {}

    def inputs(self, seed: int, smoke: bool) -> list[tuple[str, str, bool]]:
        """(name, source, editable) per program."""
        sources = suite_sources()[:2] if smoke else suite_sources()
        return [(name, source, True) for name, source in sources]

    def setup(self, seed: int, smoke: bool, workdir: Path) -> Plan:
        """Generate the inputs and their edits, then build and
        oracle-check every reference."""
        programs = self.inputs(seed, smoke)
        edits = [
            corpus_edits(source, self.edit_kinds, self.edits_per_program)
            if editable else []
            for _, source, editable in programs
        ]
        jobs = [
            ((name, source, self.n_queries), self.ref_options)
            for name, source, _ in programs
        ]
        for (name, _, _), proposals in zip(programs, edits):
            jobs.extend(
                ((name, edit.source, 1),
                 {"tag": f"{name}~{index}:{edit.kind}"})
                for index, edit in enumerate(proposals)
            )
        jobs.extend(self.miss_jobs(seed, len(programs), smoke))
        refs = iter(build_references(jobs, self.setup_workers))
        plan = Plan([Program(next(refs)) for _ in programs], workdir)
        for program, proposals in zip(plan.programs, edits):
            program.edits = [next(refs) for _ in proposals]
        plan.misses = list(refs)
        return plan

    def miss_jobs(self, seed: int, count: int, smoke: bool) -> list:
        return []

    def round(self, plan: Plan, rec, rng, trace: bool = False):
        """In-process round: every program cold into a store that
        starts empty, then its script through ``handle_request`` on a
        session cache of its own (one serve loop per file, so the heap
        a collection walks does not grow with the round)."""
        store_dir = plan.workdir / "store"
        shutil.rmtree(store_dir, ignore_errors=True)
        store = ResultStore(str(store_dir))
        programs = list(plan.programs)
        rng.shuffle(programs)
        for program in programs:
            # A failed input counts once, at its cold operation: there
            # is nothing right to load, query or edit.
            if not ops.cold(rec, store, program.ref):
                continue
            sender = ops.InProcess(store)
            for step in program_steps(program, self.undo):
                ops.send(rec, sender, step)
            if self.reopen:
                ops.cold(rec, store, program.ref)
        store.close()
        shutil.rmtree(store_dir, ignore_errors=True)
        return None


def query_steps(ref: Reference, queries) -> list[ops.Step]:
    return [
        ops.Step(
            "query", ref, {"source": ref.source, "query": query},
            ops.answer_check(ref, query),
        )
        for query in queries
    ]


def program_steps(
    program: Program, undo: bool, misses: list[Reference] = ()
) -> list[ops.Step]:
    """One program's requests, the same over either transport: its
    queries (the first on a fresh session is a load), ``misses`` (cold
    ``check`` requests of fresh sources), then a ``watch`` opened on
    the text and each edit sent as a ``watch`` from the current text,
    followed by a query, and with ``undo`` sent back and queried
    again."""
    ref = program.ref
    steps = query_steps(ref, ref.answers)
    if steps:
        steps[0].kind = "load"
    for miss in misses:
        steps.append(ops.Step(
            "cold", miss,
            {"cmd": "check", "source": miss.source, "format": "sarif",
             "provenance": False},
            ops.sarif_check(miss), stmts=miss.stmts,
        ))
    if not program.edits:
        return steps
    steps.append(ops.Step(
        "check", ref, {"cmd": "watch", "source": ref.source},
        ops.watch_check(ref),
    ))
    current = ref
    for target in program.edits:
        for new in [target, ref] if undo else [target]:
            steps.append(ops.Step(
                "edit", new,
                {"cmd": "watch", "source": new.source,
                 "from": current.source},
                ops.watch_check(new),
            ))
            steps.extend(query_steps(new, list(new.answers)[:1]))
            current = new
    return steps


class CallScaling(Workload):
    name = "call-scaling"

    def inputs(self, seed, smoke):
        return families.call_scaling_programs(seed, smoke)


class EditSession(Workload):
    name = "edit-session"
    n_queries = 48
    edits_per_program = 2
    undo = True
    reopen = True


class DaemonWarm(Workload):
    name = "daemon-warm"
    #: A round takes about 11 s on a 2-vCPU machine, so a 15 s run is
    #: two rounds whether the machine runs fast or slow.
    n_queries = 48
    setup_workers = 1
    rss_children = True
    undo = True
    ref_options = {"keep_artifact": True}
    #: Fresh miss sources sent per program: enough misses that their
    #: p90 does not rest on a handful of requests.
    misses_per_program = 4

    def miss_jobs(self, seed, count, smoke):
        return [
            ((f"miss{index}", families.miss_program(index, seed), 0), {})
            for index in range(count * self.misses_per_program)
        ]

    def setup(self, seed, smoke, workdir):
        plan = super().setup(seed, smoke, workdir)
        plan.daemon = Daemon(plan, workdir / "store")
        return plan

    def round(self, plan, rec, rng, trace=False):
        """One closed-loop round against a daemon in its just-warmed
        state (the set-up's for the first round, a fresh one after), so
        every round sees the same loads and misses.  With ``trace``,
        returns the requests' trace documents and the daemon's metrics
        registry."""
        daemon, plan.daemon = plan.daemon, None
        if daemon is None:
            daemon = Daemon(plan, plan.workdir / "store")
        try:
            programs = list(plan.programs)
            rng.shuffle(programs)
            share = len(plan.misses) // len(programs)
            for position, program in enumerate(programs):
                misses = plan.misses[position * share:(position + 1) * share]
                for step in program_steps(program, self.undo, misses):
                    ops.send(rec, daemon, step, trace)
            if not trace:
                return None
            documents = [
                daemon.client.trace(trace_id)["result"]
                for trace_id in rec.trace_ids
            ]
            return documents, daemon.client.metrics()["result"]
        finally:
            daemon.close()


def warm_store(plan: Plan, store_dir: Path) -> None:
    """Write every suite artifact (the oracle-checked reference
    payloads) into a fresh file store."""
    shutil.rmtree(store_dir, ignore_errors=True)
    store = ResultStore(str(store_dir))
    for program in plan.programs:
        store.put(ResultStore.key_for(program.ref.source), program.ref.artifact)
    store.close()


#: Warm sessions the worker keeps.  The closed loop finishes one
#: program before the next and a program's script holds at most two
#: sessions, so this evicts nothing the script uses; it keeps the
#: worker's heap, and with it the cost of its collections, from growing
#: through the round.
MAX_SESSIONS = 4


def _serve(store_dir: str, conn) -> None:
    """Run one daemon with one worker until told to stop."""
    handle = DaemonHandle(
        DaemonConfig(
            store_url=store_dir, workers=1, max_sessions=MAX_SESSIONS,
            trace_buffer=1 << 16,
        )
    )
    try:
        conn.send(handle.start())
        conn.recv()
    finally:
        handle.stop()
        conn.close()


class Daemon:
    """One daemon (one worker) over a pre-warmed store, and the closed
    loop's client connection; the sender of daemon-warm's steps.

    The ``DaemonHandle`` runs in a small spawned process, so its worker
    forks from that process rather than from the benchmark's (whose
    heap holds every reference), and its front end does not share an
    interpreter with the client."""

    def __init__(self, plan: Plan, store_dir: Path):
        warm_store(plan, store_dir)
        context = multiprocessing.get_context("spawn")
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(str(store_dir), child)
        )
        self.process.start()
        child.close()
        self.client = None
        try:
            if not self.conn.poll(START_TIMEOUT_S):
                raise RuntimeError("the daemon did not start in time")
            host, port = self.conn.recv()
            self.client = DaemonClient(host, port)
            response = self.client.request({"cmd": "stats"})
            if not response.get("ok"):
                raise RuntimeError(f"daemon warm-up failed: {response}")
        except BaseException:
            self.close()
            raise

    def send(self, body: dict) -> dict:
        return self.client.request(body)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        try:
            self.conn.send(None)
        except OSError:
            pass  # the daemon process is already gone
        self.process.join(START_TIMEOUT_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


#: Longest wait for the daemon process to start or stop.
START_TIMEOUT_S = 60


WORKLOADS = {
    workload.name: workload
    for workload in (CallScaling(), EditSession(), DaemonWarm())
}
