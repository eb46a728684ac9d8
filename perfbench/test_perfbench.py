"""The benchmark's own tests: the schema of ``BENCHMARK.json`` and a
smoke run of every workload in both modes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = ("call-scaling", "edit-session", "daemon-warm")

END_TO_END = {
    "setup_s": "s", "cold_p50_s": "s", "cold_p90_s": "s",
    "cold_stmts_per_s": "stmt/s", "load_p50_ms": "ms",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "edit_p50_ms": "ms",
    "edit_p90_ms": "ms", "requests_per_s": "req/s",
    "request_p50_ms": "ms", "request_p99_ms": "ms", "peak_rss_mb": "MB",
    "success_share": "ratio",
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def test_spec_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_workloads_named_with_reasons():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]


def test_end_to_end_metrics_and_units():
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in spec.items()} == END_TO_END
    for metric in spec.values():
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    assert spec["setup_s"]["bound"] == max(m["bound"] for m in spec.values())


def test_per_layer_metrics_and_units():
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    names = {m["name"] for m in SPEC["per_layer"]}
    assert {"other.self_s", "obs.trace_overhead"} <= names


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    result = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--smoke",
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    stamp = json.loads(lines[-2].removeprefix("# perfbench "))
    assert stamp["seed"] == 3 and stamp["nproc"] >= 1
    output = json.loads(lines[-1])
    assert set(output) == {"correct", "attempted", "failed", "metrics"}
    assert output["correct"] is True
    assert output["attempted"] >= 1
    assert 0 <= output["failed"] < output["attempted"]
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in output["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in spec}
    if trace == "1":
        assert stamp["balanced"] and stamp["same_outputs"]


def test_failures_are_counted_by_class():
    """The smoke sweep keeps one input past today's recursion-depth
    limits; whatever it does, every failure is reported by class."""
    result = _run(
        "--workload", "call-scaling", "--seed", "0", "--seconds", "1",
        "--smoke",
    )
    lines = result.stdout.strip().splitlines()
    stamp = json.loads(lines[-2].removeprefix("# perfbench "))
    output = json.loads(lines[-1])
    assert sum(stamp["errors"].values()) == output["failed"]


def _session_members(sid: int) -> list[int]:
    """Processes, zombies included, whose session id is ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while the scan ran
        if int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("workload", ("call-scaling", "daemon-warm"))
def test_no_process_outlives_the_run(workload):
    """Reference pools, the daemon and the resource tracker the spawn
    start method launches have all ended when the benchmark exits."""
    process = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert process.wait(timeout=300) == 0
    assert _session_members(process.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    result = _run(
        "--workload", "edit-session", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
