"""No process outlives a serve-hit run, however the run ends; and the
benchmark refuses to run without the program.

Run: ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

from conftest import BENCH, ROOT

RUN = os.path.join(BENCH, "run.py")


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_gone(pid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _alive(pid):
            return True
        time.sleep(0.1)
    return not _alive(pid)


def _start_replay():
    """A long serve-hit run, stopped once its replay has begun; returns
    the benchmark process and the server child's pid."""
    before = set(glob.glob(os.path.join(BENCH, "serve-hit-*")))
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "serve-hit", "--seed", "4",
         "--seconds", "60", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 120
    for line in iter(proc.stderr.readline, b""):
        match = re.search(rb"replay started \(server pid (\d+)\)", line)
        if match:
            time.sleep(0.5)  # well into the replay
            return proc, int(match.group(1)), before
        if time.monotonic() > deadline:
            break
    proc.kill()
    proc.wait()
    pytest.fail("the serve-hit replay never started")


def _cleanup(proc, before):
    proc.stdout.close()
    proc.stderr.close()
    for leftover in set(glob.glob(os.path.join(BENCH, "serve-hit-*"))) - before:
        shutil.rmtree(leftover, ignore_errors=True)


def test_interrupted_replay_stops_its_server():
    proc, server_pid, before = _start_replay()
    try:
        assert _alive(server_pid)
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=60)
        assert proc.returncode != 0
        assert _wait_gone(server_pid, 5), "the server outlived an interrupted run"
        assert not set(glob.glob(os.path.join(BENCH, "serve-hit-*"))) - before
    finally:
        _cleanup(proc, before)


def test_terminated_replay_stops_its_server():
    proc, server_pid, before = _start_replay()
    try:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        assert proc.returncode != 0
        assert _wait_gone(server_pid, 5), "the server outlived a terminated run"
    finally:
        _cleanup(proc, before)


def test_killed_benchmark_leaves_no_server():
    proc, server_pid, before = _start_replay()
    try:
        proc.kill()
        proc.wait(timeout=30)
        assert _wait_gone(server_pid, 10), "the server outlived a killed run"
    finally:
        _cleanup(proc, before)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "serve-hit-*"))
    for workload in ("cfq-paper", "serve-hit", "serve-churn"):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "20", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=180,
        )
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout


def test_benchmark_json_matches_the_command():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        bench = json.load(spec)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
