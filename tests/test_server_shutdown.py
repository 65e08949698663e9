"""The server stops while a client holds an idle keep-alive connection.

A handler thread blocks reading the next request for as long as its
client keeps the connection open, and interpreter exit joins the pool's
threads — so a server that only stopped accepting would keep its process
alive.  Each test runs the server in a child process under a timeout, so
a regression fails here instead of hanging the suite.
"""

import http.client
import os
import queue
import re
import signal
import subprocess
import sys
import threading

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
EXIT_SECONDS = 5
READY_SECONDS = 60

IN_PROCESS = r"""
import http.client
from repro.datagen.workloads import quickstart_workload
from repro.serve import QueryServer, QueryService
from repro.serve.server import start_server

workload = quickstart_workload(n_transactions=100)
core = QueryServer(QueryService(telemetry=False), workload.db, workload.domains)
handle = start_server(core, port=0, workers=2)
connection = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
connection.request("GET", "/healthz")
response = connection.getresponse()
response.read()
print("healthz", response.status, flush=True)
handle.shutdown()  # the connection stays open and idle
print("shutdown returned", flush=True)
"""


def _spawn(args):
    """Start a child that takes SIGINT as KeyboardInterrupt even when
    this process runs with SIGINT ignored (as a background job does: the
    child would inherit the ignored disposition)."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    ignored = signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    if ignored:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, stdout=subprocess.PIPE, text=True
        )
    finally:
        if ignored:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
    lines: "queue.Queue[str]" = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    return proc, lines, reader


def _stop(proc, reader):
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    reader.join(timeout=EXIT_SECONDS)  # the pipe is at EOF once the child is gone
    proc.stdout.close()


def _wait_for(lines, pattern):
    while True:
        try:
            line = lines.get(timeout=READY_SECONDS)
        except queue.Empty:
            pytest.fail(f"child never printed {pattern!r}")
        match = re.search(pattern, line)
        if match:
            return match


def _assert_exits(proc):
    try:
        code = proc.wait(timeout=EXIT_SECONDS)
    except subprocess.TimeoutExpired:
        pytest.fail(f"server process still running {EXIT_SECONDS}s after shutdown")
    assert code == 0


def test_in_process_shutdown_with_idle_keep_alive_connection():
    proc, lines, reader = _spawn(["-c", IN_PROCESS])
    try:
        assert _wait_for(lines, r"healthz (\d+)").group(1) == "200"
        _wait_for(lines, "shutdown returned")
        _assert_exits(proc)
    finally:
        _stop(proc, reader)


def test_cli_serve_exits_on_sigint_with_idle_keep_alive_connection():
    proc, lines, reader = _spawn(
        ["-m", "repro", "serve", "--port", "0", "--transactions", "200",
         "--http-workers", "2"]
    )
    connection = None
    try:
        match = _wait_for(lines, r"at http://([\d.]+):(\d+)")
        connection = http.client.HTTPConnection(
            match.group(1), int(match.group(2)), timeout=30
        )
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        assert response.status == 200
        proc.send_signal(signal.SIGINT)  # the connection stays open and idle
        _assert_exits(proc)
    finally:
        if connection is not None:
            connection.close()
        _stop(proc, reader)
