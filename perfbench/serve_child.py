"""Launcher for the ``repro serve`` child of the serve-hit workload.

    python3 perfbench/serve_child.py --status-file PATH [--trace] -- serve --port 0 ...

It runs the server through the CLI entry point (``repro.cli.main``)
and adds, from outside ``src/``:

* a ready line on standard output, ``{"url": ..., "setup_s": ...}``,
  once the server listens.  ``setup_s`` is timed inside this process
  from its first line to that moment, less the time spent generating
  the dataset (``generate_quest``), so an interpreter start is not in it;
* exit as soon as standard input reaches end of file.  The benchmark
  holds the other end of that pipe, so a benchmark killed outright
  leaves no server behind;
* with ``--trace``, the per-layer timers of ``layers.py``; every
  ``handle_query`` call is one operation, and its duration is added to
  the response's ``serving`` block as ``handle_seconds``;
* at exit, a JSON status file with the peak RSS (and the traced
  operations).
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _exit_when_stdin_closes() -> None:
    sys.stdin.buffer.read()
    os._exit(70)


def _install_op_boundary(recorder) -> None:
    from repro.serve.server import QueryServer

    timed = QueryServer.handle_query

    def handle_query(self, payload):
        recorder.begin()
        start = time.perf_counter()
        try:
            status, body = timed(self, payload)
        finally:
            elapsed = time.perf_counter() - start
            recorder.end()
        serving = body.get("serving")
        if isinstance(serving, dict):
            serving["handle_seconds"] = elapsed
        return status, body

    QueryServer.handle_query = handle_query


def main(argv) -> int:
    # SIGINT must reach `repro serve` as KeyboardInterrupt even when the
    # benchmark was started with SIGINT ignored (a background job).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(target=_exit_when_stdin_closes, daemon=True).start()
    if "--" not in argv:
        print("usage: serve_child.py --status-file PATH [--trace] -- serve ...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    status_path = own[own.index("--status-file") + 1]
    sys.path[:0] = [SRC, HERE]

    import repro.cli
    import repro.datagen.workloads as workloads
    import repro.serve.server as server

    generation = [0.0]
    generate = workloads.generate_quest

    def timed_generate(*args, **kwargs):
        start = time.perf_counter()
        try:
            return generate(*args, **kwargs)
        finally:
            generation[0] += time.perf_counter() - start

    workloads.generate_quest = timed_generate

    recorder = None
    if "--trace" in own:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
        _install_op_boundary(recorder)

    start_server = server.start_server

    def start_and_report(*args, **kwargs):
        handle = start_server(*args, **kwargs)
        setup = time.perf_counter() - _START - generation[0]
        print(json.dumps({"url": handle.url, "setup_s": setup}), flush=True)
        return handle

    server.start_server = start_and_report
    code = repro.cli.main(cli_args)
    status = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if recorder is not None:
        status["ops"] = recorder.ops
    with open(status_path, "w", encoding="utf-8") as out:
        json.dump(status, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
