"""``repro-dsm serve`` with one of the suite's instruments installed.

``python3 servehost.py {spans,profile} DUMP serve --port 0 ...``

Runs the unmodified CLI entry point in this process after wrapping the
serving seams (``spans``) or with ``cProfile`` at hand (``profile``), and
writes what it recorded to ``DUMP`` once the server has drained and
returned.  The profiler runs only between ``SIGUSR1`` and ``SIGUSR2``, so
the load generator can bracket a timed repeat and leave imports, pool
start-up and warm-up out of the table.  The pool workers are separate
processes and stay uninstrumented.
"""

import json
import signal
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]


def main(argv) -> int:
    from repro.harness import cli

    from benchmarks.suite import tracing

    mode, dump, serve_args = argv[0], argv[1], argv[2:]
    if mode == "spans":
        recorder = tracing.SpanRecorder()
        tracing.install_serving_spans(recorder)
        try:
            return cli.main(serve_args)
        finally:
            recorder.remove()
            Path(dump).write_text(json.dumps(recorder.spans))
    if mode == "profile":
        import cProfile

        # Thread CPU time, not wall: an event loop waiting in epoll for
        # its pool worker is idle, not busy in "other".
        profiler = cProfile.Profile(time.thread_time)
        # Handlers run on the main thread — the event loop's — which is
        # the thread ``enable`` must be called from.
        signal.signal(signal.SIGUSR1, lambda *_: profiler.enable())
        signal.signal(signal.SIGUSR2, lambda *_: profiler.disable())
        try:
            return cli.main(serve_args)
        finally:
            profiler.disable()
            profiler.dump_stats(dump)
    raise SystemExit(f"servehost: unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
