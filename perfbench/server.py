"""Server launcher of the slot benchmark: one ``NetServer`` process.

Usage (from the repository root; ``run.py`` does this for you)::

    python3 perfbench/server.py --workload dense-bfa \\
        [--journal-dir DIR] [--trace-dir DIR]

Builds the workload's backend behind a ``NetServer`` on an ephemeral
loopback port, prints ``READY <port> <worker pids...>`` on
stdout, serves until its stdin reaches EOF, then shuts everything down.

With ``--trace-dir`` the layer wrappers of :mod:`tracing` are installed
before the service is built, spans are kept in memory and written to
``<trace-dir>/server.jsonl`` at exit.  Shard worker processes start from
a fresh import of this file (``multiprocessing`` spawn runs it as
``__mp_main__``); the ``PERFBENCH_TRACE_DIR`` variable they inherit makes
them trace too, writing ``worker-<pid>.jsonl`` when they exit.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
TRACE_ENV = "PERFBENCH_TRACE_DIR"


def _paths() -> None:
    for p in (str(_HERE.parent / "src"), str(_HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)


def _trace_worker() -> None:
    """Shard-worker side of tracing (runs at spawn import time)."""
    import atexit

    from tracing import Recorder, install

    recorder = install(Recorder("worker"))
    out = Path(os.environ[TRACE_ENV]) / f"worker-{os.getpid()}.jsonl"
    atexit.register(recorder.write, out)


if __name__ == "__mp_main__" and os.environ.get(TRACE_ENV):
    _paths()
    _trace_worker()


async def _serve(args) -> None:
    import asyncio
    import multiprocessing

    from repro.net.server import NetServer
    from workloads import WORKLOADS, build_service

    recorder = None
    if args.trace_dir:
        from tracing import Recorder, install

        os.environ[TRACE_ENV] = args.trace_dir
        recorder = install(Recorder("server"))
    service = build_service(WORKLOADS[args.workload], args.journal_dir)
    if recorder is not None:
        recorder.slot = lambda: service.slot
    server = NetServer(service)
    await server.start()
    workers = [
        str(p.pid)
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-worker")
    ]
    print("READY", server.port, *workers, flush=True)

    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    transport, _ = await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin
    )
    try:
        await stdin.read()
    finally:
        transport.close()
        await server.stop()
        await service.stop()
        if recorder is not None:
            recorder.uninstall()
            recorder.write(Path(args.trace_dir) / "server.jsonl")


def main() -> None:
    import argparse
    import asyncio

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--journal-dir")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    _paths()
    asyncio.run(_serve(args))


if __name__ == "__main__":
    main()
