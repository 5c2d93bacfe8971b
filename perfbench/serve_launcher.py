"""Start ``repro serve`` with the benchmark's tracing installed.

Takes the ``repro serve`` options the benchmark uses (``--port``,
``--port-file``, ``--data-dir``, ``--pool``, ``--pool-mode``) and
reads ``PERFBENCH_TRACE_DIR`` from the environment.  Before the server
starts, the layer wrappers of :mod:`perfbench.tracer` are installed
and the queue's ``execute_repeat`` is swapped for
:func:`perfbench.tracer.traced_execute_repeat`; pool workers are
forked from this process, so they carry the wrappers.  On SIGINT the
server shuts down as ``repro serve`` does, and the server-side task
times and queue waits are written to ``server.jsonl`` in the trace
directory.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--pool", type=int, default=1)
    parser.add_argument("--pool-mode", default="process")
    args = parser.parse_args()
    trace_dir = Path(os.environ["PERFBENCH_TRACE_DIR"])

    from perfbench import tracer as tracing
    from repro.service import queue as queue_module
    from repro.service.server import run_server

    tracer = tracing.Tracer().install()
    tracing.WORKER_TRACER = tracer
    queue_module.execute_repeat = tracing.traced_execute_repeat
    task_ns: list[int] = []
    queue_wait_s: dict[str, float] = {}
    run_task = queue_module.JobQueue._run_task

    async def timed_run_task(self, run, task):
        # The first task a worker picks up for a job ends the job's
        # wait in the queue.
        queue_wait_s.setdefault(run.job.id,
                                time.time() - run.job.submitted_at)
        start = time.perf_counter_ns()
        try:
            return await run_task(self, run, task)
        finally:
            task_ns.append(time.perf_counter_ns() - start)

    queue_module.JobQueue._run_task = timed_run_task
    try:
        asyncio.run(run_server(
            args.data_dir, port=args.port, pool=args.pool,
            pool_mode=args.pool_mode, port_file=args.port_file,
            log=lambda message: None))
    except KeyboardInterrupt:
        pass
    tracer.write(trace_dir / "server.jsonl",
                 {"task_ns": task_ns,
                  "queue_wait_s": list(queue_wait_s.values())})
    return 0


if __name__ == "__main__":
    sys.exit(main())
