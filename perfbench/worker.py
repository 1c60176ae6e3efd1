"""One single-threaded worker process: runs CLI ops in a closed loop.

Usage, from ``run.py`` only::

    python3 worker.py probe SRC          import rspir, say "ready", exit
    python3 worker.py run SRC JOB.json   import rspir, say "ready", run the job

Each op calls ``rspir.cli.main(argv)`` in-process with stdout and stderr
captured, so it pays what a CLI user pays for parsing, computing and
formatting, but not interpreter start-up (that is ``setup_s``). The next op
starts when the previous one returns. Once the time is up an untraced
worker finishes the round of ops it is in (see ``workloads.py``); a traced
worker runs its list of ops once, whatever the time. Each op's exit
code, output and latency go to a JSON-lines file after its timer stops.
The parent checks them after the worker has exited.

With tracing on, every op runs twice, untraced and traced in alternating
order, so the tracing overhead is measured on the same ops.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def run_op(cli, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def run_paired(cli, tracer, argv: list[str], op_id: int):
    """The op untraced and traced, alternating which goes first so warm caches favour neither."""
    results = {}
    for traced in (False, True) if op_id % 2 == 0 else (True, False):
        if traced:
            tracer.op = op_id
            tracer.install()
        try:
            results[traced] = run_op(cli, argv)
        finally:
            tracer.uninstall()
    return results[True], results[False]


def main(argv: list[str]) -> int:
    mode, src = argv[0], argv[1]
    sys.path.insert(0, src)
    import rspir.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.stderr.write(f"rspir was imported from {cli.__file__}, not from {src}\n")
        return 1
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if mode == "probe":
        return 0

    with open(argv[2], encoding="utf-8") as fh:
        job = json.load(fh)
    ops = job["ops"]
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()

    run_op(cli, ops[0])  # warm-up, not recorded
    deadline = time.perf_counter() + (job["seconds"] if tracer is None else float("inf"))
    i = 0
    with open(job["results"], "w", encoding="utf-8") as fh:
        while True:
            argv_i = ops[i % len(ops)]
            record = {"i": i % len(ops)}
            if tracer is None:
                rc, out, err, dt = run_op(cli, argv_i)
            else:
                (rc, out, err, dt), plain = run_paired(cli, tracer, argv_i, i)
                record["t_plain"] = plain[3]
                if plain[:2] != (rc, out):
                    record["trace_changed_output"] = True
            record.update(rc=rc, t=dt, out=out, err=err)
            fh.write(json.dumps(record) + "\n")
            i += 1
            if i == len(ops) and tracer is not None:
                break
            if i % job["round_len"] == 0 and time.perf_counter() >= deadline:
                break

    summary = {"ops": i, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        summary.update(
            calls=dict(tracer.calls),
            span_s=tracer.span_totals(),
            self_s=tracer.layer_self_times(),
            counters=dict(tracer.counters),
            spans=len(tracer.span_start),
        )
        tracer.dump(job["spans"])
    with open(job["summary"], "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
