"""Cross-check of the ROADMAP baseline table against traced and direct timings.

For each scheme in the table this times the decode table and the five
checks two ways, five times each, and prints the medians beside the
ROADMAP figures:

* traced -- ``rspir verify FILE`` through ``cli.main`` with the benchmark's
  tracer installed; the figure is the span of each function;
* direct -- the same functions called straight from the library, with no
  wrappers, which shows how much of a traced figure is tracing cost.

``run_protocol`` is timed the same way, per block, over 10,000 blocks, and
so is the whole ``rspir run`` command, which adds message generation and
transcript formatting.
"""
from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import time

import workloads
from tracer import Tracer

REPS = 5
BLOCKS = 10_000

# ROADMAP baseline, in ms: decode table / independence / reliability / db-privacy / user privacy
VERIFY_BASELINE = {
    ("k4-special", 4, 1): (11, 130, 302, 647, 0.1),
    ("pairwise-sum", 6, 1): (40, 145, 372, 727, 0.3),
    ("rotation-randomness", 3, 2): (2, 132, 607, 706, 0.1),
}
COLUMNS = (
    ("decode table", "decode.derive_decode_table"),
    ("independence", "verify.check_determinism_and_independence"),
    ("reliability", "verify.check_reliability"),
    ("db-privacy", "verify.check_database_privacy"),
    ("user privacy", "verify.check_user_privacy"),
)
# ROADMAP baseline, in us per block
PROTOCOL_BASELINE = {("pairwise-sum", 3, 1): 18.8, ("k4-special", 4, 2): 72.0}


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def main(src: str, workdir: str) -> int:
    sys.path.insert(0, src)
    import rspir
    import rspir.cli as cli
    from rspir import verify as V

    os.makedirs(workdir, exist_ok=True)
    print(f"median of {REPS}; ms per call unless marked; ROADMAP / traced / direct")
    print(f"{'scheme':<28}" + "".join(f"{title:>26}" for title, _ in COLUMNS))
    for key, baseline in VERIFY_BASELINE.items():
        path = os.path.join(workdir, "{}-K{}-m{}.txt".format(*key))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workloads.shipped(*key).text())
        s = rspir.load_scheme(path)

        traced = {name: [] for _, name in COLUMNS}
        for _ in range(REPS):
            tracer = Tracer()
            tracer.install()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(["verify", path])
            finally:
                tracer.uninstall()
            totals = tracer.span_totals()
            for name in traced:
                traced[name].append(totals[name])

        direct = {name: [] for _, name in COLUMNS}
        for _ in range(REPS):
            dt, table = _timed(rspir.derive_decode_table, s)
            direct["decode.derive_decode_table"].append(dt)
            direct["verify.check_determinism_and_independence"].append(_timed(V.check_determinism_and_independence, s)[0])
            direct["verify.check_reliability"].append(_timed(V.check_reliability, s, table)[0])
            direct["verify.check_database_privacy"].append(_timed(V.check_database_privacy, s, table)[0])
            direct["verify.check_user_privacy"].append(_timed(V.check_user_privacy, s, table)[0])

        cells = []
        for (_, name), base in zip(COLUMNS, baseline):
            t = statistics.median(traced[name]) * 1e3
            d = statistics.median(direct[name]) * 1e3
            cells.append(f"{base:g} / {t:.3g} / {d:.3g}")
        label = "{} K={} GF(2^{})".format(*key)
        print(f"{label:<28}" + "".join(f"{c:>26}" for c in cells))

    print(f"\nrun_protocol, us per block over {BLOCKS} blocks: ROADMAP / traced / direct / whole 'rspir run'")
    for key, base in PROTOCOL_BASELINE.items():
        path = os.path.join(workdir, "{}-K{}-m{}.txt".format(*key))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workloads.shipped(*key).text())
        s = rspir.load_scheme(path)
        msgs = rspir.random_messages(s, 7, BLOCKS)
        table = rspir.derive_decode_table(s)
        traced, direct, command = [], [], []
        argv = ["run", path, "--seed", "7", "--blocks", str(BLOCKS)]
        for _ in range(REPS):
            tracer = Tracer()
            tracer.install()
            try:
                rspir.protocol.run_protocol(s, msgs, 7, BLOCKS, table)
            finally:
                tracer.uninstall()
            traced.append(tracer.span_totals()["protocol.run_protocol"])
            direct.append(_timed(rspir.run_protocol, s, msgs, 7, BLOCKS, table)[0])
            with contextlib.redirect_stdout(io.StringIO()):
                command.append(_timed(cli.main, argv)[0])
        t, d, c = (statistics.median(v) / BLOCKS * 1e6 for v in (traced, direct, command))
        label = "{} K={} GF(2^{})".format(*key)
        print(f"{label:<28}{base:>10g} / {t:.3g} / {d:.3g} / {c:.3g}")
    return 0
