"""Benchmark for rspir: verify, simulate and search, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload search --seed 1 --seconds 32 --trace 1
    python3 perfbench/run.py ... --record results.jsonl    # also append the result
    python3 perfbench/run.py --compare parent.jsonl change.jsonl
    python3 perfbench/run.py --crosscheck                  # ROADMAP baseline table

A run writes its inputs from the seed, starts fresh interpreters to time
set-up, then starts one worker process that runs ops in a closed loop for
the given seconds. After the worker exits, every op's exit code and output
are checked against an independent reference. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from reference import SearchReference, SimulateReference, VerifyReference  # noqa: E402

# Fresh interpreters timed for setup_s, half before the worker and half
# after it, so they sample the host's speed at the start and the end of a run.
SETUP_PROBES = 20
# The worker must finish within this many seconds beyond --seconds: it
# completes the round it is in and writes its results. The whole run has to
# end within 180 s.
WORKER_GRACE_S = 100


def tail(values: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples). With fewer than eleven samples
    no percentile qualifies, and this is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    idx = n - 11 if n >= 11 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


# --- set-up ------------------------------------------------------------------

def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a fresh interpreter and return it with its seconds to 'ready'."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line != "ready\n":
        proc.kill()
        _, err = proc.communicate()
        raise RuntimeError(f"worker did not start: {err.strip() or line!r}")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker and return its stderr; kill it if it overruns."""
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker overran {timeout} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()}")
    return err


def setup_samples(n: int) -> list[float]:
    samples = []
    for _ in range(n):
        proc, ready = start_worker(["probe", SRC])
        finish(proc, 60)
        samples.append(ready)
    return samples


# --- one run ----------------------------------------------------------------

def run_worker(rounds: list[list[workloads.Op]], seconds: int, trace: bool, workdir: str) -> tuple[list[dict], dict, float]:
    """Run the rounds in one worker: untraced for ``seconds``, traced once through."""
    job = {
        "ops": [list(op.argv) for r in rounds for op in r],
        "round_len": len(rounds[0]),
        "seconds": seconds,
        "trace": trace,
        "results": os.path.join(workdir, "results.jsonl"),
        "summary": os.path.join(workdir, "summary.json"),
        "spans": os.path.join(workdir, "spans.txt"),
    }
    job_path = os.path.join(workdir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc, ready = start_worker(["run", SRC, job_path])
    finish(proc, seconds + WORKER_GRACE_S)
    with open(job["results"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    with open(job["summary"], encoding="utf-8") as fh:
        summary = json.load(fh)
    return records, summary, ready


class Checker:
    """Runs the workload's reference on each op, outside the timed region."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.verify = VerifyReference()
        self.simulate = SimulateReference()
        self.search = SearchReference(self.verify) if workload == "search" else None
        self._texts: dict[str, str] = {}

    def _text(self, path: str) -> str:
        if path not in self._texts:
            with open(path, encoding="utf-8") as fh:
                self._texts[path] = fh.read()
        return self._texts[path]

    def problems(self, op: workloads.Op, record: dict) -> list[str]:
        rc, out = record["rc"], record["out"]
        found = ["traced and untraced outputs differ"] if record.get("trace_changed_output") else []
        if self.workload == "verify":
            return found + self.verify.check(self._text(op.scheme), op.shipped, rc, out)
        if self.workload == "simulate":
            return found + self.simulate.check(self._text(op.scheme), op.argv, rc, out)
        return found + self.search.check(rc, out)


def work_units(workload: str, op: workloads.Op, out: str) -> int:
    """Work one op completed: schemes verified, protocol blocks, candidates examined."""
    if workload == "simulate":
        return int(op.argv[op.argv.index("--blocks") + 1])
    if workload == "search":
        try:
            return int(out.split("\n", 1)[0].split(" in ")[1].split()[0])
        except (IndexError, ValueError):
            return 0  # malformed output; the reference counts the op as failed
    return 1


# --- metrics ----------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, how it is read from the worker's trace summary)
PER_LAYER = (
    ("verify.check_reliability.s", "s/op", ("span", "verify.check_reliability")),
    ("verify.check_database_privacy.s", "s/op", ("span", "verify.check_database_privacy")),
    ("verify.realizations", "count/op", ("counter", "verify.enumerate_observations")),
    ("verify.model_joint.s", "s/op", ("span", "verify.model_joint")),
    ("verify.check_determinism_and_independence.s", "s/op", ("span", "verify.check_determinism_and_independence")),
    ("verify.check_user_privacy.s", "s/op", ("span", "verify.check_user_privacy")),
    ("verify.self_s", "s/op", ("self", "verify")),
    ("infotheory.is_independent.s", "s/op", ("span", "infotheory.is_independent")),
    ("infotheory.entropy.calls", "calls/op", ("calls", "infotheory.entropy")),
    ("infotheory.mutual_information.calls", "calls/op", ("calls", "infotheory.mutual_information")),
    ("infotheory.self_s", "s/op", ("self", "infotheory")),
    ("field.mul.calls", "calls/op", ("calls", "field.FieldSpec.mul")),
    ("field.add.calls", "calls/op", ("calls", "field.FieldSpec.add")),
    ("field.inv.calls", "calls/op", ("calls", "field.FieldSpec.inv")),
    ("field.check.calls", "calls/op", ("calls", "field.FieldSpec.check")),
    ("field.self_s", "s/op", ("self", "field")),
    ("linalg.mat_vec.calls", "calls/op", ("calls", "linalg.mat_vec")),
    ("linalg.row_reduce.calls", "calls/op", ("calls", "linalg.row_reduce")),
    ("linalg.rank.calls", "calls/op", ("calls", "linalg.rank")),
    ("linalg.self_s", "s/op", ("self", "linalg")),
    ("decode.derive_decode_table.calls", "calls/op", ("calls", "decode.derive_decode_table")),
    ("decode.derive_decode_table.s", "s/op", ("span", "decode.derive_decode_table")),
    ("decode.decode.calls", "calls/op", ("calls", "decode.decode")),
    ("decode.self_s", "s/op", ("self", "decode")),
    ("search.candidate_answers.s", "s/op", ("span", "search.candidate_answers")),
    ("search.pool_size", "count/op", ("counter", "search.pool_size")),
    ("search.examined", "count/op", ("counter", "search.examined")),
    ("search.verified", "count/op", ("counter", "search.verified")),
    ("search.valid", "count/op", ("counter", "search.valid")),
    ("search.unique_ratio", "ratio", ("ratio", "search.verified", "search.examined")),
    ("search.valid_ratio", "ratio", ("ratio", "search.valid", "search.verified")),
    ("search.canonical_key.calls", "calls/op", ("calls", "search.canonical_key")),
    ("search.canonical_key.s", "s/op", ("span", "search.canonical_key")),
    ("search.self_s", "s/op", ("self", "search")),
    ("scheme.permute_answers.calls", "calls/op", ("calls", "scheme.permute_answers")),
    ("scheme.permute_randomness.calls", "calls/op", ("calls", "scheme.permute_randomness")),
    ("scheme.self_s", "s/op", ("self", "scheme")),
    ("schemeio.serialize_scheme.calls", "calls/op", ("calls", "schemeio.serialize_scheme")),
    ("schemeio.parse_scheme.calls", "calls/op", ("calls", "schemeio.parse_scheme")),
    ("schemeio.self_s", "s/op", ("self", "schemeio")),
    ("protocol.random_messages.s", "s/op", ("span", "protocol.random_messages")),
    ("protocol.run_protocol.s", "s/op", ("span", "protocol.run_protocol")),
    ("protocol.blocks", "count/op", ("counter", "protocol.blocks")),
    ("protocol.self_s", "s/op", ("self", "protocol")),
    ("cli.self_s", "s/op", ("self", "cli")),
    ("trace.ops", "count", None),
    ("trace.op_wall_s", "s/op", None),
    ("trace.unattributed_s", "s/op", None),
    ("trace.overhead_ratio", "ratio", None),
)


def end_to_end_metrics(workload, ops, records, summary, setup) -> tuple[dict, str]:
    latencies = [r["t"] for r in records]
    busy = sum(latencies)
    units = sum(work_units(workload, ops[r["i"]], r["out"]) for r in records)
    tail_value, pct, n = tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "work_per_s": units / busy,
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
    }
    note = f"op_tail_s is p{pct:.1f} of {n} ops; setup_s is the median of {len(setup)} fresh interpreters"
    return values, note


def per_layer_metrics(records, summary) -> tuple[dict, str]:
    n = len(records)
    counters = summary["counters"]
    values = {}
    for name, _, how in PER_LAYER:
        if how is None:
            continue
        kind, key = how[0], how[1]
        if kind == "span":
            values[name] = summary["span_s"].get(key, 0.0) / n
        elif kind == "calls":
            values[name] = summary["calls"].get(key, 0) / n
        elif kind == "self":
            values[name] = summary["self_s"].get(key, 0.0) / n
        elif kind == "counter":
            values[name] = counters.get(key, 0) / n
        else:  # ratio with its base reported beside it
            base = counters.get(how[2], 0)
            values[name] = counters.get(key, 0) / base if base else 0.0
    traced = sum(r["t"] for r in records)
    plain = sum(r["t_plain"] for r in records)
    attributed = sum(summary["self_s"].values())
    values["trace.ops"] = n
    values["trace.op_wall_s"] = traced / n
    values["trace.unattributed_s"] = (traced - attributed) / n
    values["trace.overhead_ratio"] = traced / plain
    note = (
        f"traced {n} ops, {summary['spans']} spans; traced wall {traced:.3f} s vs untraced "
        f"{plain:.3f} s on the same ops; layer self times sum to {attributed:.3f} s"
    )
    return values, note


def units_of(trace: bool) -> dict[str, str]:
    return {name: unit for name, unit, *_ in (PER_LAYER if trace else END_TO_END)}


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    rounds = workloads.generate(workload, seed, os.path.join(workdir, "inputs"))
    if trace:
        # a fixed list of ops, so the per-op figures do not depend on speed
        traced = workloads.GENERATORS[workload][2]
        rounds = [rounds[k % len(rounds)] for k in range(traced)]
    ops = [op for r in rounds for op in r]
    setup = setup_samples(SETUP_PROBES // 2)
    records, summary, ready = run_worker(rounds, seconds, trace, workdir)
    setup += [ready] + setup_samples(SETUP_PROBES - SETUP_PROBES // 2)

    checker = Checker(workload)
    failed = 0
    notes = []
    for r in records:
        problems = checker.problems(ops[r["i"]], r)
        if problems:
            failed += 1
            if failed <= 5:
                notes.append(f"op {r['i']} {' '.join(ops[r['i']].argv)}: {'; '.join(problems)}")
    if trace:
        values, note = per_layer_metrics(records, summary)
    else:
        values, note = end_to_end_metrics(workload, ops, records, summary, setup)
    notes.append(note)
    notes.append(f"failed_ratio {failed}/{len(records)}")
    units = units_of(trace)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append the result, tagged with workload and seed")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two recorded result sets")
    parser.add_argument("--crosscheck", action="store_true", help="print the ROADMAP baseline cross-check")
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not os.path.isfile(os.path.join(SRC, "rspir", "cli.py")):
        sys.stderr.write(f"error: no rspir sources under {SRC}; run from a checkout of the repository\n")
        return 2
    if args.crosscheck:
        import crosscheck

        return crosscheck.main(SRC, os.path.join(WORK, "crosscheck"))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    for note in notes:
        print(note)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
