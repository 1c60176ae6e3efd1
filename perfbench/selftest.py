"""The benchmark's own checks. Run from the repository root::

    python3 perfbench/selftest.py

They show that the generator still writes what the program's builders
write, that the references accept the program's real outputs and reject
planted wrong ones, that the tracer's self times add up, and that
BENCHMARK.json names exactly the metrics ``run.py`` reports.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import rspir  # noqa: E402
import rspir.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import SearchReference, SimulateReference, VerifyReference  # noqa: E402
from tracer import Tracer  # noqa: E402

TMP = os.path.join(ROOT, ".perfbench_work", "selftest")


def cli_run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def write(name: str, text: str) -> str:
    os.makedirs(TMP, exist_ok=True)
    path = os.path.join(TMP, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class GeneratorTest(unittest.TestCase):
    def test_shipped_copies_match_the_builders(self):
        for variant, K, m in workloads.VERIFY_SCHEMES + [c[:3] for c in workloads.SIMULATE_SCHEMES]:
            built = rspir.build_scheme(variant, None if variant == "k4-special" else K, m)
            self.assertEqual(workloads.shipped(variant, K, m).text(), rspir.serialize_scheme(built), (variant, K, m))

    def test_every_round_is_the_same_multiset(self):
        for workload in workloads.GENERATORS:
            rounds = workloads.generate(workload, 5, os.path.join(TMP, "r"))
            first = sorted(op.argv[:2] for op in rounds[0])
            for r in rounds[1:]:
                self.assertEqual(sorted(op.argv[:2] for op in r), first, workload)

    def test_same_seed_same_inputs(self):
        for workload in workloads.GENERATORS:
            a = workloads.generate(workload, 5, os.path.join(TMP, "a"))
            b = workloads.generate(workload, 5, os.path.join(TMP, "b"))
            self.assertEqual(
                [[op.argv[2:] if op.scheme else op.argv for op in r] for r in a],
                [[op.argv[2:] if op.scheme else op.argv for op in r] for r in b],
            )


class VerifyReferenceTest(unittest.TestCase):
    ref = VerifyReference()

    def test_agrees_with_the_program(self):
        rng = random.Random(3)
        for variant, K, m in workloads.VERIFY_SCHEMES:
            if K > (4 if m == 1 else 2):
                continue  # keep the test quick
            base = workloads.shipped(variant, K, m)
            for s, shipped in [(base, (variant, K))] + [(workloads.mutate(base, a, rng), None) for a in range(len(base.db1))]:
                text = s.text()
                rc, out = cli_run(["verify", write("v.txt", text)])
                self.assertEqual(self.ref.check(text, shipped, rc, out), [], text)

    def test_catches_a_flipped_verdict(self):
        text = workloads.shipped("pairwise-sum", 3, 1).text()
        rc, out = cli_run(["verify", write("v.txt", text)])
        self.assertEqual(rc, 0)
        flipped = out.replace("CHECK reliability PASS", "CHECK reliability FAIL pair (1,1) decodes no message")
        self.assertTrue(self.ref.check(text, ("pairwise-sum", 3), 1, flipped))
        self.assertTrue(self.ref.check(text, ("pairwise-sum", 3), 1, out))

    def test_catches_a_mutant_reported_valid(self):
        base = workloads.shipped("rotation-randomness", 3, 1)
        rng = random.Random(0)
        while True:
            text = workloads.mutate(base, 0, rng).text()
            rc, out = cli_run(["verify", write("v.txt", text)])
            if rc == 1:
                break
        passed = "".join(
            (ln.split(" FAIL")[0] + " PASS" if " FAIL" in ln else ln) + "\n" for ln in out.splitlines()
        )
        self.assertTrue(self.ref.check(text, None, 0, passed))

    def test_catches_a_wrong_measure(self):
        text = workloads.shipped("k4-special", 4, 1).text()
        want_rc, want_out = self.ref.expected(text)
        wrong = want_out.replace("MEASURE rate 1/3", "MEASURE rate 1/4")
        self.assertTrue(self.ref.check(text, ("k4-special", 4), want_rc, wrong))


class SimulateReferenceTest(unittest.TestCase):
    ref = SimulateReference()

    def transcript(self, key, seed="11", blocks="20"):
        text = workloads.shipped(*key).text()
        argv = ("run", write("s.txt", text), "--seed", seed, "--blocks", blocks)
        rc, out = cli_run(list(argv))
        return text, argv, rc, out

    def test_agrees_with_the_program(self):
        for *key, _ in workloads.SIMULATE_SCHEMES:
            for seed in ("1", "2", "3"):
                text, argv, rc, out = self.transcript(key, seed)
                self.assertEqual(self.ref.check(text, argv, rc, out), [], (key, seed))

    def test_catches_a_wrong_decoded_symbol(self):
        text, argv, rc, out = self.transcript(("k4-special", 4, 2))
        lines = out.splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("decoded "))
        parts = lines[i].split()
        parts[1] = str((int(parts[1]) + 1) % 4)
        lines[i] = " ".join(parts)
        self.assertTrue(self.ref.check(text, argv, rc, "\n".join(lines) + "\n"))

    def test_catches_a_wrong_download_count(self):
        text, argv, rc, out = self.transcript(("pairwise-sum", 3, 1))
        wrong = out.replace("download symbols 60 ", "download symbols 61 ")
        self.assertNotEqual(wrong, out)
        self.assertTrue(self.ref.check(text, argv, rc, wrong))

    def test_catches_a_corrupted_block(self):
        text, argv, rc, out = self.transcript(("pairwise-sum", 6, 4))
        lines = out.splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("block 5 db1 "))
        parts = lines[i].split()
        parts[3] = str(int(parts[3]) ^ 1)
        lines[i] = " ".join(parts)
        self.assertTrue(self.ref.check(text, argv, rc, "\n".join(lines) + "\n"))


class SearchReferenceTest(unittest.TestCase):
    def test_agrees_and_catches_a_missing_class(self):
        ref = SearchReference(VerifyReference())
        rc, out = cli_run(list(workloads.SEARCH_ARGV))
        self.assertEqual(ref.check(rc, out), [])
        head, first, _ = out.split("\n\n")
        self.assertTrue(ref.check(rc, head + "\n\n" + first + "\n"))
        self.assertTrue(ref.check(rc, out.replace("found 2 scheme", "found 3 scheme")))


class TracerTest(unittest.TestCase):
    def test_self_times_add_up_and_uninstall_restores(self):
        from rspir import protocol, verify

        originals = (verify.mat_vec, protocol.mat_vec, rspir.FieldSpec.mul, cli.main)
        path = write("t.txt", workloads.shipped("rotation-randomness", 2, 2).text())
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(verify.mat_vec, originals[0])
            self.assertIsNot(protocol.mat_vec, originals[1])
            traced = cli_run(["verify", path])
            cli_run(["run", path, "--blocks", "3"])
        finally:
            tracer.uninstall()
        self.assertEqual((verify.mat_vec, protocol.mat_vec, rspir.FieldSpec.mul, cli.main), originals)
        self.assertEqual(traced, cli_run(["verify", path]))
        roots = sum(
            tracer.span_end[i] - tracer.span_start[i]
            for i in range(len(tracer.span_start))
            if tracer.span_parent[i] < 0
        )
        self.assertAlmostEqual(sum(tracer.layer_self_times().values()), roots, delta=1e-9)
        self.assertGreater(tracer.calls["field.FieldSpec.mul"], 0)
        self.assertEqual(tracer.counters["verify.enumerate_observations"], 2 * 4 * 4**4)


class CompareTest(unittest.TestCase):
    def runs(self, values):
        return [{"seed": s, "metrics": {"op_p50_s": {"value": v}}} for s, v in enumerate(values)]

    def test_needs_ten_pairs(self):
        import compare

        parent, change = self.runs([1.0] * 10), self.runs([0.5] * 10)
        paired = compare.pairs(parent, change, "op_p50_s")
        self.assertEqual(compare.verdict([1.0] * 10, [0.5] * 10, paired, True)[0], "improved")
        self.assertEqual(compare.verdict([1.0] * 9, [0.5] * 9, paired[:9], True)[0], "unresolved")
        self.assertEqual(compare.verdict([1.0] * 10, [1.5] * 10, [(1.0, 1.5)] * 10, True)[0], "worse")

    def test_seeds_must_match(self):
        import compare

        parent, change = self.runs([1.0] * 10), self.runs([1.0] * 10)
        change[0]["seed"] = 99
        with self.assertRaises(ValueError):
            compare.pairs(parent, change, "op_p50_s")


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], [m[:2] for m in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], [m[:2] for m in run.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.GENERATORS))


if __name__ == "__main__":
    unittest.main()
