"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_package()

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from toricsheaves import cli, fan as fanmod, intersect, polynomials, subspace  # noqa: E402
from toricsheaves.stability import StabilityVerdict  # noqa: E402


def _namespaces():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "toricsheaves" or n.startswith("toricsheaves."))]


class TracerInstallTest(unittest.TestCase):
    def test_no_namespace_keeps_an_unwrapped_function(self):
        t = tracer_mod.Tracer()
        t.install()
        try:
            patched = t.originals()
            originals = {id(orig) for _, _, orig in patched}
            self.assertFalse(t.missing)
            # every traced function and method was found somewhere
            expected = sum(len(f) for f in tracer_mod.FUNCTIONS.values()) + 1 + sum(
                len(m) for m in tracer_mod.METHODS.values())
            self.assertEqual(len(originals), expected)
            for ns in _namespaces():
                for attr, value in vars(ns).items():
                    self.assertNotIn(id(value), originals, f"{ns.__name__}.{attr}")
                    if isinstance(value, type):
                        for meth, raw in vars(value).items():
                            self.assertNotIn(id(raw), originals, f"{value.__name__}.{meth}")
            # the names imported into other modules are wrapped too
            import toricsheaves.moduli as moduli
            import toricsheaves.stability as stability
            self.assertTrue(hasattr(moduli.divisor_class_equal, "__wrapped_by_tracer__"))
            self.assertTrue(hasattr(stability.intersect_with_subspace, "__wrapped_by_tracer__"))
            self.assertTrue(hasattr(cli.validate_fan, "__wrapped_by_tracer__"))
        finally:
            t.uninstall()
        for holder, attr, orig in patched:
            self.assertIs(vars(holder)[attr], orig)


class HandCountTest(unittest.TestCase):
    def test_counts_match_a_hand_count(self):
        p2 = fanmod.projective_plane()
        S = subspace.SubspaceQ
        a = S.span([[1, 0]], 2)            # span outside the tracer: not counted
        b = S.span([[1, 1]], 2)
        zero = S.zero(2)
        t = tracer_mod.Tracer()
        t.install()
        try:
            a.intersect(b)                 # intersect, rref (block), span, rref
            a.intersect(zero)              # trivial: same three inner calls
            a.intersect(a)                 # trivial
            a.sum(b)                       # sum, span, rref
            intersect.divisor_class_equal([1, 0, 0], [0, 1, 0], p2)  # match
            intersect.divisor_class_equal([1, 0, 0], [0, 0, 0], p2)
            p = polynomials.RatPoly.of([1, 2])
            (p + p) * p                    # two RatPoly operations
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run(["series", "rank2-p2", "--order", "3", "--format", "json"])
        finally:
            t.uninstall()
        agg = t.aggregate()
        calls = agg["calls"]
        self.assertEqual(calls["subspace.SubspaceQ.intersect"], 3)
        self.assertEqual(calls["subspace.SubspaceQ.sum"], 1)
        # 3 intersects x 2 + 1 sum + 2 relation lattices
        self.assertEqual(calls["subspace.rref"], 9)
        self.assertEqual(calls["subspace.SubspaceQ.span"], 3 + 1 + 2)
        self.assertEqual(calls["intersect.divisor_class_equal"], 2)
        self.assertEqual(calls["subspace.SubspaceQ.contains_vector"], 2)
        self.assertEqual(calls["polynomials.RatPoly"], 2)
        self.assertEqual(calls["cli.run.series"], 1)
        self.assertEqual(calls["moduli.rank2_p2_series"], 1)
        self.assertEqual(agg["outcomes"], {
            ("subspace.SubspaceQ.intersect", "trivial"): 2,
            ("intersect.divisor_class_equal", "match"): 1,
        })
        self.assertEqual(agg["pairs"][("subspace.SubspaceQ.span", "subspace.rref")], 6)
        self.assertEqual(agg["pairs"][("cli.run.series", "moduli.rank2_p2_series")], 1)
        for name, s in agg["self_s"].items():
            self.assertGreaterEqual(s, 0.0, name)


class FailureCountTest(unittest.TestCase):
    @staticmethod
    def _check(wl, inputs, passes, reference=({}, {})):
        checker = run.Checker(wl, inputs, reference)
        for items in passes:
            checker.check(items)
        s = checker.summary()
        return s["attempted"], s["failed"], s["problems"]

    def test_injected_wrong_outputs_are_failures(self):
        wl = workloads.StabilityBatch()
        p2 = fanmod.projective_plane()
        h = intersect.find_ample(p2)
        fam = workloads.sampling.random_families(p2, 2, 1, seed=4001)[0]
        inputs = [("p2/0", p2, h, fam)]
        good = wl.run_pass(inputs, 0)
        self.assertEqual(self._check(wl, inputs, [good])[:2], (1, 0))
        bad = wl.run_pass(inputs, 1)
        v = bad[0].output["git_R"]
        flipped = "unstable" if v.verdict != "unstable" else "stable"
        bad[0].output["git_R"] = StabilityVerdict(v.test, flipped, v.witness, v.margin,
                                                  v.exhaustive, v.note)
        attempted, failed, problems = self._check(wl, inputs, [good, bad])
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("differs from gieseker_test", problems[0])
        # a wrong digest alone, against a committed reference for the seed
        # or for every seed
        wrong = {"p2/0": "0" * 64}
        self.assertEqual(self._check(wl, inputs, [good], (wrong, {}))[:2], (1, 1))
        self.assertEqual(self._check(wl, inputs, [good], ({}, wrong))[:2], (1, 1))

    def test_cli_exit_code_and_raise_are_failures(self):
        wl = workloads.CliMixed()
        inputs = {"families": {}}
        items = [
            workloads.Item("stability mu p2/0", 0.0, (0, '{"verdict": "unstable"}', "")),
            workloads.Item("chern p2/0", 0.0, (0, "not json", "")),
            workloads.Item("hilbert p2/0", 0.0, None, "ValueError: boom"),
            workloads.Item("fan-check p2", 0.0, (0, '{"valid": true}', "")),
        ]
        attempted, failed, _ = self._check(wl, inputs, [items])
        self.assertEqual((attempted, failed), (4, 3))


class CommandTest(unittest.TestCase):
    def _run(self, root, *args):
        return subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
            cwd=root, capture_output=True, text=True, timeout=170)

    def test_traced_counts_repeat_across_runs(self):
        docs = []
        for _ in range(2):
            proc = self._run(run.ROOT, "--workload", "cli-mixed", "--seed", "3001",
                             "--seconds", "1", "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            docs.append(json.loads(proc.stdout.splitlines()[-1]))
        counts = [{k: v["value"] for k, v in d["metrics"].items() if v["unit"] == "count"}
                  for d in docs]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["cli.run.stability.calls"], 0)
        self.assertTrue(all(d["correct"] and d["failed"] == 0 for d in docs))

    def test_fails_without_the_package(self):
        bare = os.path.join(run.OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.makedirs(os.path.join(bare, "perfbench"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            for name in os.listdir(run.HERE):
                if os.path.isfile(os.path.join(run.HERE, name)):
                    shutil.copy(os.path.join(run.HERE, name), os.path.join(bare, "perfbench"))
            proc = self._run(bare, "--workload", "stability-batch", "--seed", "1",
                             "--seconds", "10", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
