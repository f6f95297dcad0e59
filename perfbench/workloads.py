"""The benchmark's workloads: seeded inputs, one timed pass, and the
correctness checks on a pass's outputs.

Every call into the package goes through a module attribute
(``stability.mu_test``, not a name imported from it), so the tracer's
wrappers see the benchmark's own calls as well as the package's internal
ones.  Each workload is a closed loop: one client, one call at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

import toricsheaves.chern as chern
import toricsheaves.cli as cli
import toricsheaves.family as family
import toricsheaves.fan as fanmod
import toricsheaves.intersect as intersect
import toricsheaves.moduli as moduli
import toricsheaves.sampling as sampling
import toricsheaves.stability as stability
import toricsheaves.subspace as subspace


def corpus():
    return [("p2", fanmod.projective_plane()), ("p1xp1", fanmod.p1_x_p1()),
            ("f1", fanmod.hirzebruch(1))]


def fibre_symmetry(seed: int):
    """One of the 8 signed permutations of the coordinates of Q^2, picked by
    the seed.  Applied to every subspace of a rank-2 family it keeps every
    dimension, so every verdict, margin, weight and invariant.  It only
    permutes and negates entries, so the work stays about the same.
    Drawing the family pool itself from the seed made the pass time vary by
    about 20 % between seeds."""
    k = random.Random(seed).randrange(8)
    sx, sy = (-1 if k & 2 else 1), (-1 if k & 4 else 1)
    if k & 1:
        return lambda row: (sy * row[1], sx * row[0])
    return lambda row: (sx * row[0], sy * row[1])


def transformed(fam, g):
    def move(v):
        return subspace.SubspaceQ.span([g(row) for row in v.rows], v.ambient)

    return fam.map_corners(lambda grid: grid.map_values(move))


def family_pool(fan, count: int, seed: int, g):
    return [transformed(f, g) for f in sampling.random_families(fan, 2, count, seed=seed)]


def _verdict_doc(v, invariant: bool) -> dict:
    margin = v.margin
    if margin is not None:
        margin = [str(c) for c in margin.coeffs] if hasattr(margin, "coeffs") else str(margin)
    doc = {"test": v.test, "verdict": v.verdict, "margin": margin,
           "exhaustive": v.exhaustive, "note": v.note}
    if not invariant:
        doc["witness"] = None if v.witness is None else v.witness.basis_str()
    return doc


def _weights_doc(w) -> list:
    return [[list(cone), list(lam), wt] for (cone, lam), wt in w.items()]


class Item:
    """One timed unit of work and what it produced."""

    __slots__ = ("label", "seconds", "output", "error")

    def __init__(self, label, seconds, output, error=None):
        self.label, self.seconds, self.output, self.error = label, seconds, output, error


def _timed(label, fn, clock) -> Item:
    t0 = clock()
    try:
        out = fn()
    except Exception as e:  # an item that raises is a failed item, not a crash
        return Item(label, clock() - t0, None, f"{type(e).__name__}: {e}")
    return Item(label, clock() - t0, out)


# ---------------------------------------------------------------------------
# stability-batch

class StabilityBatch:
    """GIT/Gieseker certification of rank-2 random families, one family per
    item: mu_test, mu_weights + git_test, gieseker_test, choose_r + git_test.
    The family pool is fixed; the seed picks its fibre symmetry."""

    name = "stability-batch"
    pool_seed = 4001  # the acceptance suite's matching test
    per_fan = 20

    def setup(self, seed: int, workdir: str):
        g = fibre_symmetry(seed)
        inputs = []
        for fname, fan in corpus():
            h = intersect.find_ample(fan)
            for i, fam in enumerate(family_pool(fan, self.per_fan, self.pool_seed, g)):
                inputs.append((f"{fname}/{i}", fan, h, fam))
        return inputs

    def fans(self, inputs) -> int:
        return len({id(fan) for _, fan, _, _ in inputs})

    def families(self, inputs) -> int:
        return len(inputs)

    @staticmethod
    def classify(fan, h, fam) -> dict:
        out = {"mu": stability.mu_test(fam, fan, h)}
        try:
            w = stability.mu_weights(fam, fan, h)
        except ValueError as e:
            out["mu_weights_error"] = str(e)
        else:
            out["mu_weights"] = w
            out["git_mu"] = stability.git_test(fam, w, fan)
        out["gieseker"] = stability.gieseker_test(fam, fan, h)
        chi = family.characteristic_function(fam)
        out["R"], out["xi_weights"] = stability.choose_r(chi, fan, h, [fam])
        out["git_R"] = stability.git_test(fam, out["xi_weights"], fan)
        return out

    def run_pass(self, inputs, pass_index: int, clock=time.perf_counter) -> list[Item]:
        return [_timed(label, lambda: self.classify(fan, h, fam), clock)
                for label, fan, h, fam in inputs]

    def canonical(self, out: dict, invariant: bool = False) -> str:
        doc = {}
        for key, val in out.items():
            if key in ("mu", "git_mu", "gieseker", "git_R"):
                doc[key] = _verdict_doc(val, invariant)
            elif key in ("mu_weights", "xi_weights"):
                doc[key] = _weights_doc(val)
            else:
                doc[key] = val
        return json.dumps(doc, sort_keys=True)

    def digest_key(self, label: str) -> str:
        return label

    def check(self, inputs, items: list[Item]) -> list[tuple[int, str]]:
        """Seed-independent identities of one pass, as (item index, message)."""
        problems = []
        by_label = {label: (fan, fam) for label, fan, _, fam in inputs}
        for k, it in enumerate(items):
            if it.output is None:
                continue
            out = it.output
            msgs = []
            if out["git_R"].verdict != out["gieseker"].verdict:
                msgs.append("choose_r + git_test verdict differs from gieseker_test")
            if any(wt <= 0 for _, wt in out["xi_weights"].items()):
                msgs.append("choose_r returned a non-positive weight")
            mu = out["mu"].verdict
            git_mu = out.get("git_mu")
            if mu == stability.STABLE and (git_mu is None or git_mu.verdict != stability.STABLE):
                msgs.append("mu stable but GIT with mu weights is not stable")
            if git_mu is not None and git_mu.verdict == stability.STABLE and mu == stability.UNSTABLE:
                msgs.append("GIT with mu weights stable but mu unstable")
            fan, fam = by_label[it.label]
            if chern.c1_fast(fam, fan) != chern.chern_character(fam, fan).d:
                msgs.append("c1_fast differs from chern_character(...).d")
            problems += [(k, m) for m in msgs]
        return problems


# ---------------------------------------------------------------------------
# enumerate-rank2

# integer representatives of the class H on P^2 (rays e1, e2, -e1-e2): the
# seed only picks which one each pass passes, so the records never change
H_REPRESENTATIVES = [
    [1, 0, 0], [0, 1, 0], [0, 0, 1],
    [1, 1, -1], [1, -1, 1], [-1, 1, 1],
    [2, -1, 0], [2, 0, -1], [-1, 2, 0], [0, 2, -1], [-1, 0, 2], [0, -1, 2],
]


class EnumerateRank2:
    """Gauge-fixed rank-2 enumeration on P^2 with c1 = H, c2 <= 1, box 3;
    one enumeration call per item."""

    name = "enumerate-rank2"
    c2_max = 1
    box = 3

    def setup(self, seed: int, workdir: str):
        fan = fanmod.projective_plane()
        reps = list(H_REPRESENTATIVES)
        random.Random(seed).shuffle(reps)
        return {"fan": fan, "reps": reps}

    def fans(self, inputs) -> int:
        return 1

    def families(self, inputs) -> int:
        return 0

    def run_pass(self, inputs, pass_index: int, clock=time.perf_counter) -> list[Item]:
        rep = inputs["reps"][pass_index % len(inputs["reps"])]
        fan = inputs["fan"]
        return [_timed(f"c1={rep}", lambda: moduli.enumerate_gauge_fixed_chi(
            fan, 2, rep, self.c2_max, box_bound=self.box), clock)]

    def canonical(self, records, invariant: bool = False) -> str:
        doc = [
            {"c2": str(r.c2), "chi": json.loads(r.chi.canonical()),
             "strata": sorted(
                 [[list(map(list, s.pattern)), s.mu_verdict, s.point_component, s.free_line]
                  for s in r.strata])}
            for r in records
        ]
        return json.dumps(doc, sort_keys=True)

    def digest_key(self, label: str) -> str:
        # one key for every representative: the records must not depend on it
        return "records"

    def check(self, inputs, items: list[Item]) -> list[tuple[int, str]]:
        problems = []
        fan = inputs["fan"]
        expected_points = moduli.rank2_p2_series(1).coeffs[1]
        for k, it in enumerate(items):
            if it.output is None:
                continue
            points = sum(1 for r in it.output for s in r.strata
                         if s.mu_verdict == stability.STABLE and s.point_component)
            if points != expected_points:
                problems.append((k, f"{points} stable point strata, series says "
                                    f"{expected_points}"))
            for r in it.output:
                if r.c2 > self.c2_max or family.validate_torsion_free(r.witness, fan):
                    problems.append((k, f"record with c2 {r.c2} has a bad witness"))
        return problems


# ---------------------------------------------------------------------------
# cli-mixed

class CliMixed:
    """In-process ``cli.run(argv + ["--format", "json"])`` over JSON fan,
    family and ample files written at set-up; one command per item.  The
    family pool is fixed; the seed picks its fibre symmetry and the seed of
    ``stability --samples``."""

    name = "cli-mixed"
    pool_seed = 3001  # the acceptance suite's face-weight test
    per_fan = 4

    def setup(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        g = fibre_symmetry(seed)

        def write(name, text):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        commands = []  # (label, argv); a label ends with the family's tag
        fams = {}
        for fname, fan in corpus():
            fp = write(f"{fname}.json", fanmod.fan_to_json(fan))
            h = [int(x) for x in intersect.find_ample(fan)]
            hp = write(f"{fname}_h.json", json.dumps(h))
            commands.append((f"fan-check {fname}", ["fan-check", "--fan", fp]))
            commands.append((f"series rank1 {fname}",
                             ["series", "rank1", "--fan", fp, "--order", "12"]))
            for i, fam in enumerate(family_pool(fan, self.per_fan, self.pool_seed, g)):
                tag = f"{fname}/{i}"
                fams[tag] = (fan, h, fam)
                base = ["--fan", fp, "--family", write(f"{fname}_{i}.json", family.family_to_json(fam))]
                with_h = base + ["--ample", hp]
                commands += [
                    (f"family-check {tag}", ["family-check"] + base),
                    (f"chern {tag}", ["chern"] + base),
                    (f"hilbert {tag}", ["hilbert"] + with_h),
                ]
                for mode in ("mu", "gieseker", "git"):
                    commands.append((f"stability {mode} {tag}",
                                     ["stability", mode] + with_h
                                     + ["--samples", "4", "--seed", str(seed)]))
                for kind in ("mu", "xi"):
                    commands.append((f"weights {kind} {tag}",
                                     ["weights"] + with_h + ["--kind", kind]))
        commands.append(("series rank2-p2", ["series", "rank2-p2", "--order", "30"]))
        return {"commands": commands, "families": fams}

    def fans(self, inputs) -> int:
        return len(corpus())

    def families(self, inputs) -> int:
        return len(inputs["families"])

    @staticmethod
    def _invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv + ["--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, inputs, pass_index: int, clock=time.perf_counter) -> list[Item]:
        return [_timed(label, lambda: self._invoke(argv), clock)
                for label, argv in inputs["commands"]]

    def canonical(self, out, invariant: bool = False) -> str:
        code, stdout, _ = out
        if invariant:
            try:
                doc = json.loads(stdout)
            except ValueError:  # check() reports it
                doc = None
            if isinstance(doc, dict):
                doc.pop("witness", None)
                stdout = json.dumps(doc, sort_keys=True)
        return f"{code}\n{stdout}"

    def _expected_code(self, label: str, doc, fams) -> int:
        verb = label.split()[0]
        if verb == "stability":
            return 1 if doc is not None and doc.get("verdict") == stability.UNSTABLE else 0
        if label.startswith("weights mu"):
            fan, h, fam = fams[label.split()[-1]]
            try:
                stability.mu_weights(fam, fan, h)
            except ValueError:
                return 2
        return 0

    def digest_key(self, label: str) -> str:
        return label

    def check(self, inputs, items: list[Item]) -> list[tuple[int, str]]:
        problems = []
        fams = inputs["families"]
        verdicts: dict[tuple[str, str], tuple[int, str]] = {}
        for k, it in enumerate(items):
            if it.output is None:
                continue
            code, stdout, stderr = it.output
            doc = None
            if code in (0, 1):
                try:
                    doc = json.loads(stdout)
                except ValueError:
                    problems.append((k, "stdout is not JSON"))
                    continue
            elif stdout or len(stderr.splitlines()) != 1 or not stderr.startswith("error:"):
                problems.append((k, f"exit {code} without a one-line error"))
                continue
            expected = self._expected_code(it.label, doc, fams)
            if code != expected:
                problems.append((k, f"exit {code}, expected {expected}"))
                continue
            verb, *rest = it.label.split()
            if verb == "chern" and doc["c1"] != doc["c1_fast"]:
                problems.append((k, "c1 differs from c1_fast"))
            if verb == "family-check" and not doc["valid"]:
                problems.append((k, "generated family reported invalid"))
            if verb == "stability" and rest[0] in ("gieseker", "git"):
                verdicts[(rest[0], rest[1])] = (k, doc["verdict"])
        for tag in fams:
            g, x = verdicts.get(("gieseker", tag)), verdicts.get(("git", tag))
            if g is not None and x is not None and g[1] != x[1]:
                problems.append((x[0], f"git (xi weights) {x[1]} != gieseker {g[1]}"))
        return problems


WORKLOADS = {w.name: w for w in (StabilityBatch(), EnumerateRank2(), CliMixed())}
