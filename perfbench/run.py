"""Benchmark for toricsheaves: end-to-end timings per workload, correctness
checks, and a separate traced run with per-layer counts and self times.

Run from the repository root:

    python3 perfbench/run.py --workload stability-batch --seed 4001 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.

The parent process starts fresh interpreters for the work, so import cost
and module-level caches start cold each time.  With ``--trace 0`` it starts
``SETUP_RUNS - 1`` children that only set up, then one that sets up and
measures; ``setup_s`` is the median of their set-up times.  With
``--trace 1`` it starts one child that runs untraced passes, then traced
ones.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_KERNEL_S, SpeedProbe
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_RUNS = 5
MIN_PASSES = 3  # with three or more passes the median is not the cold first one
TRACE_UNTRACED_PASSES = 2
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
# the seeds of the acceptance tests the family pools come from
DEFAULT_SEEDS = {"stability-batch": 4001, "enumerate-rank2": 1, "cli-mixed": 3001}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def package_available() -> bool:
    return os.path.isfile(os.path.join(SRC, "toricsheaves", "__init__.py"))


def import_package():
    """Import toricsheaves from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import toricsheaves

    if os.path.dirname(os.path.abspath(toricsheaves.__file__)) != os.path.join(SRC, "toricsheaves"):
        raise ImportError(f"toricsheaves imported from {toricsheaves.__file__}, not {SRC}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def p90(values: list[float]) -> float:
    """The 90th percentile.  With at least 100 values it has ten or more
    beyond it; with fewer it is the nearest-rank value (the maximum below
    ten values)."""
    if len(values) >= 100:
        return statistics.quantiles(values, n=10)[-1]
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# child process

def _work_dir() -> str:
    return os.path.join(OUT, f"work-{os.getpid()}")


class Checker:
    """Correctness of every item of every pass, checked as each pass ends,
    outside the timed region, so the outputs need not be kept: no
    exception, the workload's identities, and digests.  An item's output
    digest must equal that of the same key in the other passes and the
    committed one for this seed; its seed-independent digest must equal the
    committed one for every seed."""

    def __init__(self, workload, inputs, reference=({}, {})):
        self.workload, self.inputs = workload, inputs
        self.seen, self.invariant = dict(reference[0]), reference[1]
        self.attempted = self.failed = self.passes = 0
        self.problems: list[str] = []
        self.first: tuple[dict, dict] | None = None  # first pass (digests, invariant digests)

    def check(self, items) -> None:
        wl = self.workload
        bad: dict[int, str] = {}
        try:
            for k, msg in wl.check(self.inputs, items):
                bad.setdefault(k, msg)
        except Exception as e:  # outputs the checks cannot read are failures
            bad = {k: f"check raised {type(e).__name__}: {e}" for k in range(len(items))}
        full, inv = {}, {}
        for k, it in enumerate(items):
            self.attempted += 1
            if it.error is not None:
                bad.setdefault(k, f"raised {it.error}")
                continue
            key = wl.digest_key(it.label)
            try:
                d = full[key] = digest(wl.canonical(it.output))
                di = inv[key] = digest(wl.canonical(it.output, invariant=True))
            except Exception as e:
                bad.setdefault(k, f"canonical form raised {type(e).__name__}: {e}")
                continue
            if self.seen.setdefault(key, d) != d:
                bad.setdefault(k, f"output digest {d[:12]} != {self.seen[key][:12]}")
            elif self.invariant.get(key, di) != di:
                bad.setdefault(k, f"seed-independent digest {di[:12]} != {self.invariant[key][:12]}")
        if self.first is None:
            self.first = (full, inv)
        self.failed += len(bad)
        self.problems += [f"pass {self.passes} {items[k].label}: {m}" for k, m in sorted(bad.items())]
        self.passes += 1

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:20]}


def reference_for(workload, seed: int) -> tuple[dict, dict]:
    """Committed digests: (for this seed, for every seed)."""
    if not os.path.isfile(REFERENCE):
        return {}, {}
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh).get(workload.name, {})
    return ref.get(str(seed), {}), ref.get("*", {})


def _median_pass_metrics(per_pass: list[dict], units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        vals = [m.get(name, 0) for m in per_pass]
        out[name] = vals[0] if unit == "count" else statistics.median(vals)
    return out


def layer_metrics(tracer, scale: float, workload, inputs) -> dict:
    """Every per-layer metric of one traced pass, named as in BENCHMARK.json;
    times are multiplied by ``scale``."""
    agg = tracer.aggregate()
    calls, self_s, pairs, outcomes = agg["calls"], agg["self_s"], agg["pairs"], agg["outcomes"]
    m: dict = {}
    for name in calls:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name] * scale

    def ratio(a, b):
        return a / b if b else 0.0

    inter = "subspace.SubspaceQ.intersect"
    dce = "intersect.divisor_class_equal"
    m[f"{inter}.trivial"] = outcomes.get((inter, "trivial"), 0)
    m[f"{inter}.trivial_share"] = ratio(m[f"{inter}.trivial"], calls[inter])
    m[f"{dce}.matches"] = outcomes.get((dce, "match"), 0)
    m[f"{dce}.match_ratio"] = ratio(m[f"{dce}.matches"], calls[dce])
    m["moduli.hulls_per_profile"] = ratio(calls["family.reflexive_from_filtrations"], calls[dce])
    m["moduli.cut_yield"] = ratio(calls["family.gauge_fix"], calls["family.validate_torsion_free"])
    m["stability.choose_r.git_test.calls"] = pairs[("stability.choose_r", "stability.git_test")]
    m["stability.choose_r.r_tried"] = ratio(
        m["stability.choose_r.git_test.calls"], calls["stability.choose_r"])
    m["workload.families"] = workload.families(inputs)
    m["workload.fans"] = workload.fans(inputs)
    m["stability.test_subspaces.per_family"] = ratio(
        calls["stability.test_subspaces"], m["workload.families"])
    m["intersect.intersection_table.per_fan"] = ratio(
        calls["intersect.intersection_table"], m["workload.fans"])
    cli_run = [n for n in calls if n.startswith("cli.run.")]
    m["cli.run_s"] = tracer.inclusive_s(set(cli_run)) * scale
    m["cli.decode_s"] = tracer.inclusive_s(DECODE_SPANS, "cli.run.") * scale
    m["cli.decode_share"] = ratio(m["cli.decode_s"], m["cli.run_s"])
    return m


# input loading and validation as the CLI does it: its loaders, and the
# decoders and validators that fan-check and family-check call directly
DECODE_SPANS = {
    "cli._load_fan", "cli._load_family", "cli._load_ample",
    "fan.fan_from_json", "fan.validate_fan", "family.family_from_json",
    "family.validate_family",
}


def run_passes(workload, inputs, checker, probe, seconds: float, min_passes: int,
               tracing=False):
    """Closed loop over the fixed inputs: at least ``min_passes`` passes,
    then more while another fits in ``seconds``.  Times exclude the speed
    probe's own time and are scaled to the reference speed.  Returns each
    pass's time, each item's time, each pass's unscaled time, and
    (tracer, scale) for each traced pass."""
    times, item_s, raw, tracers = [], [], [], []
    t_start = time.perf_counter()
    while True:
        tracer = Tracer(probe.clock) if tracing else None
        if tracer:
            tracer.install()
        probe.samples.clear()
        try:
            t0 = probe.clock()
            items = workload.run_pass(inputs, checker.passes, probe.clock)
            raw.append(probe.clock() - t0)
        finally:
            if tracer:
                tracer.uninstall()
        scale = probe.factor()
        if tracer:
            tracers.append((tracer, scale))
        times.append(raw[-1] * scale)
        item_s += [it.seconds * scale for it in items]
        checker.check(items)
        del items
        elapsed = time.perf_counter() - t_start
        if len(times) >= min_passes and elapsed + statistics.mean(raw) > seconds:
            return times, item_s, raw, tracers


def child_main(args) -> int:
    # the probe also times set-up, so set-up is scaled like the passes
    probe = SpeedProbe()
    workdir = _work_dir()
    try:
        with probe:
            import_package()
            from workloads import WORKLOADS

            workload = WORKLOADS[args.workload]
            inputs = workload.setup(args.seed, workdir)
            setup_raw = time.monotonic() - args.t0 - probe.spent
            result = {"setup_raw_s": setup_raw, "setup_s": setup_raw * probe.factor()}
            if args.child == "setup":
                print(json.dumps(result))
                return 0
            checker = Checker(workload, inputs, reference_for(workload, args.seed))
            if args.trace:
                result.update(traced_child(workload, inputs, checker, args.seconds, probe))
            else:
                times, item_s, raw, _ = run_passes(
                    workload, inputs, checker, probe, args.seconds, MIN_PASSES)
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                result.update(pass_s=times, item_s=item_s, raw_pass_s=raw,
                              items_per_pass=len(item_s) // len(times))
        if args.record_reference:
            if checker.failed:
                raise RuntimeError("not recording a reference from a run with failures")
            record_reference(workload, args.seed, *checker.first)
        result.update(checker.summary())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_child(workload, inputs, checker, seconds: float, probe) -> dict:
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    t_start = time.perf_counter()
    untraced_s, item_s, _, _ = run_passes(
        workload, inputs, checker, probe, 0, TRACE_UNTRACED_PASSES)
    traced_s, _, _, tracers = run_passes(
        workload, inputs, checker, probe, seconds - (time.perf_counter() - t_start), 1,
        tracing=True)
    per_pass = [layer_metrics(t, scale, workload, inputs) for t, scale in tracers]
    metrics = _median_pass_metrics(per_pass, units)
    metrics["trace.untraced_run_s"] = statistics.median(untraced_s)
    metrics["trace.traced_run_s"] = statistics.median(traced_s)
    metrics["trace.overhead_s"] = metrics["trace.traced_run_s"] - metrics["trace.untraced_run_s"]
    counts_repeat = all(
        {k: v for k, v in pm.items() if units.get(k) == "count"}
        == {k: v for k, v in per_pass[0].items() if units.get(k) == "count"}
        for pm in per_pass)
    os.makedirs(OUT, exist_ok=True)
    # one file per workload, replaced by each traced run, so repeated runs
    # do not pile up
    spans_path = os.path.join(OUT, f"spans-{workload.name}.tsv.gz")
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("pass\tindex\tname\tstart\tend\tparent\n")
        for p, (tracer, _) in enumerate(tracers):
            tracer.write_tsv(fh, p)
    return {
        "layer": {k: metrics.get(k, 0) for k in units},
        "traced_passes": len(traced_s), "untraced_passes": len(untraced_s),
        "counts_repeat": counts_repeat, "missing_targets": tracers[0][0].missing,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "items_per_pass": len(item_s) // len(untraced_s),
    }


def record_reference(workload, seed: int, full: dict, inv: dict) -> None:
    ref = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    entry = ref.setdefault(workload.name, {})
    entry["*"] = inv
    if full != inv:
        entry[str(seed)] = full
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# parent process

def spawn(args, mode: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.record_reference:
        cmd.append("--record-reference")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args, items_per_pass: int, passes: int, attempted: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "items_per_pass": items_per_pass,
        "passes": passes, "attempted": attempted,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parent_main(args) -> int:
    spec = load_spec()
    if args.trace:
        child = spawn(args, "measure", CHILD_TIMEOUT_S)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": child["layer"][k], "unit": u} for k, u in units.items()}
        passes = child["traced_passes"] + child["untraced_passes"]
        notes = [f"traced passes: {child['traced_passes']}, untraced: {child['untraced_passes']}",
                 f"tracing overhead: {child['layer']['trace.overhead_s']:.4f} s per pass "
                 f"({child['layer']['trace.traced_run_s']:.4f} traced - "
                 f"{child['layer']['trace.untraced_run_s']:.4f} untraced)",
                 f"counts repeat across traced passes: {child['counts_repeat']}",
                 f"spans written to {child['spans_file']}"]
        if child["missing_targets"]:
            notes.append("not traced (absent): " + ", ".join(child["missing_targets"]))
    else:
        setup_runs = [spawn(args, "setup", SETUP_TIMEOUT_S) for _ in range(SETUP_RUNS - 1)]
        child = spawn(args, "measure", CHILD_TIMEOUT_S)
        setup_runs.append(child)
        setups = [r["setup_s"] for r in setup_runs]
        items_ms = [s * 1000 for s in child["item_s"]]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(child["pass_s"]),
            "item_ms_p50": statistics.median(items_ms),
            "item_ms_p90": p90(items_ms),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        passes = len(child["pass_s"])
        raw_run = statistics.median(child["raw_pass_s"])
        notes = [f"times are scaled to a host where the speed kernel takes "
                 f"{REFERENCE_KERNEL_S * 1000:g} ms; unscaled: run_s {raw_run:.6g} s, "
                 f"setup_s {statistics.median(r['setup_raw_s'] for r in setup_runs):.6g} s; "
                 f"host speed {statistics.median(child['pass_s']) / raw_run:.4g} x reference",
                 f"setup_s is the median of {len(setups)} set-ups",
                 f"run_s is the median of {passes} passes",
                 f"item_ms_* over {len(items_ms)} items"
                 + ("" if len(items_ms) >= 100 else "; p90 is nearest-rank (fewer than 100 items)")]
    attempted, failed = child["attempted"], child["failed"]
    env = environment(args, child["items_per_pass"], passes, attempted)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for note in notes:
        print(f"# {note}")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} items)")
    for problem in child["problems"]:
        print(f"# FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "problems": child["problems"]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, help="defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store the first pass's output digests in reference.json")
    ap.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not package_available():
        print(f"error: no toricsheaves package under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
