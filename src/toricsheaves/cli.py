"""Command-line front end.

Subcommands: fan-check, family-check, chern, hilbert, stability, weights,
enumerate, series.  Exit codes: 0 success, 1 domain verdict
(invalid/unstable), 2 input error, or any other exception raised inside a
command, reported in one line as an internal error.  Output is
deterministic for fixed inputs and seed; rationals are printed exactly as
p/q, never as floats.

Each command decodes and validates each input file once: a fan in
``_load_fan`` (``fan-check`` validates and reports it itself) and a family in
``_load_family``.  A fan keeps its validation report on the object, so the
library functions the command calls on it read that report and do not
validate it again.  A family keeps no report.  Its grids keep only what the
decoder proved: a grid whose fill proved it monotone carries that record, and
validation skips its inclusion scan but runs every other check.  So the slope
commands call ``_mu_test`` and ``_mu_weights``, the entries of ``mu_test``
and ``mu_weights`` that take the family as valid; the public functions
validate it first.

``fan-check`` lists the star size and the cone-count identity of every
cone, at a cost and an output size that grow with the faces of the maximal
cones, so it refuses (exit 2) a fan whose maximal cones have more than
``fan.MAX_LISTED_FACES`` faces, counted once per maximal cone, before it
builds the face lattice.

``run`` builds its argument parser once per process (``build_parser`` still
returns a fresh one): parsing keeps no state in the parser, every default is
immutable, and help and usage text are formatted when they are printed.  Only
callers that call ``run`` repeatedly in one process gain from this; a
one-shot console run builds the parser once either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import moduli, stability
from .chern import c1_fast, chern_character, hilbert_data, second_chern_number
from .family import (
    DeltaFamily,
    KIND_PURE,
    KIND_REFLEXIVE,
    _corners_are_axis_meets,
    characteristic_function,
    family_from_json,
    validate_family,
)
from .fan import (
    MAX_LISTED_FACES,
    Fan,
    _report,
    _require_valid,
    cone_count_identity,
    euler_characteristic,
    fan_from_json,
    star,
)
from .intersect import intersection_table, riemann_roch_degrees
from .polynomials import RatPoly


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e


def _decode(path: str, parse):
    """parse applied to the text of the file at path; a file that cannot be
    read, is not UTF-8, or does not parse ends in one InputError naming path."""
    try:
        return parse(_read(path))
    except (ValueError, RecursionError) as e:
        raise InputError(f"{path}: {e}") from e


def _load_fan(path: str) -> Fan:
    fan = _decode(path, fan_from_json)
    try:
        _require_valid(fan)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e
    return fan


def _load_family(path: str, fan: Fan) -> DeltaFamily:
    fam = _decode(path, family_from_json)
    report = validate_family(fam, fan)
    if report:
        raise InputError(f"{path}: invalid family: " + "; ".join(report[:5]))
    return fam


def _load_divisor(path: str, fan: Fan):
    n = fan.n_rays()

    def parse(text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"not valid JSON: {e}") from e
        if not isinstance(doc, list) or len(doc) != n:
            raise ValueError(
                f"divisor must be a JSON array with one integer per ray ({n} expected)"
            )
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in doc):
            raise ValueError("divisor entries must be JSON integers")
        return doc

    return _decode(path, parse)


def _load_ample(path: str, fan: Fan):
    """The divisor in the file at path, ample on fan, which _load_fan has
    validated: a fan with no intersection table is named first."""
    d = _load_divisor(path, fan)
    intersection_table(fan)
    try:
        riemann_roch_degrees(d, fan)
    except ValueError as e:
        # d has the fan's length and the fan a table: the ampleness check
        raise InputError(f"{path}: divisor is not ample") from e
    return d


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


def _poly_doc(p: RatPoly) -> list[str]:
    return [_frac(c) for c in p.coeffs]


def _emit(doc: dict, fmt: str, lines) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)


# --- subcommand handlers ---------------------------------------------------

def _cmd_fan_check(args) -> int:
    fan = _decode(args.fan, fan_from_json)
    report = _report(fan)
    doc = {"valid": not report, "report": report}
    lines = ["valid"] if not report else [f"invalid: {r}" for r in report]
    if not report:
        faces = sum(1 << len(mc) for mc in fan.max_cones)  # counted before any is built
        if faces > MAX_LISTED_FACES:
            raise InputError(f"{args.fan}: its maximal cones have {faces} faces, each counted "
                             f"once per maximal cone; fan-check accepts at most {MAX_LISTED_FACES}")
        doc["euler_characteristic"] = euler_characteristic(fan)
        doc["cone_count_identity"] = {
            str(list(tau)): cone_count_identity(fan, tau) for tau in fan.cones()
        }
        doc["star_sizes"] = {str(list(tau)): len(star(fan, tau)) for tau in fan.cones()}
        lines.append(f"euler characteristic: {doc['euler_characteristic']}")
        lines.append("cone-count identity: all 1" if all(
            v == 1 for v in doc["cone_count_identity"].values()
        ) else "cone-count identity: FAILED")
    _emit(doc, args.format, lines)
    return 0 if not report else 1


def _cmd_family_check(args) -> int:
    fan = _load_fan(args.fan)
    fam = _decode(args.family, family_from_json)
    report = validate_family(fam, fan)
    doc = {"valid": not report, "kind": fam.kind, "rank": fam.rank, "report": report}
    lines = [f"kind: {fam.kind}", f"rank: {fam.rank}"]
    if report:
        lines += [f"invalid: {r}" for r in report]
    else:
        lines.append("valid")
        if fam.kind != KIND_PURE:
            # validate_family has just validated it as torsion-free, and a
            # family of the reflexive kind as reflexive
            doc["reflexive"] = fam.kind == KIND_REFLEXIVE or _corners_are_axis_meets(fam)
            lines.append(f"reflexive: {doc['reflexive']}")
    _emit(doc, args.format, lines)
    return 0 if not report else 1


def _cmd_chern(args) -> int:
    fan = _load_fan(args.fan)
    fam = _load_family(args.family, fan)
    table = intersection_table(fan)
    ch = chern_character(fam, fan)
    c1 = c1_fast(fam, fan)
    c2 = second_chern_number(ch, table)
    doc = {
        "rank": _frac(ch.r0),
        "c1": [_frac(x) for x in ch.d],
        "c1_fast": [_frac(x) for x in c1],
        "deg_ch2": _frac(ch.p),
        "c2": _frac(c2),
    }
    lines = [
        f"rank: {doc['rank']}",
        f"c1 (ray coefficients): {' '.join(doc['c1'])}",
        f"deg ch2: {doc['deg_ch2']}",
        f"c2: {doc['c2']}",
    ]
    _emit(doc, args.format, lines)
    return 0


def _cmd_hilbert(args) -> int:
    fan = _load_fan(args.fan)
    fam = _load_family(args.family, fan)
    ample = _load_ample(args.ample, fan)
    hd = hilbert_data(fam, fan, ample)
    doc = {
        "polynomial": _poly_doc(hd.polynomial),
        "rank": _frac(hd.rank),
        "degree": _frac(hd.degree),
        "slope": _frac(hd.slope) if hd.slope is not None else None,
    }
    lines = [
        f"P(t) coefficients (low to high): {' '.join(doc['polynomial'])}",
        f"rank: {doc['rank']}",
        f"degree: {doc['degree']}",
        f"slope: {doc['slope']}",
    ]
    _emit(doc, args.format, lines)
    return 0


def _verdict_doc(v: stability.StabilityVerdict) -> dict:
    margin = v.margin
    if isinstance(margin, RatPoly):
        margin = _poly_doc(margin)
    elif margin is not None:
        margin = _frac(margin)
    return {
        "test": v.test,
        "verdict": v.verdict,
        "witness": None if v.witness is None else v.witness.basis_str(),
        "margin": margin,
        "exhaustive": v.exhaustive,
        "note": v.note,
    }


def _cmd_stability(args) -> int:
    fan = _load_fan(args.fan)
    fam = _load_family(args.family, fan)
    ample = _load_ample(args.ample, fan)
    if fam.kind == KIND_PURE:
        raise InputError(stability.TORSION_FREE_ONLY)
    weights = None
    if args.mode == "mu":
        v = stability._mu_test(fam, fan, ample)
    elif args.mode == "gieseker":
        v = stability.gieseker_test(fam, fan, ample)
    else:
        if args.weights_from == "mu":
            weights = stability._mu_weights(fam, fan, ample)
        else:
            chi = characteristic_function(fam)
            _, weights = stability.choose_r(chi, fan, ample, [fam])
        v = stability.git_test(fam, weights, fan, n_random=args.samples, seed=args.seed)
    doc = _verdict_doc(v)
    lines = [f"verdict: {v.verdict}"]
    if v.witness is not None:
        lines.append(f"witness basis: {v.witness.basis_str()}")
    lines.append(f"margin: {doc['margin']}")
    if v.note:
        lines.append(f"note: {v.note}")
    if weights is not None:
        doc["weights"] = _weight_entries(weights)
        lines += _weight_lines(weights)
    _emit(doc, args.format, lines)
    return 0 if v.verdict != stability.UNSTABLE else 1


def _cmd_weights(args) -> int:
    fan = _load_fan(args.fan)
    fam = _load_family(args.family, fan)
    ample = _load_ample(args.ample, fan)
    if args.kind == "mu":
        w = stability._mu_weights(fam, fan, ample)
        doc = {"kind": "mu", "entries": _weight_entries(w)}
        lines = _weight_lines(w)
    else:
        chi = characteristic_function(fam)
        r, w = stability.choose_r(chi, fan, ample, [fam])
        doc = {"kind": "xi", "R": r, "entries": _weight_entries(w)}
        lines = [f"R = {r}", *_weight_lines(w)]
    _emit(doc, args.format, lines)
    return 0


def _weight_entries(w: stability.WeightSystem) -> list[dict]:
    return [
        {"cone": list(cone), "at": list(lam), "weight": wt}
        for (cone, lam), wt in w.items()
    ]


def _weight_lines(w: stability.WeightSystem) -> list[str]:
    """The text lines of a weight system, each key's cone and point as lists."""
    return [f"kappa[{list(cone)} @ {list(lam)}] = {wt}" for (cone, lam), wt in w.items()]


def _cmd_enumerate(args) -> int:
    fan = _load_fan(args.fan)
    c1 = _load_divisor(args.c1, fan) if args.c1 else [0] * fan.n_rays()
    try:
        records = moduli.enumerate_gauge_fixed_chi(fan, args.rank, c1, args.c2_max, args.box)
    except moduli.BoxBoundError as e:
        raise InputError(str(e)) from e
    doc = {
        "count": len(records),
        "records": [
            {
                "c2": _frac(r.c2),
                "chi": json.loads(r.chi.canonical()),
                "strata": [
                    {
                        "pattern": [list(b) for b in s.pattern],
                        "mu_verdict": s.mu_verdict,
                        "point_component": s.point_component,
                        "free_line": s.free_line,
                    }
                    for s in r.strata
                ],
            }
            for r in records
        ],
    }
    lines = [f"{len(records)} gauge-fixed characteristic functions"]
    for r in records:
        lines.append(f"c2 = {_frac(r.c2)}: {r.chi.canonical()}")
        for s in r.strata:
            lines.append(
                f"  stratum {list(map(list, s.pattern))}: mu {s.mu_verdict}"
                + (", point component" if s.point_component else "")
            )
    _emit(doc, args.format, lines)
    return 0


def _cmd_series(args) -> int:
    if args.which == "rank1":
        if not args.fan:
            raise InputError("series rank1 requires --fan")
        fan = _load_fan(args.fan)
        s = moduli.rank1_fixed_point_series(fan, args.order)
    else:
        if args.fan:
            raise InputError("series rank2-p2 takes no --fan: it counts on P^2 only")
        s = moduli.rank2_p2_series(args.order)
    doc = {"series": list(s.coeffs), "order": s.order}
    lines = [f"q^{k}: {c}" for k, c in enumerate(s.coeffs)]
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("power,coefficient\n")
                for k, c in enumerate(s.coeffs):
                    fh.write(f"{k},{c}\n")
        except OSError as e:
            raise InputError(f"cannot write {args.csv}: {e}") from e
    _emit(doc, args.format, lines)
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toricsheaves",
        description="Exact invariants, stability tests and fixed-point counts "
        "for equivariant sheaf data on smooth complete toric surfaces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("fan-check", help="validate a fan file")
    sp.add_argument("--fan", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_fan_check)

    sp = sub.add_parser("family-check", help="validate a family file against a fan")
    sp.add_argument("--fan", required=True)
    sp.add_argument("--family", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_family_check)

    sp = sub.add_parser("chern", help="Chern character, c1 and c2 of a family")
    sp.add_argument("--fan", required=True)
    sp.add_argument("--family", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_chern)

    sp = sub.add_parser("hilbert", help="Hilbert polynomial, rank, degree, slope")
    sp.add_argument("--fan", required=True)
    sp.add_argument("--family", required=True)
    sp.add_argument("--ample", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_hilbert)

    sp = sub.add_parser("stability", help="slope / Gieseker / GIT stability verdicts")
    sp.add_argument("mode", choices=("mu", "gieseker", "git"))
    sp.add_argument("--fan", required=True)
    sp.add_argument("--family", required=True)
    sp.add_argument("--ample", required=True)
    sp.add_argument("--weights-from", choices=("mu", "xi"), default="xi")
    sp.add_argument("--samples", type=int, default=0, help="extra random test subspaces")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=_cmd_stability)

    sp = sub.add_parser("weights", help="GIT weight systems (slope or Gieseker matching)")
    sp.add_argument("--fan", required=True)
    sp.add_argument("--family", required=True)
    sp.add_argument("--ample", required=True)
    sp.add_argument("--kind", choices=("mu", "xi"), default="mu")
    common(sp)
    sp.set_defaults(func=_cmd_weights)

    sp = sub.add_parser("enumerate", help="gauge-fixed characteristic functions")
    sp.add_argument("--fan", required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--c1", help="divisor file (defaults to 0)")
    sp.add_argument("--c2-max", type=int, required=True, dest="c2_max")
    sp.add_argument("--box", type=int, default=4)
    common(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("series", help="Euler-characteristic generating functions")
    sp.add_argument("which", choices=("rank1", "rank2-p2"))
    sp.add_argument("--fan")
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--csv", help="also write the coefficients to a CSV file")
    common(sp)
    sp.set_defaults(func=_cmd_series)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a fault in the program, not in the input: one line and exit 2, since
        # exit 1 is kept for domain verdicts
        print(f"error: internal error ({type(e).__name__}): {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
