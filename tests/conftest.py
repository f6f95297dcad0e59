import itertools
import math
from fractions import Fraction

import pytest

from toricsheaves import cli, intersect
from toricsheaves.chern import as_char
from toricsheaves.family import (
    KIND_PURE,
    CornerFamily,
    DeltaFamily,
    RayFiltration,
    box_points,
    family_from_json,
    family_to_json,
    reflexive_from_filtrations,
    restrict_to_face,
)
from toricsheaves.fan import hirzebruch, p1_x_p1, projective_plane
from toricsheaves.intersect import (
    AMPLE_SEARCH_RADIUS,
    _basis_det,
    divisor,
    find_ample,
    intersection_table,
    is_ample,
    unimodular_solve,
)
from toricsheaves.moduli import IntSeries
from toricsheaves.polynomials import RatPoly
from toricsheaves.stability import _flag_data, _MeetTable
from toricsheaves.subspace import SubspaceQ


@pytest.fixture(scope="session")
def p2():
    return projective_plane()


@pytest.fixture(scope="session")
def p1p1():
    return p1_x_p1()


@pytest.fixture(scope="session")
def f1():
    return hirzebruch(1)


@pytest.fixture(scope="session")
def corpus(p2, p1p1, f1):
    return {"p2": p2, "p1xp1": p1p1, "f1": f1}


@pytest.fixture(scope="session")
def amples(corpus):
    return {name: find_ample(fan) for name, fan in corpus.items()}


@pytest.fixture(scope="session")
def tables(corpus):
    return {name: intersection_table(fan) for name, fan in corpus.items()}


def structure_sheaf(fan, rank=1):
    full = SubspaceQ.full(rank)
    filts = [RayFiltration(j, ((0, full),)) for j in range(fan.n_rays())]
    return reflexive_from_filtrations(filts, fan)


def line_bundle_family(fan, kvec):
    full = SubspaceQ.full(1)
    filts = [RayFiltration(j, ((-kvec[j], full),)) for j in range(fan.n_rays())]
    return reflexive_from_filtrations(filts, fan)


def slab_family(fan, ray, width=1):
    """Structure sheaf of the invariant curve V(ray): the quotient pattern,
    a slab of width `width` in the bounded coordinate."""
    full, zero = SubspaceQ.full(1), SubspaceQ.zero(1)
    corners = []
    for i, mc in enumerate(fan.max_cones):
        if ray not in mc:
            continue
        pos = mc.index(ray)
        lo = (0, 0)
        hi = tuple(width if k == pos else 0 for k in range(2))
        vals = [full if lam[pos] <= width - 1 else zero for lam in box_points(lo, hi)]
        corners.append((i, CornerFamily(mc, lo, hi, tuple(vals), 1)))
    return DeltaFamily(KIND_PURE, 1, tuple(corners), support=((ray,),))


def ray_degrees(d, table):
    """D.V(rho_j) for every ray j as Fractions: the Fraction route of the
    package's integer ray degrees, equal to pair(d, e_j, table)."""
    n = len(table.matrix)
    if len(d) != n:
        raise ValueError("divisor length does not match the fan")
    terms = [(a, row) for a, row in zip(d, table.matrix) if a != 0]
    return tuple(Fraction(sum(a * row[j] for a, row in terms)) for j in range(n))


def pair_by_fractions(a, b, table):
    """The pair that multiplied raw entries and wrapped the sum in a Fraction:
    the oracle for intersect.pair, which clears denominators first."""
    n = len(table.matrix)
    if len(a) != n or len(b) != n:
        raise ValueError("divisor length does not match the fan")
    total = 0
    for ai, row in zip(a, table.matrix):
        if ai != 0:
            total += ai * sum(bj * m for bj, m in zip(b, row) if bj != 0)
    return Fraction(total)


def class_equal_by_fractions(d1, d2, fan):
    """The divisor_class_equal that solved for u in Fractions: the oracle for
    the class test on cleared denominators."""
    if fan.rank != 2:
        raise ValueError("divisor classes implemented for surfaces only")
    if len(d1) != fan.n_rays() or len(d2) != fan.n_rays():
        raise ValueError("divisor length does not match the fan")
    diff = [Fraction(a) - Fraction(b) for a, b in zip(d1, d2)]
    i0, i1 = fan.max_cones[0]
    u = unimodular_solve(fan.rays[i0], fan.rays[i1], diff[i0], diff[i1])
    return all(d == u[0] * v[0] + u[1] * v[1] for d, v in zip(diff, fan.rays))


def is_nef(d, fan):
    """Nef iff the support function is convex across every wall, i.e. the
    divisor meets every invariant curve nonnegatively: the integer ray
    degrees that is_ample reads, taken as nonnegative."""
    _, _, deg = intersect._integral_degrees(d, fan, intersection_table(fan))
    return all(x >= 0 for x in deg)


def lattice_point_count(coeffs, fan):
    """#(P_D cap M) for the polytope P_D = {m : <m, n(rho)> >= -a_rho}.

    Requires D nef; on a smooth complete toric surface the count then equals
    chi(O(D)), giving an oracle independent of Riemann-Roch.
    """
    if fan.rank != 2:
        raise ValueError("lattice point count implemented for surfaces only")
    a = divisor(coeffs, fan)
    if not is_nef(a, fan):
        raise ValueError("divisor is not nef; count would not equal chi")
    vertices = [
        unimodular_solve(fan.rays[c[0]], fan.rays[c[1]], -a[c[0]], -a[c[1]])
        for c in fan.max_cones
    ]
    xlo = min(math.floor(v[0]) for v in vertices)
    xhi = max(math.ceil(v[0]) for v in vertices)
    ylo = min(math.floor(v[1]) for v in vertices)
    yhi = max(math.ceil(v[1]) for v in vertices)
    count = 0
    for x in range(xlo, xhi + 1):
        for y in range(ylo, yhi + 1):
            if all(
                x * fan.rays[j][0] + y * fan.rays[j][1] >= -a[j]
                for j in range(fan.n_rays())
            ):
                count += 1
    return count


def find_ample_by_sorting(fan):
    """The search that listed all (r+1)^n nonnegative vectors of each radius
    r, sorted them by (sup-norm, lex) and tested those of sup-norm r with
    is_ample: the oracle for find_ample's walk.  Its work and memory grow as
    (r+1)^n, so it is run only on fans with few rays."""
    n = fan.n_rays()

    def vectors(radius):
        def rec(i):
            if i == n:
                yield ()
                return
            for x in range(radius + 1):
                for rest in rec(i + 1):
                    yield (x,) + rest

        for v in sorted(rec(0), key=lambda w: (max(w), w)):
            if max(v) == radius:
                yield v

    for radius in range(1, AMPLE_SEARCH_RADIUS + 1):
        for v in vectors(radius):
            if is_ample(v, fan):
                return divisor(v, fan)
    raise ValueError("no small ample divisor found")


def extract_flag_data(fam, fan):
    """The flag data of a family on its own, read off a meet table built for
    it: mu_test and mu_weights read it off the table of the family's record."""
    return _flag_data(_MeetTable(fam, fan))


def series_product(a, b):
    """The product of two truncated IntSeries, to the lesser order: the
    oracle that multiplies the rank-2 series back by an eta power."""
    n = min(a.order, b.order)
    out = [0] * (n + 1)
    for i, x in enumerate(a.coeffs[: n + 1]):
        if x == 0:
            continue
        for j in range(0, n + 1 - i):
            y = b.coeffs[j]
            if y:
                out[i + j] += x * y
    return IntSeries(n, tuple(out))


def poly_degree(p):
    """The degree of a RatPoly, -1 for the zero polynomial."""
    return len(p.coeffs) - 1


def poly_is_zero(p):
    return not p.coeffs


def fresh_copy(fam):
    """An equal family that is a new object, decoded from the family's JSON:
    stability keeps a record of the last (family, fan) pair it was given,
    matched by identity, and a copy is never that family."""
    return family_from_json(family_to_json(fam))


def xi_entries(xi):
    """The face weights of an XiWeights as (key, Xi) pairs in key order, each
    Xi a RatPoly read off D Xi; keys with one integer polynomial share one
    RatPoly.  The Fraction view the tests' oracles compare."""
    polys = [RatPoly.of([Fraction(c, xi.denominator) for c in p]) for p in xi.polys]
    return tuple((key, polys[i]) for key, i in zip(xi.keys, xi.index))


def xi_reconstruct(xi, fam, fan):
    """sum Xi_(nu,lam)(t) dim E^nu(lam) for a concrete family, each face value
    read off the grid restrict_to_face builds: the reconstruction oracle for
    hilbert_polynomial."""
    chi = as_char(fam)
    out = RatPoly(())
    faces = {}
    for (cone, lam), poly in xi_entries(xi):
        if cone not in faces:
            faces[cone] = restrict_to_face(chi, cone, fan)
        d = faces[cone].value(lam)
        if d:
            out = out + poly.scale(d)
    return out


def trim_by_points(grid):
    """The trim that re-read each slab point by point through _entry on every
    shrink step, and swept the coordinates again until none shrank: the
    oracle for _Grid.trim, which reads by index and stride in one sweep."""
    lo, hi = list(grid.lo), list(grid.hi)
    zero = grid._zero_value()

    def slab(coord, at):
        return box_points(
            [l if k != coord else at for k, l in enumerate(lo)],
            [h if k != coord else at for k, h in enumerate(hi)],
        )

    changed = True
    while changed:
        changed = False
        for k in range(len(lo)):
            while hi[k] > lo[k] and all(
                grid._entry(lam) == grid._entry(tuple(x - (1 if i == k else 0) for i, x in enumerate(lam)))
                for lam in slab(k, hi[k])
            ):
                hi[k] -= 1
                changed = True
            while lo[k] < hi[k] and all(grid._entry(lam) == zero for lam in slab(k, lo[k])):
                lo[k] += 1
                changed = True
    vals = tuple(grid._entry(lam) for lam in box_points(lo, hi))
    return grid._make(grid.cone, tuple(lo), tuple(hi), vals)


def eta_product(exponent, order):
    """Coefficients of prod_{k>=1} (1 - q^k)^exponent up to q^order, built
    factor by factor: a positive exponent multiplies by 1 - q^k, a negative
    one by 1/(1 - q^k) = sum_j q^(jk).  A product-form oracle for the
    package's partition kernel, with which it shares no code."""
    out = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(abs(exponent)):
            if exponent > 0:
                out = [c - (out[i - k] if i >= k else 0) for i, c in enumerate(out)]
            else:
                out = [sum(out[i - j * k] for j in range(i // k + 1)) for i in range(order + 1)]
    return tuple(out)


def rank2_three_lines(fan, gaps=None, bases=None, lines=None):
    n = fan.n_rays()
    gaps = gaps or [1] * n
    bases = bases or [0] * n
    full = SubspaceQ.full(2)
    pool = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3)]
    lines = lines or [SubspaceQ.span([pool[j % len(pool)]], 2) for j in range(n)]
    filts = []
    for j in range(n):
        if gaps[j] == 0:
            filts.append(RayFiltration(j, ((bases[j], full),)))
        else:
            filts.append(
                RayFiltration(j, ((bases[j], lines[j]), (bases[j] + gaps[j], full)))
            )
    return reflexive_from_filtrations(filts, fan)


@pytest.fixture(scope="session")
def o_p2(p2):
    return structure_sheaf(p2)


def class_orbits_by_sorted_twists(fan, c1, box_bound, viable):
    """Oracle for moduli._class_orbits: the search it replaced.  The rays
    i0, i1 of the first maximal cone are the basis, every gaps vector is
    checked for parity, and all (2b+1)^2 twists (<w, v_j>)_j with |t0|,
    |t1| <= b are listed and sorted; the first that moves the untwisted
    profile (a_i0 = a_i1 = 0) into the window gives the orbit's translate."""
    n = fan.n_rays()
    i0, i1 = fan.max_cones[0]
    v0, v1 = fan.rays[i0], fan.rays[i1]
    det = _basis_det(v0, v1)
    alpha = [det * (v[0] * v1[1] - v[1] * v1[0]) for v in fan.rays]
    beta = [det * (v0[0] * v[1] - v0[1] * v[0]) for v in fan.rays]
    window = range(-box_bound, box_bound + 1)
    twists = sorted(tuple(a * t0 + b * t1 for a, b in zip(alpha, beta))
                    for t0, t1 in itertools.product(window, repeat=2))
    orbits = []
    for gaps in itertools.product(range(box_bound + 1), repeat=n):
        p0, p1 = gaps[i0] + c1[i0], gaps[i1] + c1[i1]
        twice = [a * p0 + b * p1 - c - g for a, b, c, g in zip(alpha, beta, c1, gaps)]
        if any(t % 2 for t in twice):
            continue
        base = [t // 2 for t in twice]
        if not viable(base, gaps):
            continue
        for twist in twists:
            if all(abs(x + y) <= box_bound for x, y in zip(base, twist)):
                orbits.append((tuple(x + y for x, y in zip(base, twist)), gaps))
                break
    orbits.sort()
    return orbits


def ray_value(filt, lam):
    """The value of a ray filtration at lam: 0 below its first jump, else
    the last jump at or below lam."""
    out = SubspaceQ.zero(filt.ambient)
    for pos, v in filt.jumps:
        if pos > lam:
            break
        out = v
    return out


def corner_values_by_points(filts, fan):
    """Oracle for reflexive_from_filtrations: (lo, hi, values) per maximal
    cone, each box point's value built on its own as the full space met
    with every ray's value there."""
    by_ray = {f.ray: f for f in filts}
    m = filts[0].ambient
    out = []
    for mc in fan.max_cones:
        fs = [by_ray[j] for j in mc]
        lo = tuple(f.first for f in fs)
        hi = tuple(f.last for f in fs)
        vals = []
        for lam in box_points(lo, hi):
            v = SubspaceQ.full(m)
            for f, x in zip(fs, lam):
                v = v.intersect(ray_value(f, x))
            vals.append(v)
        out.append((lo, hi, tuple(vals)))
    return out


def run_by_full_parser(argv):
    """cli.run with every argv parsed by a fresh build_parser().parse_args,
    as it was parsed before a subcommand's own parser took the argv it
    leads: the oracle for cli._parse_args."""
    real = cli._parse_args
    cli._parse_args = lambda a: cli.build_parser().parse_args(a)
    try:
        return cli.run(argv)
    finally:
        cli._parse_args = real


def read_in_text_mode(path):
    """The text of the file at path as cli._read read it in text mode: the
    oracle for its byte read's newline translation and decode errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise cli.InputError(f"cannot read {path}: {e}") from e
