"""Torus-fixed-point enumeration and Euler-characteristic generating
functions on smooth complete toric surfaces.

Rank-1 gauge-fixed torsion-free sheaf data on a surface is a monomial-ideal
staircase (a 2D partition) at each maximal cone, twisted by a line bundle,
so the generating function of the counts is the e(X)-th power of the
partition series sum p(k) q^k = 1/prod(1-q^k).  The rank-2 P^2 series is a
double sum times its sixth power, and one kernel, _partitions_power,
divides by prod(1-q^k)^e for both: 1 for the rank-1 series, the double
sum for the rank-2 one.  Rank-2 data is a reflexive hull determined by ray
profiles and flag lines, cut down at finitely many interior grid points;
strata are labelled by the coincidence pattern of the flag lines.

A ray profile (a, gaps) has class c1 = -(2a + gaps) in Pic(X), so the
enumeration solves for the profiles of a given class rather than scanning
for them: rays 0 and 1 span a maximal cone of every valid surface fan, so
they are a Z-basis of N, the character u in M with
<u, v_j> = 2a_j + g_j + c1_j is fixed by those two rays, and every other
a_j is forced.  The gaps of every other ray are walked in the one parity
that makes 2a_j even, so no gaps vector is built to be thrown away.
Twisting by a character w in M maps a_j to a_j + <w, v_j> and changes no
gauge-fixed characteristic function, and the profiles of one gaps form a
single such orbit, so only the lexicographically first translate of each
orbit that fits the window is built.  A twist is fixed by its values
(s0, s1) on rays 0 and 1, so twists in lexicographic order are those pairs
in lexicographic order, and the first translate is found by walking the
pairs in [-b, b]^2 until one fits, with no list of twists.  The hull's c2
is A.B plus g_i g_j at every maximal cone (i, j) whose flag lines differ,
with A = -a and B = -(a + gaps); the flag patterns are walked ray by ray
into one list and cut as soon as a block is slope-unstable or the c2 bound
fails, so such hulls are never built.

Cuts per cone, c2 = c2(E**) + length: the quotient E**/E of a cut E is
supported at the fixed points, so it splits into one quotient per maximal
cone.  Each cone's cuts are listed once from the hull grid and combined
across cones up to the remaining c2 budget, and the c2 of a cut is read
off its length rather than recomputed.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .chern import chern_character, second_chern_number
from .family import (
    CharFunction,
    CornerFamily,
    DeltaFamily,
    KIND_TORSION_FREE,
    RayFiltration,
    box_points,
    characteristic_function,
    cone_shift,
    gauge_fix,
    reflexive_from_filtrations,
    validate_torsion_free,
)
from .fan import Fan, _require_valid, euler_characteristic
from .intersect import (
    _basis_det,
    ample_degrees,
    divisor_class_equal,
    find_ample,
    intersection_table,
)
from .stability import STABLE, margin_verdict
from .subspace import SubspaceQ


# ---------------------------------------------------------------------------
# truncated integer power series

@dataclass(frozen=True)
class IntSeries:
    """Truncated power series in q with integer coefficients."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must be order + 1")


def _partitions_power(e: int, order: int, base: Sequence[int] = (1,)) -> IntSeries:
    """base/prod_{k>=1} (1 - q^k)^e for e >= 0, truncated at q^order; the
    base 1 gives (sum_k p(k) q^k)^e.  Each factor 1/(1 - q^k) is the running
    sum c[n] += c[n - k], so every part k is admitted e times in turn."""
    c = [*base, *[0] * (order + 1 - len(base))]
    for part in range(1, order + 1):
        for _ in range(e):
            for n in range(part, order + 1):
                c[n] += c[n - part]
    return IntSeries(order, tuple(c))


# ---------------------------------------------------------------------------
# partitions

def partitions_of(n: int) -> Iterable[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples, by enumeration."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def partition_diagram(parts: Sequence[int]) -> frozenset[tuple[int, int]]:
    return frozenset((x, y) for y, p in enumerate(parts) for x in range(p))


def rank1_fixed_point_series(fan: Fan, order: int) -> IntSeries:
    """Coefficient of q^c: the number of tuples of 2D partitions, one per
    maximal cone, of total size c."""
    if fan.rank != 2:
        raise ValueError("fixed point enumeration implemented for surfaces only")
    e = euler_characteristic(fan)  # refuses an invalid fan before the order
    if order < 0:
        raise ValueError(f"order {order} is negative; it must be at least 0")
    if order > 40:
        raise ValueError("order capped at 40")
    return _partitions_power(e, order)


def rank2_p2_series(order: int) -> IntSeries:
    """Exact expansion of 1/prod(1-q^k)^6 * sum_{m,n>=1} q^{mn}/(1-q^{m+n-1})."""
    if order < 0:
        raise ValueError(f"order {order} is negative; it must be at least 0")
    if order > 30:
        raise ValueError("order capped at 30")
    inner = [0] * (order + 1)
    for m in range(1, order + 1):
        for k in range(1, order + 1):
            if m * k > order:
                break
            step = m + k - 1
            e = m * k
            while e <= order:
                inner[e] += 1
                e += step
    return _partitions_power(6, order, inner)


# ---------------------------------------------------------------------------
# gauge-fixed characteristic function enumeration

@dataclass(frozen=True)
class StratumRecord:
    pattern: tuple[tuple[int, ...], ...]  # coincidence classes of gap rays
    mu_verdict: str
    point_component: bool
    free_line: bool


@dataclass
class ChiRecord:
    chi: CharFunction
    c2: Fraction
    witness: DeltaFamily
    strata: list[StratumRecord]


class BoxBoundError(ValueError):
    """The enumeration window was too small to certify the result."""


# Work caps, checked before an enumeration starts.  Rank 1 builds one family
# per staircase tuple; rank 2 bounds the size of its profile window, (b+1)^n
# gaps times at most (2b+1)^2 twist checks each, and builds hulls for at most
# one translate per gaps.
MAX_RANK1_C2 = 40
MAX_RANK1_TUPLES = 5_000
# The orbit loop costs 0.01 to 0.13 us per window point (P^2 box 8, 210,681
# points: 5 ms; P^1 x P^1 box 8, 1.9 M points: 28 ms), so the window's cost
# is the hulls it lets through, about 10 ms each; c1 = 0 at c2 <= 1 builds
# none, as no orbit has a stable pattern (P^2 box 8 takes 14 ms, P^1 x P^1
# and F_1 box 5 14 and 17 ms, where their 112, 65 and 50 semistable hulls
# took 0.63, 0.44 and 0.31 s).  The cap admits P^2 up to box 8 (q^5 needs box 7: c1 = H, c2 <= 5
# takes 2.3 s and gives 969 records) and the four-ray fans up to box 5, so a
# c2 <= 1 run stays under 1 s (Python 3.11, one core); cut work has its own
# cap below.
MAX_WINDOW_POINTS = 250_000


# Rank-2 cuts check, per hull with a positive c2 budget and per maximal
# cone, every multiset of at most `budget` interior points of the padded
# box: C(n + budget, budget) for n interior points.  A candidate costs about
# 12 us to check, and a whole run about 10 to 30 us per candidate once the
# cuts' characteristic functions are counted (Python 3.11, one core), so
# the cap holds the cut checks to about 3 s and a run's cut work under 10 s.
MAX_CUT_CANDIDATES = 250_000


def _cut_candidates(hull: DeltaFamily, budget: int, cap: int) -> int:
    """The drop multisets _rank2_cuts checks: the sum over cones of
    C(n + budget, budget), n the cone's interior points after padding by
    the budget.  Stops at the first partial count above cap."""
    total = 0
    for _, grid in hull.corners:
        n = math.prod(h + budget - l for l, h in zip(grid.lo, grid.hi))
        count = 1
        for k in range(1, budget + 1):
            count = count * (n + k) // k
            if total + count > cap:
                return total + count
        total += count
    return total


def _window_check(chi: CharFunction, bound: int):
    for _, g in chi.corners:
        if any(abs(x) >= bound for x in g.lo + g.hi):
            raise BoxBoundError(
                f"gauge-fixed box {g.lo}..{g.hi} reaches the window bound {bound}; "
                "increase --box"
            )


def enumerate_gauge_fixed_chi(
    fan: Fan, rank: int, c1: Sequence[int], c2_max: int, box_bound: int = 4
) -> list[ChiRecord]:
    """All gauge-fixed characteristic functions with the given rank, first
    Chern class and second Chern number at most c2_max, each with a
    realizing witness family and (for rank 2) its flag-line strata."""
    if fan.rank != 2:
        raise ValueError("enumeration implemented for surfaces only")
    _require_valid(fan)
    if rank not in (1, 2):
        raise ValueError(f"enumeration implemented for ranks 1 and 2, not rank {rank}")
    if box_bound < 0:
        raise ValueError(f"box bound {box_bound} is negative")
    for x in c1:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)) or x != int(x):
            raise ValueError(f"c1 entries must be integers, not {x!r}")
    c1 = [int(x) for x in c1]
    if len(c1) != fan.n_rays():
        raise ValueError("c1 must have one integer per ray")
    if c2_max < 0:
        return []
    if rank == 1:
        return _enumerate_rank1(fan, c1, c2_max, box_bound)
    return _enumerate_rank2(fan, c1, c2_max, box_bound)


def _rank1_family(fan: Fan, kvec: Sequence[int],
                  diagrams: Sequence[frozenset[tuple[int, int]]]) -> DeltaFamily:
    corners = []
    full = SubspaceQ.full(1)
    zero = SubspaceQ.zero(1)
    for i, mc in enumerate(fan.max_cones):
        k = cone_shift(kvec, mc)
        diag = diagrams[i]
        ext = [0, 0]
        for cell in diag:
            ext[0] = max(ext[0], cell[0] + 1)
            ext[1] = max(ext[1], cell[1] + 1)
        lo = tuple(-x for x in k)
        hi = tuple(l + e for l, e in zip(lo, ext))
        vals = []
        for lam in box_points(lo, hi):
            shifted = tuple(a + b for a, b in zip(lam, k))
            vals.append(zero if shifted in diag else full)
        corners.append((i, CornerFamily(mc, lo, hi, tuple(vals), 1)))
    return DeltaFamily(KIND_TORSION_FREE, 1, tuple(corners))


def _enumerate_rank1(fan: Fan, c1, c2_max, box_bound) -> list[ChiRecord]:
    if c2_max > MAX_RANK1_C2:
        raise ValueError(f"rank-1 enumeration accepts c2 <= {MAX_RANK1_C2}, not {c2_max}; "
                         "lower --c2-max")
    tuples = sum(rank1_fixed_point_series(fan, c2_max).coeffs)
    if tuples > MAX_RANK1_TUPLES:
        raise ValueError(f"rank-1 enumeration with c2 <= {c2_max} builds {tuples} staircase "
                         f"tuples; at most {MAX_RANK1_TUPLES} are accepted; lower --c2-max")
    table = intersection_table(fan)
    l = len(fan.max_cones)
    records: dict[str, ChiRecord] = {}
    diagrams_by_size = {
        k: [partition_diagram(p) for p in partitions_of(k)] for k in range(c2_max + 1)
    }
    for total in range(c2_max + 1):
        for sizes in itertools.product(range(total + 1), repeat=l):
            if sum(sizes) != total:
                continue
            for diags in itertools.product(*(diagrams_by_size[s] for s in sizes)):
                fam = _rank1_family(fan, c1, diags)
                ch = chern_character(fam, fan)
                c2 = second_chern_number(ch, table)
                if c2 != total:
                    raise AssertionError("staircase size does not match c2")
                chi = characteristic_function(fam)
                gf, _ = gauge_fix(chi, fan)
                _window_check(gf, box_bound)
                key = gf.canonical()
                if key not in records:
                    # rank-1 torsion-free sheaves have no subsheaves of
                    # intermediate rank, so every stratum is a stable point
                    records[key] = ChiRecord(
                        gf, c2, fam,
                        [StratumRecord((), STABLE, True, False)],
                    )
    return [r for _, r in sorted(records.items(), key=lambda kv: (kv[1].c2, kv[0]))]


_LINE_POOL = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (1, -1)]


def _pool_line(idx: int) -> SubspaceQ:
    if idx < len(_LINE_POOL):
        return SubspaceQ.span([_LINE_POOL[idx]], 2)
    return SubspaceQ.span([(1, idx)], 2)


def _rank2_cuts(hull: DeltaFamily, budget: int):
    """(family, free line used, length) for the hull and for each cut of it
    of length at most budget.  The quotient hull/cut is supported at the
    fixed points, so it splits into one quotient per maximal cone: each
    cone's cuts (drops at interior points, below the box top in every
    coordinate) are listed once and combined across cones, and the length
    adds to c2.

    The hull boxes are padded by the budget first: a quotient of length c
    can reach at most c steps beyond the saturation corner, since the set
    of dropped points is downward closed inside the full-value region.
    """
    if budget == 0:
        yield hull, False, 0
        return
    fam = hull.map_corners(lambda g: g.pad_top(budget))
    free_at = len({v for _, g in fam.corners for v in g.values if v.dim == 1}) + 3
    combos = [((), False, 0)]
    for i, grid in fam.corners:
        interior = [lam for lam in grid.points() if all(x < h for x, h in zip(lam, grid.hi))]
        cuts = [(0, grid, False)]
        for length in range(1, budget + 1):
            for combo in itertools.combinations_with_replacement(interior, length):
                cut = _cut_grid(grid, Counter(combo), free_at)
                if cut is not None:
                    cuts.append((length,) + cut)
        combos = [
            (corners + ((i, g),), free or f, length + n)
            for corners, free, length in combos
            for n, g, f in cuts
            if length + n <= budget
        ]
    for corners, free, length in combos:
        yield DeltaFamily(KIND_TORSION_FREE, 2, corners), free, length


def _cut_grid(grid: CornerFamily, drops: Counter, free_at: int):
    """The grid cut down by drops and whether it takes a free line, or None
    when the dimensions turn negative or stop being monotone.  Each cluster
    of adjacent dimension-1 points carries one line: the hull line it
    meets, or a new pool line when it meets none.  The hull grid is
    monotone and each of its own clusters carries one flag line, so only
    the dropped points and their neighbours are checked."""
    dims = {lam: grid._entry(lam).dim - k for lam, k in drops.items()}

    def steps(lam):  # box neighbours with their sign; interior points are below hi
        for k in range(len(lam)):
            for s in (-1, 1):
                if lam[k] + s >= grid.lo[k]:
                    yield lam[:k] + (lam[k] + s,) + lam[k + 1:], s

    for lam, d in dims.items():
        if d < 0 or any((dims.get(nb, grid._entry(nb).dim) - d) * s < 0 for nb, s in steps(lam)):
            return None
    lines = {}
    free = 0
    for start, d in dims.items():
        if d != 1 or start in lines:
            continue
        cluster, forced = [start], set()
        for lam in cluster:
            for nb, _ in steps(lam):
                if nb not in dims:
                    if grid._entry(nb).dim == 1:
                        forced.add(grid._entry(nb))
                elif dims[nb] == 1 and nb not in cluster:
                    cluster.append(nb)
        if len(forced) > 1:
            return None
        if forced:
            line = forced.pop()
        else:
            line = _pool_line(free_at + free)
            free += 1
        lines.update(dict.fromkeys(cluster, line))
    zero = SubspaceQ.zero(2)
    vals = [lines.get(at, zero) if at in dims else v for at, v in zip(grid.points(), grid.values)]
    return CornerFamily(grid.cone, grid.lo, grid.hi, tuple(vals), 2), free > 0


def _profile_verdict(gaps, deg, pattern) -> str:
    """Slope verdict of a rank-2 reflexive hull from its flag data alone:
    margins of the flag lines (one per coincidence class) and of a generic
    line against (1/2) sum gap_j deg_j, doubled so that they are integers."""
    total = sum(g * d for g, d in zip(gaps, deg))
    margins = [2 * sum(gaps[j] * deg[j] for j in block) - total for block in pattern]
    margins.append(-total)
    return margin_verdict(max(margins))


def _flag_patterns(gaps, deg, cones, room: int):
    """(pattern, flag term) for each coincidence pattern of the gap rays that
    is not slope-unstable and whose flag term (g_i g_j over the maximal
    cones (i, j) split between two blocks) is at most room, as a list.  The
    gap rays are placed from the last: into each block in turn, then alone
    in a new first block with the others sorted after it, which is the
    order in which a recursion on the first ray lists all set partitions.
    A partial pattern is cut once either bound fails (see _enumerate_rank2)."""
    if room < 0:
        return []
    rays = [j for j, g in enumerate(gaps) if g]
    weight = [g * d for g, d in zip(gaps, deg)]
    total = sum(weight)
    later = {j: [] for j in rays}  # (i, g_i g_j) for each gap ray i > j next to j
    alone = dict.fromkeys(rays, 0)  # the flag term j adds in a block of its own
    for i, j in cones:
        if gaps[i] and gaps[j]:
            c = gaps[i] * gaps[j]
            later[min(i, j)].append((max(i, j), c))
            alone[min(i, j)] += c
    out = []

    def walk(k, blocks, sums, flag):
        if k < 0:
            out.append((tuple(sorted(blocks)), flag))
            return
        j = rays[k]
        w = weight[j]
        apart = flag + alone[j]
        for p, block in enumerate(blocks):
            if 2 * (sums[p] + w) > total:
                continue
            cost = apart
            for i, c in later[j]:
                if i in block:
                    cost -= c
            if cost <= room:
                walk(k - 1, blocks[:p] + ((j,) + block,) + blocks[p + 1:],
                     sums[:p] + (sums[p] + w,) + sums[p + 1:], cost)
        if 2 * w <= total and apart <= room:
            rest = sorted(zip(blocks, sums))
            walk(k - 1, ((j,),) + tuple(b for b, _ in rest),
                 (w,) + tuple(s for _, s in rest), apart)

    walk(len(rays) - 1, (), (), 0)
    return out


def _orbit_patterns(gaps, deg, cones, room: int):
    """(pattern, flag term, slope verdict) for each pattern _flag_patterns
    keeps; none when no verdict is stable (see _enumerate_rank2)."""
    patterns = [(pat, flag, _profile_verdict(gaps, deg, pat))
                for pat, flag in _flag_patterns(gaps, deg, cones, room)]
    return patterns if any(v == STABLE for _, _, v in patterns) else []


def _first_translate(tail, coords, box_bound: int):
    """The lexicographically first translate that fits [-b, b]^n of the
    profile that is 0 on rays 0 and 1 and tail on the others, or None.  A
    twist is fixed by its values (s0, s1) on rays 0 and 1; a ray j with
    coordinates (alpha_j, beta_j) then moves from a_j to
    a_j + alpha_j s0 + beta_j s1."""
    window = range(-box_bound, box_bound + 1)
    for s0 in window:
        for s1 in window:
            moved = [a + x * s0 + y * s1 for a, (x, y) in zip(tail, coords)]
            if all(-box_bound <= a <= box_bound for a in moved):
                return (s0, s1, *moved)
    return None


def _class_orbits(fan: Fan, c1: Sequence[int], box_bound: int, viable):
    """One profile (a, gaps) per character orbit of class c1 that meets the
    window [-b, b]^n x [0, b]^n and whose untwisted profile passes
    viable(a, gaps): the lexicographically first translate of each orbit
    that fits, sorted by (a, gaps).

    Rays 0 and 1 span a maximal cone of every valid surface fan (its cones
    are the pairs of angularly adjacent rays), so they are a Z-basis of N,
    and 2a + gaps + c1 = (<u, v_j>)_j for a unique u in M, fixed by a_0,
    a_1 and the gaps.  Two such u of one gaps differ by some 2w with w in M
    (their difference is even on the Z-basis), so the profiles of one gaps
    are the single orbit a + <w, .>, w in M, and the untwisted profile is
    the translate with a_0 = a_1 = 0.

    Twists and profiles are read off the coordinates (alpha_j, beta_j) of
    each ray in that basis, v_j = alpha_j v_0 + beta_j v_1.  They are
    integers because the basis is unimodular: det(v_0, v_1) = +-1, else the
    `not a Z-basis` error.  The u with <u, v_0> = p0 and <u, v_1> = p1 has
    <u, v_j> = alpha_j p0 + beta_j p1.  So a twist is fixed by its values
    (s0, s1) on rays 0 and 1, and twists in lexicographic order are the
    pairs (s0, s1) in lexicographic order; a translate fits only if its
    values s0, s1 on rays 0 and 1 lie in [-b, b].  _first_translate walks
    those pairs in order and stops at the first that fits, the translate a
    scan of the sorted twists met first.  Parity holds by construction:
    p0 = g_0 + c1_0 and p1 = g_1 + c1_1, and 2a_j = alpha_j p0 + beta_j p1
    - c1_j - g_j is even exactly when g_j has the parity of
    alpha_j p0 + beta_j p1 - c1_j, so every other ray runs over the gaps of
    that parity only."""
    v0, v1 = fan.rays[0], fan.rays[1]
    det = _basis_det(v0, v1)  # 1/det = det
    # (alpha_j, beta_j) for the rays after 1
    coords = [(det * (v[0] * v1[1] - v[1] * v1[0]), det * (v0[0] * v[1] - v0[1] * v[0]))
              for v in fan.rays[2:]]
    orbits = []
    for g0, g1 in itertools.product(range(box_bound + 1), repeat=2):
        p0, p1 = g0 + c1[0], g1 + c1[1]
        # 2a_j + g_j for the rays after 1; each gap keeps it even
        twice = [x * p0 + y * p1 - c for (x, y), c in zip(coords, c1[2:])]
        for rest in itertools.product(*(range(t % 2, box_bound + 1, 2) for t in twice)):
            gaps = (g0, g1) + rest
            tail = [(t - g) // 2 for t, g in zip(twice, rest)]
            if not viable([0, 0] + tail, gaps):
                continue
            a_vec = _first_translate(tail, coords, box_bound)
            if a_vec is not None:
                orbits.append((a_vec, gaps))
    orbits.sort()
    return orbits


def _split_c2(a_vec, gaps, matrix) -> int:
    """A.B for A = -a and B = -(a + gaps) (the signs cancel): c2 of the
    split hull O(A) + O(B)."""
    b_vec = [x + g for x, g in zip(a_vec, gaps)]
    return sum(x * sum(map(operator.mul, row, b_vec)) for x, row in zip(a_vec, matrix) if x)


def _profile_hull(fan: Fan, a_vec, gaps, pattern) -> DeltaFamily:
    """The rank-2 reflexive hull of a profile: ray j jumps to a flag line
    at a_j and to the full space at a_j + g_j, and the rays of one block
    of the pattern share their flag line."""
    lines = {j: _pool_line(ci) for ci, block in enumerate(pattern) for j in block}
    full = SubspaceQ.full(2)
    filts = [
        RayFiltration(j, ((a_vec[j], full),)) if gaps[j] == 0
        else RayFiltration(j, ((a_vec[j], lines[j]), (a_vec[j] + gaps[j], full)))
        for j in range(fan.n_rays())
    ]
    return reflexive_from_filtrations(filts, fan)


def _enumerate_rank2(fan: Fan, c1, c2_max, box_bound) -> list[ChiRecord]:
    """Rank-2 core: every torsion-free family is a reflexive hull (ray
    profiles plus flag lines) cut down at interior grid points, and the
    slope verdict is determined by the flag data alone, so unstable hulls
    are pruned before cut enumeration.  Only profiles of class c1 are
    generated, one per character orbit, and a hull is built only when its
    closed-form c2 is at most c2_max.

    Both bounds cut before a hull is built, and both are exact: a block
    with 2 sum g_j deg_j above the total makes a pattern unstable, and a
    hull's c2 is A.B plus its flag term.  Placing gap rays one at a time
    only raises block sums and the flag term (blocks never merge,
    deg_j > 0), so a cut partial pattern has no surviving completion.  An
    orbit is skipped before its twists are searched when its heaviest gap
    ray alone breaks the slope bound or A.B exceeds c2_max; A.B is an
    intersection number of classes, which a twist does not change.  An
    orbit with no slope-stable pattern builds no hull: a record is kept only
    with a stable stratum, and its strata all come from its own orbit (its
    gaps are read off the ray faces, which cuts leave alone).

    One translate per orbit gives the same records as all of them: a twist
    maps hulls, cuts, verdicts and c2 to their translates, so every
    translate yields the same gauge-fixed characteristic functions and
    strata, and a later translate only repeats what the first one added.  The
    translate kept is the lexicographically first that fits the window,
    the one a scan over every translate would meet first, so first
    witnesses and strata order are those of that scan, and an orbit counts
    for the window exactly when some translate fits it.

    A record's c2 is its hull's plus the cut length, checked once on its
    witness.  Each hull's Chern character is computed once: it checks the
    class and the closed-form c2, and it is the witness check's c2 for a
    record whose witness is that very hull (a budget of 0, where
    _rank2_cuts yields the hull itself).  Each record's canonical key is
    built once and orders the result.  The window check reads the records
    in (c2, chi) order, so the box it names does not depend on the order in
    which cuts arrive.

    Only characteristic functions with a slope-stable stratum are
    returned; semistable strata of those functions are recorded alongside.
    The unconstrained set is infinite (split hulls of arbitrarily negative
    c2 repaired by cuts, and equal-slope split pairs under unbounded
    relative twists), and only the stable-capable core is finite and
    window-independent."""
    if box_bound == 0:
        # its only profiles have zero gaps, whose hulls O(A) + O(A) are never
        # slope-stable, and every record would reach the window bound 0
        raise BoxBoundError("rank-2 enumeration cannot certify a result at box 0; "
                            "increase --box")
    points = (box_bound + 1) ** fan.n_rays() * (2 * box_bound + 1) ** 2
    if points > MAX_WINDOW_POINTS:
        raise ValueError(f"the rank-2 profile window has {points} points at box {box_bound}; "
                         f"at most {MAX_WINDOW_POINTS} are accepted; lower --box")
    table = intersection_table(fan)
    records: dict[str, ChiRecord] = {}
    witness_c2: dict[str, Fraction] = {}  # key -> c2, for a record whose witness is its hull
    candidates = 0
    deg = ample_degrees(find_ample(fan), fan)

    def viable(base, gaps):
        weights = [g * d for g, d in zip(gaps, deg)]
        return 2 * max(weights) <= sum(weights) and _split_c2(base, gaps, table.matrix) <= c2_max

    for a_vec, gaps in _class_orbits(fan, c1, box_bound, viable):
        split_c2 = _split_c2(a_vec, gaps, table.matrix)
        for pat, flag_c2, verdict in _orbit_patterns(gaps, deg, fan.max_cones,
                                                     c2_max - split_c2):
            c2_hull = split_c2 + flag_c2
            hull = _profile_hull(fan, a_vec, gaps, pat)
            ch = chern_character(hull, fan)
            if not divisor_class_equal(ch.d, c1, fan):
                raise AssertionError("hull c1 drifted from the profile")
            c2_ch = second_chern_number(ch, table)
            if c2_ch != c2_hull:
                raise AssertionError("hull c2 differs from its closed form")
            budget = c2_max - c2_hull
            if budget:
                candidates += _cut_candidates(hull, budget, MAX_CUT_CANDIDATES - candidates)
                if candidates > MAX_CUT_CANDIDATES:
                    raise ValueError(
                        f"rank-2 enumeration with c2 <= {c2_max} checks more than "
                        f"{MAX_CUT_CANDIDATES} cut candidates; lower --c2-max")
            for fam, free_used, length in _rank2_cuts(hull, budget):
                chi = characteristic_function(fam)
                gf, _ = gauge_fix(chi, fan)
                key = gf.canonical()
                if key not in records:
                    records[key] = ChiRecord(gf, Fraction(c2_hull + length), fam, [])
                    if fam is hull:
                        witness_c2[key] = c2_ch
                rec = records[key]
                existing = next((s for s in rec.strata if s.pattern == pat), None)
                if existing is None:
                    rec.strata.append(
                        StratumRecord(pat, verdict, len(pat) <= 3 and not free_used, free_used)
                    )
                elif free_used != existing.free_line:
                    raise AssertionError("a stratum came back with a different free line")
    kept = sorted(
        ((key, r) for key, r in records.items()
         if any(s.mu_verdict == STABLE for s in r.strata)),
        key=lambda kv: (kv[1].c2, kv[0]),
    )
    for key, r in kept:
        c2 = witness_c2.get(key)
        if c2 is None:
            c2 = second_chern_number(chern_character(r.witness, fan), table)
        if validate_torsion_free(r.witness, fan) or c2 != r.c2:
            raise AssertionError("cut witness is invalid or its c2 is not c2(hull) + length")
        _window_check(r.chi, box_bound)
    return [r for _, r in kept]
