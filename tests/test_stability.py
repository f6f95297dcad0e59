import itertools
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cmp_to_key

import pytest

from conftest import (
    extract_flag_data,
    fresh_copy,
    line_bundle_family,
    poly_degree,
    poly_is_zero,
    rank2_three_lines,
    ray_degrees,
    structure_sheaf,
    xi_entries,
    xi_reconstruct,
)
from toricsheaves import stability
from toricsheaves.chern import chern_character, hilbert_polynomial
from toricsheaves.family import (
    DeltaFamily,
    KIND_PURE,
    KIND_TORSION_FREE,
    characteristic_function,
    intersect_with_subspace,
    is_reflexive,
    restrict_to_face,
    tensor_line_bundle,
)
from toricsheaves.fan import hirzebruch, p1_x_p1
from toricsheaves.intersect import (
    divisor,
    find_ample,
    intersection_table,
    pair,
)
from toricsheaves.polynomials import RatPoly
from toricsheaves.sampling import random_families, random_smooth_complete_fan
from toricsheaves.stability import (
    PARTIAL_NOTE,
    SEMISTABLE,
    STABLE,
    UNSTABLE,
    WeightSystem,
    choose_r,
    distinguished_subspaces,
    gieseker_test,
    git_test,
    mu_test,
    mu_weights,
    random_subspaces,
    xi_weights,
)
from toricsheaves.subspace import SubspaceQ

H_P2 = (1, 0, 0)
LINES = [SubspaceQ.span([v], 2) for v in [(1, 0), (0, 1), (1, 1)]]


def compare_for_large_t(p, q):
    """Sign of p - q for t >> 0: lexicographic on coefficients from the top."""
    d = p - q
    if poly_is_zero(d):
        return 0
    return 1 if d.coeffs[-1] > 0 else -1


def classify_for_large_t(margins, exhaustive, note):
    """The Gieseker verdict from (W, RatPoly margin) pairs: the worst margin is
    the largest for t >> 0, and the first of equal ones.  The oracle for the
    integer comparison of stability._gieseker_verdict."""
    if not margins:
        return stability._verdict("gieseker", None, None, -1, exhaustive, note)
    worst_w, worst = max(margins, key=cmp_to_key(lambda a, b: compare_for_large_t(a[1], b[1])))
    sign = compare_for_large_t(worst, RatPoly(()))
    return stability._verdict("gieseker", worst_w, worst, sign, exhaustive, note)


def split_with_cut(p2):
    """O + O with the second summand cut at one fixed point: equal slopes,
    strictly smaller Hilbert polynomial."""
    fam = structure_sheaf(p2, rank=2)
    corners = {i: g.pad_top(1) for i, g in fam.corners}
    corners[0] = corners[0].with_value(
        corners[0].lo, SubspaceQ.span([(1, 0)], 2)
    )
    return DeltaFamily(KIND_TORSION_FREE, 2, tuple(sorted(corners.items())))


# --- distinguished subspaces -------------------------------------------------

def test_distinguished_rank1_empty(p2, o_p2):
    assert distinguished_subspaces(o_p2) == []


def test_distinguished_three_lines(p2):
    fam = rank2_three_lines(p2, lines=LINES)
    assert set(distinguished_subspaces(fam)) == set(LINES)


def test_distinguished_rank3_closure(p2):
    # the corner values hold <e0> and <e2> but not their sum; the closure adds it
    from toricsheaves.family import RayFiltration, reflexive_from_filtrations

    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    span = lambda *ix: SubspaceQ.span([e[i] for i in ix], 3)
    filts = [RayFiltration(0, ((0, span(0)), (1, span(0, 1)), (2, SubspaceQ.full(3)))),
             RayFiltration(1, ((0, span(2)), (1, span(1, 2)), (2, SubspaceQ.full(3)))),
             RayFiltration(2, ((0, SubspaceQ.full(3)),))]
    fam = reflexive_from_filtrations(filts, p2)
    corner_values = {v for _, g in fam.corners for v in g.values}
    assert span(0, 2) not in corner_values
    coordinate = {span(i) for i in range(3)} | {span(i, j) for i, j in ((0, 1), (0, 2), (1, 2))}
    assert set(distinguished_subspaces(fam)) == coordinate


def test_distinguished_single_line(p2):
    fam = rank2_three_lines(p2, lines=[LINES[0]] * 3)
    assert distinguished_subspaces(fam) == [LINES[0]]


# --- slope test ----------------------------------------------------------------

def test_mu_three_distinct_lines_stable(p2):
    v = mu_test(rank2_three_lines(p2, lines=LINES), p2, H_P2)
    assert v.verdict == STABLE and v.exhaustive
    # the margin for each flag line is 1 - 3/2
    assert v.margin == Fraction(-1, 2)


def test_mu_split_strictly_semistable(p2):
    v = mu_test(structure_sheaf(p2, rank=2), p2, H_P2)
    assert v.verdict == SEMISTABLE
    assert v.witness is not None and v.witness.dim == 1


def test_mu_one_line_unstable(p2):
    fam = rank2_three_lines(p2, gaps=[2, 2, 2], lines=[LINES[0]] * 3)
    v = mu_test(fam, p2, H_P2)
    assert v.verdict == UNSTABLE
    assert v.witness == LINES[0]
    assert v.margin > 0


def test_mu_rank1_stable(p2, o_p2):
    assert mu_test(o_p2, p2, H_P2).verdict == STABLE


def test_mu_rank3_flagged(p2):
    v = mu_test(structure_sheaf(p2, rank=3), p2, H_P2)
    assert not v.exhaustive
    assert v.note and "distinguished-set" in v.note


def nonreflexive_stable_family(p2):
    """Three distinct lines with one genuine interior cut: the value L1 at
    (1, 0) drops to zero, so the family is torsion-free but not reflexive,
    while the ray flags (hence the slope verdict) are unchanged."""
    fam = rank2_three_lines(p2, lines=LINES)
    corners = {i: g.pad_top(1) for i, g in fam.corners}
    assert corners[0].value((1, 0)).dim == 1
    corners[0] = corners[0].with_value((1, 0), SubspaceQ.zero(2))
    return DeltaFamily(KIND_TORSION_FREE, 2, tuple(sorted(corners.items())))


def test_mu_nonreflexive_stable_caveat(p2):
    from toricsheaves.family import is_reflexive

    cut = nonreflexive_stable_family(p2)
    assert not is_reflexive(cut, p2)
    v = mu_test(cut, p2, H_P2)
    assert v.verdict == STABLE
    assert v.note and "equivariant" in v.note


def test_mu_requires_ample(p2, o_p2):
    with pytest.raises(ValueError):
        mu_test(o_p2, p2, (0, 0, 0))


# --- Gieseker test ----------------------------------------------------------------

def test_gieseker_stable_from_mu_stable(p2):
    fam = rank2_three_lines(p2, lines=LINES)
    assert gieseker_test(fam, p2, H_P2).verdict == STABLE


def test_gieseker_split_semistable(p2):
    assert gieseker_test(structure_sheaf(p2, rank=2), p2, H_P2).verdict == SEMISTABLE


def test_gieseker_cut_split_unstable(p2):
    fam = split_with_cut(p2)
    assert mu_test(fam, p2, H_P2).verdict == SEMISTABLE
    v = gieseker_test(fam, p2, H_P2)
    assert v.verdict == UNSTABLE
    assert v.witness == SubspaceQ.span([(1, 0)], 2)
    # the margin polynomial is the constant 1/2 excess of the subsheaf
    assert compare_for_large_t(v.margin, RatPoly(())) > 0


def test_gieseker_consistent_with_mu(corpus, amples):
    # mu-stable implies Gieseker stable; Gieseker semistable implies mu-semistable
    for name, fan in corpus.items():
        for fam in random_families(fan, 2, 25, seed=113):
            m = mu_test(fam, fan, amples[name]).verdict
            g = gieseker_test(fam, fan, amples[name]).verdict
            if m == STABLE:
                assert g == STABLE
            if g in (STABLE, SEMISTABLE):
                assert m in (STABLE, SEMISTABLE)


def gieseker_by_chern(fam, fan, h):
    """The Gieseker test on the Chern/Todd route: P(E cap W) from
    hilbert_polynomial of each intersected subfamily."""
    p_e = hilbert_polynomial(fam, fan, h).scale(Fraction(1, fam.rank))
    ws, exhaustive = stability.test_subspaces(fam)
    margins = [
        (w, hilbert_polynomial(intersect_with_subspace(fam, w), fan, h).scale(Fraction(1, w.dim))
         - p_e)
        for w in ws
    ]
    return classify_for_large_t(margins, exhaustive, None if exhaustive else PARTIAL_NOTE)


def test_gieseker_face_weights_match_chern_route(corpus, amples):
    fans = [(fan, amples[name]) for name, fan in corpus.items()]
    f2 = hirzebruch(2)
    fans.append((f2, find_ample(f2)))
    for blowups in (1, 2, 3):
        fan = random_smooth_complete_fan(random.Random(blowups), blowups)
        fans.append((fan, find_ample(fan)))
    verdicts = set()
    for fan, h in fans:
        for fam in random_families(fan, 2, 12, seed=4001):
            v = gieseker_test(fam, fan, h)
            assert v == gieseker_by_chern(fam, fan, h)
            verdicts.add(v.verdict)
    assert verdicts == {STABLE, SEMISTABLE, UNSTABLE}


@pytest.mark.parametrize("make", ["slab", "two_axes"])
def test_gieseker_pure_rejected(p2, make):
    from test_family import slab_family, two_axes_family

    fam = slab_family(p2, 0) if make == "slab" else two_axes_family(p2)
    with pytest.raises(ValueError, match="torsion-free kinds only"):
        gieseker_test(fam, p2, H_P2)


# --- weight systems ----------------------------------------------------------------

def test_mu_weights_unit_gaps(p2):
    w = mu_weights(rank2_three_lines(p2, lines=LINES), p2, H_P2)
    assert sorted(wt for _, wt in w.items()) == [1, 1, 1]
    keys = {cone for (cone, _), _ in w.items()}
    assert keys == {(0,), (1,), (2,)}


def test_mu_weights_scale_with_polarization(p2):
    fam = rank2_three_lines(p2, lines=LINES)
    w1 = mu_weights(fam, p2, (1, 0, 0))
    w2 = mu_weights(fam, p2, (2, 0, 0))
    assert [wt for _, wt in w2.items()] == [2 * wt for _, wt in w1.items()]


def test_mu_weights_all_gaps_zero_rejected(p2):
    with pytest.raises(ValueError):
        mu_weights(structure_sheaf(p2, rank=2), p2, H_P2)


def test_mu_weights_pure_rejected(p2, o_p2):
    from test_family import slab_family

    with pytest.raises(ValueError):
        mu_weights(slab_family(p2, 0), p2, H_P2)


def test_mu_weights_torsion_free_branch(p2):
    cut = nonreflexive_stable_family(p2)
    w = mu_weights(cut, p2, H_P2)
    weights = sorted(wt for _, wt in w.items())
    n_sum = sum(
        v.dim
        for _, g in cut.corners
        for lam, v in zip(g.points(), g.values)
        if 0 < v.dim < 2 and sum(1 for k in range(2) if lam[k] < g.hi[k]) >= 2
    )
    r_scale = 4 * n_sum + 1
    assert weights.count(1) == len(weights) - 3
    assert weights[-3:] == [r_scale] * 3


# --- GIT test -------------------------------------------------------------------------

def test_git_rank1_properly_stable(p2, o_p2):
    v = git_test(o_p2, WeightSystem(1, ()), p2)
    assert v.verdict == STABLE


def test_git_split_trivial_weights_semistable(p2):
    # all-gaps-zero data has no Grassmannian factors: the empty weight
    # system makes every subspace a margin-0 witness
    v = git_test(structure_sheaf(p2, rank=2), WeightSystem(2, ()), p2)
    assert v.verdict == SEMISTABLE


def test_git_mu_stable_example(p2):
    fam = rank2_three_lines(p2, lines=LINES)
    v = git_test(fam, mu_weights(fam, p2, H_P2), p2)
    assert v.verdict == STABLE


def test_git_implication_chain(corpus, amples):
    for name, fan in corpus.items():
        for fam in random_families(fan, 2, 25, seed=131):
            m = mu_test(fam, fan, amples[name]).verdict
            try:
                w = mu_weights(fam, fan, amples[name])
            except ValueError:
                assert m != STABLE
                continue
            g = git_test(fam, w, fan).verdict
            if m == STABLE:
                assert g == STABLE
            if g == STABLE:
                assert m in (STABLE, SEMISTABLE)


def test_git_weight_key_mismatch(p2, o_p2):
    bad = WeightSystem(1, ((((0,), (0, 0)), 1),))
    with pytest.raises(ValueError, match=r"weight key \(\(0,\), \(0, 0\)\) does not match "
                                         "the family's shape"):
        git_test(o_p2, bad, p2)


def test_weight_positivity_enforced():
    with pytest.raises(ValueError):
        WeightSystem(2, ((((0,), (0,)), 0),))


# --- face weight polynomials -----------------------------------------------------------

def test_xi_identity_structure_sheaf(p2, o_p2):
    chi = characteristic_function(o_p2)
    xi = xi_weights(chi, p2, H_P2)
    p = xi_reconstruct(xi, o_p2, p2)
    assert p == hilbert_polynomial(o_p2, p2, H_P2)
    assert p == RatPoly.of([1, Fraction(3, 2), Fraction(1, 2)])


def test_xi_degree_bound(p2):
    fam = rank2_three_lines(p2, lines=LINES)
    xi = xi_weights(characteristic_function(fam), p2, H_P2)
    for (cone, _), poly in xi_entries(xi):
        assert poly_degree(poly) <= 2 - len(cone)


def test_xi_weights_pinned(p2):
    # three lines on P^2 at H = (1, 0, 0): every entry, coefficients low degree first
    xi = xi_weights(characteristic_function(rank2_three_lines(p2)), p2, H_P2)
    expected = [
        (((), ()), [10, Fraction(-9, 2), Fraction(1, 2)]),
        (((0,), (0,)), [-3, 1]),
        (((0,), (1,)), [-4, 1]),
        (((1,), (0,)), [-3, 1]),
        (((1,), (1,)), [-4, 1]),
        (((2,), (0,)), [-3, 1]),
        (((2,), (1,)), [-4, 1]),
    ] + [
        ((cone, lam), [1])
        for cone in ((0, 1), (0, 2), (1, 2))
        for lam in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]
    assert len(expected) == 19
    assert xi.ambient == 2
    assert xi_entries(xi) == tuple((key, RatPoly.of(cs)) for key, cs in expected)


def test_xi_ray_leading_coefficient_is_ample_degree(p2, tables):
    fam = rank2_three_lines(p2, lines=LINES)
    xi = xi_weights(characteristic_function(fam), p2, H_P2)
    n = 3
    unit = lambda j: tuple(Fraction(1 if i == j else 0) for i in range(n))
    h = tuple(Fraction(x) for x in H_P2)
    for (cone, _), poly in xi_entries(xi):
        if len(cone) == 1:
            assert poly.coeff(1) == pair(h, unit(cone[0]), tables["p2"])
            assert poly.coeff(1) > 0


def test_xi_reconstruction_randomized(corpus, amples):
    fans = [(fan, amples[name]) for name, fan in corpus.items()]
    for blowups in (1, 2, 3):
        fan = random_smooth_complete_fan(random.Random(blowups), blowups)
        fans.append((fan, find_ample(fan)))
    for fan, h in fans:
        for fam in random_families(fan, 2, 10, seed=139):
            chi = characteristic_function(fam)
            xi = xi_weights(chi, fan, h)
            assert xi_reconstruct(xi, fam, fan) == hilbert_polynomial(fam, fan, h)


def test_choose_r_certifies(p2):
    fam = rank2_three_lines(p2, lines=LINES)
    chi = characteristic_function(fam)
    r, w = choose_r(chi, p2, H_P2, [fam])
    assert all(wt > 0 for _, wt in w.items())
    assert git_test(fam, w, p2).verdict == gieseker_test(fam, p2, H_P2).verdict


def test_mu_verdicts_invariant_under_arbitrary_twists(corpus, amples):
    rng = random.Random(149)
    for name, fan in corpus.items():
        n = fan.n_rays()
        for fam in random_families(fan, 2, 10, seed=151):
            kvec = tuple(rng.randrange(-2, 3) for _ in range(n))
            tw = tensor_line_bundle(fam, kvec)
            assert (
                mu_test(fam, fan, amples[name]).verdict
                == mu_test(tw, fan, amples[name]).verdict
            )


def test_gieseker_invariant_under_polarization_twists(corpus, amples):
    # twisting by a multiple of the polarization shifts t and cannot change
    # the large-t comparison; arbitrary twists can (see the counterexample)
    for name, fan in corpus.items():
        h = tuple(int(x) for x in amples[name])
        for fam in random_families(fan, 2, 10, seed=151):
            for m in (-1, 2):
                tw = tensor_line_bundle(fam, tuple(m * x for x in h))
                assert (
                    gieseker_test(fam, fan, amples[name]).verdict
                    == gieseker_test(tw, fan, amples[name]).verdict
                )


def test_gieseker_not_invariant_under_arbitrary_twists(p1p1):
    # O(f1-f2) + O(f2-f1) is strictly Gieseker semistable for H = f1+f2,
    # but its twist by O(f2-f1) has a subsheaf with the same slope and a
    # larger constant Hilbert coefficient
    from toricsheaves.family import RayFiltration, reflexive_from_filtrations

    full = SubspaceQ.full(2)
    e1 = SubspaceQ.span([(1, 0)], 2)
    e2 = SubspaceQ.span([(0, 1)], 2)
    filts = [
        RayFiltration(0, ((-1, e1), (1, full))),
        RayFiltration(1, ((-1, e2), (1, full))),
        RayFiltration(2, ((0, full),)),
        RayFiltration(3, ((0, full),)),
    ]
    fam = reflexive_from_filtrations(filts, p1p1)
    h = (1, 1, 0, 0)
    assert gieseker_test(fam, p1p1, h).verdict == SEMISTABLE
    tw = tensor_line_bundle(fam, (-1, 1, 0, 0))
    assert mu_test(tw, p1p1, h).verdict == SEMISTABLE
    assert gieseker_test(tw, p1p1, h).verdict == UNSTABLE


def test_git_verdicts_invariant_under_arbitrary_twists(corpus, amples):
    rng = random.Random(253)
    for name, fan in corpus.items():
        n = fan.n_rays()
        for fam in random_families(fan, 2, 8, seed=257):
            try:
                w = mu_weights(fam, fan, amples[name])
            except ValueError:
                continue
            kvec = tuple(rng.randrange(-2, 3) for _ in range(n))
            tw = tensor_line_bundle(fam, kvec)
            w_tw = mu_weights(tw, fan, amples[name])
            assert (
                git_test(fam, w, fan).verdict == git_test(tw, w_tw, fan).verdict
            )


def test_fuzz_no_violation_of_exhaustive_verdicts(p2):
    # random subspaces can never beat a verdict established on the
    # distinguished set in rank 2
    rng = random.Random(157)
    fams = random_families(p2, 2, 10, seed=163)
    for fam in fams:
        base = mu_test(fam, p2, H_P2)
        flags = extract_flag_data(fam, p2)
        table = intersection_table(p2)
        n = 3
        unit = lambda j: tuple(Fraction(1 if i == j else 0) for i in range(n))
        h = tuple(Fraction(x) for x in H_P2)
        deg = [pair(h, unit(j), table) for j in range(n)]
        total = sum(
            rf.gaps[k] * deg[rf.ray] * (k + 1)
            for rf in flags.rays
            for k in range(1)
        )
        for w in random_subspaces(2, 40, rng):
            lhs = sum(
                rf.gaps[k] * deg[rf.ray] * rf.flags[k].intersect(w).dim
                for rf in flags.rays
                for k in range(1)
                if rf.gaps[k]
            )
            margin = lhs - Fraction(w.dim, 2) * total
            if base.verdict == STABLE:
                assert margin < 0
            elif base.verdict == SEMISTABLE:
                assert margin <= 0


def test_verdicts_against_brute_force_line_sweep(p2, amples):
    # independent check of the finite test-set reduction: sweep every line
    # spanned by a small integer vector and confirm no margin contradicts
    # the verdict computed from the distinguished set
    from math import gcd

    from toricsheaves.family import intersect_with_subspace

    h = amples["p2"]
    table = intersection_table(p2)
    n = 3
    unit = lambda j: tuple(Fraction(1 if i == j else 0) for i in range(n))
    deg = [pair(tuple(Fraction(x) for x in h), unit(j), table) for j in range(n)]
    lines = []
    seen = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            if (a, b) == (0, 0) or gcd(abs(a), abs(b)) > 1:
                continue
            rep = (a, b) if (a, b) > (-a, -b) else (-a, -b)
            if rep not in seen:
                seen.add(rep)
                lines.append(SubspaceQ.span([rep], 2))
    for fam in random_families(p2, 2, 12, seed=211):
        mu = mu_test(fam, p2, h)
        gz = gieseker_test(fam, p2, h)
        flags = extract_flag_data(fam, p2)
        total = sum(rf.gaps[0] * deg[rf.ray] for rf in flags.rays)
        p_e = hilbert_polynomial(fam, p2, h).scale(Fraction(1, 2))
        worst_mu = None
        worst_g = None
        for w in lines:
            m = sum(
                rf.gaps[0] * deg[rf.ray] * rf.flags[0].intersect(w).dim
                for rf in flags.rays
                if rf.gaps[0]
            ) - Fraction(1, 2) * total
            worst_mu = m if worst_mu is None else max(worst_mu, m)
            diff = hilbert_polynomial(intersect_with_subspace(fam, w), p2, h) - p_e
            sign = compare_for_large_t(diff, RatPoly(()))
            worst_g = sign if worst_g is None else max(worst_g, sign)
        expect_mu = {STABLE: -1, SEMISTABLE: 0, UNSTABLE: 1}[mu.verdict]
        got_mu = (worst_mu > 0) - (worst_mu < 0)
        assert got_mu == expect_mu
        expect_g = {STABLE: -1, SEMISTABLE: 0, UNSTABLE: 1}[gz.verdict]
        assert worst_g == expect_g


@pytest.mark.parametrize("h, message", [
    ((0, 0, 0), "polarization is not ample"),
    ((1, -1, 0), "polarization is not ample"),
    ((1, 0), "divisor has 2 coefficients, fan has 3 rays"),
])
def test_polarization_checked_by_every_consumer(p2, h, message):
    fam = rank2_three_lines(p2, lines=LINES)
    chi = characteristic_function(fam)
    consumers = [
        lambda: mu_test(fam, p2, h),
        lambda: mu_weights(fam, p2, h),
        lambda: xi_weights(chi, p2, h),
        lambda: gieseker_test(fam, p2, h),
        lambda: choose_r(chi, p2, h, [fam]),
        lambda: hilbert_polynomial(fam, p2, h),
    ]
    for call in consumers:
        with pytest.raises(ValueError, match=message):
            call()


def test_xi_weights_error_cases(p2, o_p2):
    from toricsheaves.family import characteristic_function as charfn

    chi = charfn(o_p2)
    with pytest.raises(ValueError):
        xi_weights(chi, p2, (0, 0, 0))  # not ample
    from toricsheaves.family import CharFunction, DimGrid

    bad = CharFunction(
        2,
        tuple(
            (i, DimGrid(mc, (0, 0), (0, 0), (1,)))
            for i, mc in enumerate(p2.max_cones)
        ),
    )
    with pytest.raises(ValueError):
        xi_weights(bad, p2, H_P2)  # does not saturate to the rank


# --- the meet table against the per-margin route it replaced ---------------------
#
# The old route, kept as the oracle: every margin recomputed from subspace
# intersections, GIT weights looked up with one restrict_to_face per key, and
# Gieseker margins from xi_reconstruct of each subfamily E cap W.

def _point_subspace(fam, fan, key):
    cone, lam = key
    grid = restrict_to_face(fam, cone, fan)
    if len(lam) != grid.ndim():
        raise ValueError(f"weight key {key} does not match the family's shape")
    return grid.value(lam)


def mu_by_intersections(fam, fan, h):
    table = intersection_table(fan)
    m = fam.rank
    flags = extract_flag_data(fam, fan)
    deg = ray_degrees(divisor(h, fan), table)
    total = sum(rf.gaps[k] * deg[rf.ray] * (k + 1) for rf in flags.rays for k in range(m - 1))

    def margin(w):
        lhs = Fraction(0)
        for rf in flags.rays:
            for k in range(m - 1):
                if rf.gaps[k] and rf.flags[k] is not None:
                    lhs += rf.gaps[k] * deg[rf.ray] * rf.flags[k].intersect(w).dim
        return lhs - Fraction(w.dim, m) * total

    ws, exhaustive = stability.test_subspaces(fam)
    # validated and asked about reflexivity whatever the verdict
    caveat = None if fam.kind == KIND_PURE or is_reflexive(fam, fan) else (
        "stable verdict certified against equivariant subobjects only "
        "(non-reflexive torsion-free input)")
    return stability._classify("mu", [(w, margin(w)) for w in ws], exhaustive,
                               None if exhaustive else PARTIAL_NOTE, stable_caveat=caveat)


def git_by_points(fam, weights, fan, n_random=0, seed=0):
    m = fam.rank
    points = [(w, _point_subspace(fam, fan, key)) for key, w in weights.items()]
    rhs = Fraction(sum(w * p.dim for w, p in points), m)

    def margin(wsub):
        return Fraction(sum(w * p.intersect(wsub).dim for w, p in points), wsub.dim) - rhs

    ws, exhaustive = stability.test_subspaces(fam)
    if n_random:
        ws = ws + random_subspaces(m, n_random, random.Random(seed))
    note = None if exhaustive else "distinguished-set verdict (rank >= 3)"
    return stability._classify("git", [(w, margin(w)) for w in ws], exhaustive, note)


def gieseker_by_subfamilies(fam, fan, h):
    xi = xi_weights(characteristic_function(fam), fan, h)

    def reduced(sub, dim):
        return xi_reconstruct(xi, sub, fan).scale(Fraction(1, dim))

    p_e = reduced(fam, fam.rank)
    ws, exhaustive = stability.test_subspaces(fam)
    margins = [(w, reduced(intersect_with_subspace(fam, w), w.dim) - p_e) for w in ws]
    return classify_for_large_t(margins, exhaustive, None if exhaustive else PARTIAL_NOTE)


def weights_at(ambient, entries, r):
    """The weight system of the (key, Xi) pairs entries at r, each weight
    Xi(r) by RatPoly.__call__; every weight must be an integer."""
    vals = [(key, poly(r)) for key, poly in entries]
    for key, v in vals:
        if v.denominator != 1:
            raise ValueError(f"weight polynomial at {key} is not integer-valued at {r}")
    return WeightSystem(ambient, tuple((key, int(v)) for key, v in vals))


def choose_r_by_git(chi, fan, h, witnesses, r_max=4000):
    xi = xi_weights(chi, fan, h)
    entries = xi_entries(xi)
    targets = [gieseker_by_subfamilies(w, fan, h).verdict for w in witnesses]
    for r in range(1, r_max + 1):
        if not all(poly(r) > 0 for _, poly in entries):
            continue
        ws = weights_at(xi.ambient, entries, r)
        if all(git_by_points(w, ws, fan).verdict == t for w, t in zip(witnesses, targets)):
            return r, ws
    raise RuntimeError(f"no certified R found in [1, {r_max}]")


def _oracle_fans(corpus, amples):
    fans = [(fan, amples[name]) for name, fan in corpus.items()]
    f2 = hirzebruch(2)
    fans.append((f2, find_ample(f2)))
    for blowups in (1, 2, 3):
        fan = random_smooth_complete_fan(random.Random(blowups), blowups)
        fans.append((fan, find_ample(fan)))
    return fans


def _assert_matches_old_route(fam, fan, h, seed):
    assert mu_test(fam, fan, h) == mu_by_intersections(fam, fan, h)
    assert gieseker_test(fam, fan, h) == gieseker_by_subfamilies(fam, fan, h)
    try:
        w = mu_weights(fam, fan, h)
    except ValueError:
        return
    assert git_test(fam, w, fan) == git_by_points(fam, w, fan)
    assert git_test(fam, w, fan, n_random=6, seed=seed) == git_by_points(fam, w, fan, 6, seed)


def test_meet_table_matches_old_route(corpus, amples):
    verdicts = set()
    for fan, h in _oracle_fans(corpus, amples):
        for rank, count in ((1, 2), (2, 8)):
            for i, fam in enumerate(random_families(fan, rank, count, seed=3001)):
                _assert_matches_old_route(fam, fan, h, seed=i)
                verdicts.add(gieseker_test(fam, fan, h).verdict)
    assert verdicts == {STABLE, SEMISTABLE, UNSTABLE}


def test_meet_table_matches_old_route_rank3(p2):
    from toricsheaves.family import RayFiltration, reflexive_from_filtrations

    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    span = lambda *ix: SubspaceQ.span([e[i] for i in ix], 3)
    full = SubspaceQ.full(3)
    flags = [
        # lines and planes in general position
        [((0, span(0)), (1, span(0, 1)), (2, full)),
         ((0, span(2)), (1, span(1, 2)), (3, full)),
         ((0, span(1)), (2, full))],
        # a plane with a long gap destabilizes: dim(V cap W) = 2 decides
        [((0, span(0, 1)), (4, full)), ((0, span(2)), (1, full)), ((0, full),)],
    ]
    for i, filts in enumerate(flags):
        fam = reflexive_from_filtrations(
            [RayFiltration(j, f) for j, f in enumerate(filts)], p2)
        assert not stability.test_subspaces(fam)[1]
        _assert_matches_old_route(fam, p2, H_P2, seed=5)
        # all margins tie at 0: the witness is the first test subspace
        none = WeightSystem(3, ())
        assert git_test(fam, none, p2, 4, 1) == git_by_points(fam, none, p2, 4, 1)
    assert mu_test(fam, p2, H_P2).witness == span(0, 1)
    # the test set is the samples alone
    o3 = structure_sheaf(p2, rank=3)
    v = git_test(o3, WeightSystem(3, ()), p2, 4, 1)
    assert v == git_by_points(o3, WeightSystem(3, ()), p2, 4, 1)
    assert v.verdict == SEMISTABLE and v.note == "distinguished-set verdict (rank >= 3)"


def test_choose_r_matches_old_route(corpus, amples):
    fan, h = corpus["p1xp1"], amples["p1xp1"]
    fams = random_families(fan, 2, 25, seed=4001)
    fam, other = fams[4], fams[19]
    chi = characteristic_function(fam)
    assert characteristic_function(other) != chi
    # Xi of chi misjudges the witness: reusing it for the witness's target is wrong
    xi = xi_weights(chi, fan, h)
    meets = stability._MeetTable(other, fan)
    reused = stability._gieseker_verdict(meets, stability._gieseker_margins(meets, xi))
    assert reused.verdict != gieseker_test(other, fan, h).verdict
    assert choose_r(chi, fan, h, [fam, other]) == choose_r_by_git(chi, fan, h, [fam, other])
    for f in fams[:6]:
        c = characteristic_function(f)
        assert choose_r(c, fan, h, [f]) == choose_r_by_git(c, fan, h, [f])


def test_git_weight_key_mismatch_rank2(p2):
    fam = rank2_three_lines(p2, lines=LINES)
    for key, message in ((((0,), (0, 0)), "does not match the family's shape"),
                         (((2, 1, 0), (0, 0, 0)), r"^\[0, 1, 2\] is not a cone of the fan$")):
        bad = WeightSystem(2, ((key, 1),))
        with pytest.raises(ValueError, match=message):
            git_by_points(fam, bad, p2)
        with pytest.raises(ValueError, match=message):
            git_test(fam, bad, p2)


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name through every package namespace that binds it."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("toricsheaves") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_stability_work_counts(monkeypatch, f1):
    from toricsheaves import family

    h = find_ample(f1)
    fam = random_families(f1, 2, 25, seed=4001)[14]
    chi = characteristic_function(fam)
    subfamilies = _count_calls(monkeypatch, family, "intersect_with_subspace")
    xis = _count_calls(monkeypatch, stability, "xi_weights")
    # the meet table builds its test set through the helper test_subspaces shares
    tests = _count_calls(monkeypatch, stability, "_tests_from_pool")
    gieseker_test(fam, f1, h)
    assert (len(xis), len(tests)) == (1, 1)
    # the record of fam holds Xi, its margins and the test set
    r, w = choose_r(chi, f1, h, [fam])
    assert r > 1  # several R are tried
    mu_test(fam, f1, h)
    git_test(fam, w, f1)
    git_test(fam, mu_weights(fam, f1, h), f1)
    assert (len(xis), len(tests)) == (1, 1)
    # samples: a table and a test set of its own
    git_test(fam, w, f1, n_random=3)
    assert (len(xis), len(tests)) == (1, 2)
    # on a copy, which no record holds, choose_r computes Xi and a test set once
    del xis[:], tests[:]
    assert choose_r(chi, f1, h, [fresh_copy(fam)]) == (r, w)
    assert (len(xis), len(tests)) == (1, 1)
    assert subfamilies == []


def test_choose_r_builds_one_weight_system(monkeypatch, f1):
    """choose_r checks integrality at every trial R with all weights positive,
    and builds the weight system once, at the R it returns.  This case has
    all weights positive at an R whose verdicts do not match, before R = 7;
    building a system at each such R made 2."""
    h = find_ample(f1)
    fam = random_families(f1, 2, 25, seed=4001)[10]
    chi = characteristic_function(fam)
    built = []
    check = stability.WeightSystem.__post_init__
    monkeypatch.setattr(stability.WeightSystem, "__post_init__",
                        lambda self: built.append(self) or check(self))
    r, w = choose_r(chi, f1, h, [fam])
    assert r == 7
    assert len(built) == 1 and built[0] is w


def generic_line_by_scan(fam, avoid):
    """The generic-line search test_subspaces replaced: skip the lines in
    avoid and keep the first candidate that meets every corner value in the
    generic dimension."""
    avoid_set = set(avoid)
    candidates = [SubspaceQ.span([(0, 1)], 2)]
    candidates += [SubspaceQ.span([(1, t)], 2) for t in range(len(avoid_set) + 2)]
    values = [v for _, g in fam.corners for v in g.values]
    for w in candidates:
        if w not in avoid_set and all(
            v.intersect(w).dim == max(0, v.dim - 1) for v in values
        ):
            return w
    raise AssertionError("no generic line among the candidates")


def test_generic_line_matches_scan(corpus, amples):
    checked = 0
    for fan, _ in _oracle_fans(corpus, amples):
        for fam in random_families(fan, 2, 12, seed=4001):
            ws = distinguished_subspaces(fam)
            assert stability.test_subspaces(fam) == (ws + [generic_line_by_scan(fam, ws)], True)
            checked += 1
    assert checked == 84


def test_f1_results_unchanged_after_p1xp1():
    """P^1 x P^1 and F_1 have four rays each but different intersection
    numbers; using one fan's table first leaves the other's results alone."""
    f1, p1p1 = hirzebruch(1), p1_x_p1()
    assert intersection_table(f1).matrix != intersection_table(p1p1).matrix
    ample = find_ample(f1)
    fams = random_families(f1, 2, 3, seed=4001)

    def f1_results():
        return [
            (chern_character(fam, f1), mu_test(fam, f1, ample), gieseker_test(fam, f1, ample),
             xi_weights(characteristic_function(fam), f1, ample),
             choose_r(characteristic_function(fam), f1, ample, [fam]))
            for fam in fams
        ]

    first = f1_results()
    p1p1_ample = find_ample(p1p1)
    for fam in random_families(p1p1, 2, 3, seed=4001):
        mu_test(fam, p1p1, p1p1_ample)
        choose_r(characteristic_function(fam), p1p1, p1p1_ample, [fam])
    assert f1_results() == first


# --- face weights in closed form against the corner sum they replaced ------------

def xi_by_corners(chi, fan, ample):
    """The face weights as the corner loop computed them: each cone, signed by
    its codimension, adds to each face F and box point lam the alternating
    sum of 2 + q and x.deg(H) over all 2^|F| shifted corners lam + eps, with
    the other coordinates of the cone held at hi + 1.  Returns the ambient
    rank and the (key, Xi) pairs, to compare with an XiWeights' ambient and
    xi_entries."""
    table = intersection_table(fan)
    mat = table.matrix
    deg_ak = [sum(row) for row in mat]
    deg_h = [d.numerator if d.denominator == 1 else d for d in ray_degrees(ample, table)]
    h_td = Fraction(sum(deg_h), 2)
    h_sq = pair(ample, ample, table) / 2
    sums = {}
    for nu in fan.cones():
        grid = restrict_to_face(chi, nu, fan)
        sign = (-1) ** (fan.rank - len(nu))
        cut = [b + 1 for b in grid.hi]
        quad = [(u, v, mat[i][j]) for u, i in enumerate(nu) for v, j in enumerate(nu)]
        for mask in range(1 << len(nu)):
            free = [u for u in range(len(nu)) if mask >> u & 1]
            face = tuple(nu[u] for u in free)
            for lam in itertools.product(*(range(grid.lo[u], cut[u]) for u in free)):
                acc = sums.setdefault((face, lam), [0, 0, 0])
                for eps in itertools.product((0, 1), repeat=len(free)):
                    x = list(cut)
                    for u, a, e in zip(free, lam, eps):
                        x[u] = a + e
                    w = sign * (-1) ** sum(eps)
                    acc[0] += w
                    acc[1] += w * (2 + sum(x[u] * x[v] * m for u, v, m in quad)
                                   - sum(x[u] * deg_ak[j] for u, j in enumerate(nu)))
                    acc[2] += w * sum(x[u] * deg_h[j] for u, j in enumerate(nu))
    entries = ((key, RatPoly.of([Fraction(c0x2, 2), s * h_td - hx, s * h_sq]))
               for key, (s, c0x2, hx) in sums.items())
    items = tuple(sorted(
        ((k, p) for k, p in entries if not poly_is_zero(p)),
        key=lambda kp: (len(kp[0][0]), kp[0]),
    ))
    return chi.rank, items


def _oracle_chis(corpus, amples):
    """(fan, ample, characteristic function) over the oracle fans: ranks 1 and
    2 at three family seeds, each chi also twisted down so its boxes reach
    below 0, at the ample find_ample(fan) and twice it."""
    for fan, h in _oracle_fans(corpus, amples):
        twist = [j % 3 + 1 for j in range(fan.n_rays())]
        for seed in (4001, 3001, 11):
            for rank, count in ((1, 2), (2, 5)):
                for fam in random_families(fan, rank, count, seed=seed):
                    chi = characteristic_function(fam)
                    for c in (chi, tensor_line_bundle(chi, twist)):
                        for ample in (h, tuple(2 * x for x in h)):
                            yield fan, ample, c


def test_xi_weights_match_corner_sum(corpus, amples):
    checked = 0
    lows = set()
    for fan, ample, chi in _oracle_chis(corpus, amples):
        xi = xi_weights(chi, fan, ample)
        assert (xi.ambient, xi_entries(xi)) == xi_by_corners(chi, fan, ample)
        lows.update(x < 0 for _, g in chi.corners for x in g.lo)
        checked += 1
    assert checked == 7 * 3 * 7 * 2 * 2
    assert lows == {True, False}


def test_xi_face_bounds_match_restrict_to_face(corpus, amples, monkeypatch):
    # xi_weights reads each cone's bounds off the grid restrict_to_face picks:
    # the first maximal cone the cone index lists for the cone
    from toricsheaves import family, fan as fan_module
    from toricsheaves.family import _Faces
    from test_fan import index_by_scan

    for fan, h in _oracle_fans(corpus, amples):
        for fam in random_families(fan, 2, 4, seed=157):
            chi = tensor_line_bundle(characteristic_function(fam),
                                     [j % 3 - 1 for j in range(fan.n_rays())])
            for nu in fan.cones():
                grid, positions = _Faces(chi, fan).source(nu)
                face = restrict_to_face(chi, nu, fan)
                assert tuple(grid.lo[p] for p in positions) == face.lo
                assert tuple(grid.hi[p] for p in positions) == face.hi
            xi = xi_weights(chi, fan, h)
            with monkeypatch.context() as m:  # the index as the scans build it
                m.setattr(family, "cone_index", index_by_scan)
                m.setattr(fan_module, "cone_index", index_by_scan)
                assert xi_weights(chi, fan, h) == xi


def test_xi_interior_weights_share_one_polynomial(corpus, amples):
    # every interior weight of a maximal cone is V_i.V_j = 1 on a smooth fan
    fan, h = corpus["f1"], amples["f1"]
    chi = characteristic_function(random_families(fan, 2, 1, seed=11)[0])
    xi = xi_weights(chi, fan, h)
    interior = [i for (cone, _), i in zip(xi.keys, xi.index) if len(cone) == 2]
    assert len(interior) > len(fan.max_cones)
    assert set(interior) == {interior[0]}
    one = xi.polys[interior[0]]
    assert one == (xi.denominator,) + (0,) * (len(one) - 1)


def closure_of_corner_values(fam):
    """distinguished_subspaces with the pairwise closure run in every rank
    (without its CLOSURE_CAP check, which rank 2 never reaches)."""
    m = fam.rank
    pool = {v for _, grid in fam.corners for v in grid.values if 0 < v.dim < m}
    todo = sorted(pool, key=stability._subspace_key)
    done = []
    while todo:
        a = todo.pop()
        for b in done:
            for c in (a.intersect(b), a.sum(b)):
                if 0 < c.dim < m and c not in pool:
                    pool.add(c)
                    todo.append(c)
        done.append(a)
    return sorted(pool, key=stability._subspace_key)


def test_distinguished_rank2_matches_closure(corpus, amples):
    checked = 0
    for fan, _ in _oracle_fans(corpus, amples):
        for seed in (4001, 3001, 11):
            for rank, count in ((1, 2), (2, 8)):
                for fam in random_families(fan, rank, count, seed=seed):
                    assert distinguished_subspaces(fam) == closure_of_corner_values(fam)
                    checked += 1
    assert checked == 7 * 3 * 10


# --- the integer margins against the Fraction route they replaced -----------------
#
# The old route, kept as the oracle: Gieseker margins with Fraction
# coefficients, one RatPoly per test subspace classified by classify_for_large_t, and
# a choose_r that evaluates every Xi and margin polynomial at each trial R
# with RatPoly.__call__.

def gieseker_margins_by_fractions(meets, xi):
    weighted = [(meets.slot(key), poly) for key, poly in xi_entries(xi)]
    width = max((poly_degree(poly) for _, poly in weighted), default=-1) + 1
    per_coeff = [meets.dots((s, poly.coeff(i)) for s, poly in weighted) for i in range(width)]
    m = meets.rank
    return [
        (w, RatPoly.of([Fraction(lhs[k], w.dim) - Fraction(total, m) for lhs, total in per_coeff]))
        for k, w in enumerate(meets.tests)
    ]


def gieseker_by_fractions(fam, fan, h):
    xi = xi_weights(characteristic_function(fam), fan, h)
    meets = stability._MeetTable(fam, fan)
    return classify_for_large_t(gieseker_margins_by_fractions(meets, xi), meets.exhaustive,
                                None if meets.exhaustive else PARTIAL_NOTE)


def choose_r_by_fractions(chi, fan, h, witnesses):
    xi = xi_weights(chi, fan, h)
    checks = []
    for w in witnesses:
        meets = stability._MeetTable(w, fan)
        checks.append((w.rank, gieseker_margins_by_fractions(meets, xi),
                       gieseker_by_fractions(w, fan, h).verdict))
    entries = xi_entries(xi)
    for r in range(1, stability.R_MAX + 1):
        if any(poly(r) <= 0 for _, poly in entries):
            continue
        ws = weights_at(xi.ambient, entries, r)
        verdicts = []
        for m, polys, _ in checks:
            if m != ws.ambient:
                raise ValueError(f"weight system ambient {ws.ambient} != family rank {m}")
            margins = [(w, p(r)) for w, p in polys]
            verdicts.append(stability._classify("git", margins, True, None).verdict)
        if verdicts == [t for _, _, t in checks]:
            return r, ws
    raise RuntimeError(f"no certified R found in [1, {stability.R_MAX}]")


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, str(e)


def test_integer_margins_match_fraction_route(corpus, amples, p2, p1p1, monkeypatch):
    # both routes read R_MAX; a smaller one keeps the failed searches short
    monkeypatch.setattr(stability, "R_MAX", 200)
    cases = _oracle_fans(corpus, amples)
    # rational polarizations, with D = 8 and D = 3
    cases += [(p2, (Fraction(1, 2), 0, 0)), (p1p1, (Fraction(1, 3), 1, 0, 0))]
    scales, results, errors = set(), 0, set()
    for fan, h in cases:
        fams = random_families(fan, 2, 6, seed=3001) + random_families(fan, 1, 1, seed=3001)
        for i, fam in enumerate(fams):
            assert gieseker_test(fam, fan, h) == gieseker_by_fractions(fam, fan, h)
            chi = characteristic_function(fam)
            scales.add(xi_weights(chi, fan, h).denominator)
            witnesses = [fam] if i % 3 else [fam, fams[i - 1]]  # a witness with another chi
            got = _outcome(choose_r, chi, fan, h, witnesses)
            assert got == _outcome(choose_r_by_fractions, chi, fan, h, witnesses)
            if isinstance(got[1], WeightSystem):
                results += 1
                assert git_test(fam, got[1], fan) == git_by_points(fam, got[1], fan)
            else:
                errors.add(" ".join(got[1].split()[:2]))
    assert {2, 3, 8} <= scales
    assert results >= 25
    assert errors == {"weight polynomial", "weight system", "no certified"}


def test_integer_margins_match_fraction_route_rank3(p2, p1p1):
    # margins over test subspaces of dimensions 1 and 2 have different denominators
    from test_family import random_flag_family

    witness_dims = set()
    for fan in (p2, p1p1):
        h = find_ample(fan)
        rng = random.Random(151)
        for _ in range(11):
            fam = random_flag_family(fan, 3, rng)
            got = _outcome(gieseker_test, fam, fan, h)
            assert got == _outcome(gieseker_by_fractions, fam, fan, h)
            if isinstance(got, stability.StabilityVerdict) and got.witness is not None:
                witness_dims.add(got.witness.dim)
    assert witness_dims == {1, 2}


def test_gieseker_worst_margin_is_largest_for_large_t(p1p1):
    # stable, with margins 7/2 - t and -9/2: the larger one for t >> 0 is -9/2
    fam = random_families(p1p1, 2, 10, seed=0)[2]
    v = gieseker_test(fam, p1p1, find_ample(p1p1))
    assert (v.verdict, v.margin) == (STABLE, RatPoly.of([Fraction(-9, 2)]))


def test_gieseker_reported_margin_against_compare_for_large_t(corpus, amples):
    below_top_degree = 0
    for fan, h in _oracle_fans(corpus, amples):
        for seed in range(3):
            for fam in random_families(fan, 2, 10, seed=seed):
                v = gieseker_test(fam, fan, h)
                xi = xi_weights(characteristic_function(fam), fan, h)
                margins = gieseker_margins_by_fractions(stability._MeetTable(fam, fan), xi)
                assert all(compare_for_large_t(v.margin, mg) >= 0 for _, mg in margins)
                first = next(w for w, mg in margins if mg == v.margin)
                assert v.witness == (None if v.verdict == STABLE else first)
                below_top_degree += poly_degree(v.margin) < max(poly_degree(mg) for _, mg in margins)
    assert below_top_degree > 0


def _count_fraction_arithmetic(monkeypatch):
    """Count every Fraction +, -, * and / while the test runs."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        def counted(*args, _orig=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


def test_integer_margin_work_counts(monkeypatch, f1, p2, p1p1):
    # the polarization, the face weights, the margins and the R search are
    # integer work: Fractions are only built, for the reported margin, and
    # never added, multiplied or divided; for find_ample's H and for the
    # rational H of test_integer_margins_match_fraction_route
    monkeypatch.setattr(stability, "R_MAX", 200)
    cases = [(f1, find_ample(f1), random_families(f1, 2, 25, seed=4001)[14:15])]
    for fan, h in ((p2, (Fraction(1, 2), 0, 0)), (p1p1, (Fraction(1, 3), 1, 0, 0))):
        cases.append((fan, h, random_families(fan, 2, 6, seed=3001)
                      + random_families(fan, 1, 1, seed=3001)))
    evaluations, searched, found = [], [], set()
    call = RatPoly.__call__
    monkeypatch.setattr(RatPoly, "__call__", lambda p, t: evaluations.append(t) or call(p, t))
    for fan, h, fams in cases:
        for fam in fams:
            chi = characteristic_function(fam)
            gieseker_test(fam, fan, h)  # fills the fan's intersection table
            # copies, which no record holds, so each call does all its work
            copies = fresh_copy(fam), fresh_copy(fam)
            with monkeypatch.context() as m:
                ops = _count_fraction_arithmetic(m)
                xi = xi_weights(chi, fan, h)
                gieseker_test(copies[0], fan, h)
                got = _outcome(choose_r, chi, fan, h, [copies[1]])
                meets = stability._MeetTable(fam, fan)
                stability._gieseker_verdict(meets, stability._gieseker_margins(meets, xi))
            assert ops == []
            if isinstance(got[1], WeightSystem):
                found.add(h)
                searched.append(got[0])
    assert evaluations == []
    # find_ample's H and the rational H on P1xP1 certify some R; on P2 every
    # search ends at a weight that is not integer-valued
    assert found == {find_ample(f1), (Fraction(1, 3), 1, 0, 0)}
    assert max(searched) > 1  # several R are tried


def test_xi_weights_build_no_fraction(monkeypatch, corpus, amples):
    # with an integral polarization the face weights are integers throughout:
    # once the fan's intersection table is built, xi_weights builds no Fraction
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    calls = 0
    for name, fan in corpus.items():
        fams = random_families(fan, 2, 4, seed=4001) + random_families(fan, 1, 1, seed=4001)
        chis = [characteristic_function(fam) for fam in fams]
        xi_weights(chis[0], fan, amples[name])  # builds the intersection table
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counted)
            for chi in chis:
                xi_weights(chi, fan, amples[name])
                calls += 1
    assert calls == 15
    assert built == []


def scaled_by_entries(entries):
    """(D, D Xi, index) read off (key, Xi) pairs: D the lcm of every
    denominator, each distinct Xi once, low degree first and padded to one
    width, and for each key the position of its Xi."""
    distinct = {}
    index = tuple(distinct.setdefault(poly, len(distinct)) for _, poly in entries)
    d = math.lcm(*(c.denominator for poly in distinct for c in poly.coeffs))
    width = max((len(poly.coeffs) for poly in distinct), default=0)
    polys = tuple(
        tuple(c.numerator * (d // c.denominator) for c in poly.coeffs)
        + (0,) * (width - len(poly.coeffs))
        for poly in distinct
    )
    return d, polys, index


def test_xi_scaled_matches_entries(corpus, amples, p2, p1p1):
    # xi_weights builds D Xi in integers: Xi, read off it, against the corner
    # sum, for rational polarizations too, and D Xi against the form
    # scaled_by_entries reads off those Xi, so D is their least common
    # denominator and each distinct polynomial is kept once
    cases = list(_oracle_chis(corpus, amples))[::7]
    rational = [(p2, (Fraction(1, 2), 0, 0)), (p2, (Fraction(3, 7), Fraction(1, 5), 0)),
                (p1p1, (Fraction(1, 3), 1, 0, 0)), (p1p1, ("2/9", 1, "1/6", 0))]
    for fan, h in rational:
        for fam in random_families(fan, 2, 5, seed=61) + random_families(fan, 1, 1, seed=61):
            chi = characteristic_function(fam)
            cases += [(fan, h, chi), (fan, h, tensor_line_bundle(chi, [-2] * fan.n_rays()))]
    scales = set()
    for fan, ample, chi in cases:
        xi = xi_weights(chi, fan, ample)
        assert (xi.ambient, xi_entries(xi)) == xi_by_corners(chi, fan, divisor(ample, fan))
        assert scaled_by_entries(xi_entries(xi)) == (xi.denominator, xi.polys, xi.index)
        scales.add(xi.denominator)
    assert len(cases) > 100
    # D is 1 or 2 for an integral H, and up to 2 e^2 = 2450 for e = 35
    assert {1, 2, 3, 8, 18, 1225} <= scales


# --- faces read in place against the face grids they replaced ---------------------

class FaceGridMeets(stability._MeetTable):
    """The meet table as it read faces before: each face a grid built by
    restrict_to_face, once per cone, and every value read off that grid.  The
    grid's coordinates are the cone's rays sorted, so lam is read in that
    order by a stable sort: a repeated index reads its last coordinate."""

    def face(self, cone):
        grid = self._faces.get(cone)
        if grid is None:
            grid = self._faces[cone] = restrict_to_face(self.fam, cone, self.fan)
        return grid

    def value(self, key):
        cone, lam = key
        grid = self.face(cone)
        if len(lam) != grid.ndim():
            raise ValueError(f"weight key {key} does not match the family's shape")
        return grid.value([lam[k] for k in sorted(range(len(cone)), key=cone.__getitem__)])

    def slot(self, key):
        return self.slot_of(self.value(key))


def slotted(meets, s):
    """The value in slot s of a meet table, None for no slot."""
    return None if s is None else meets.values[s]


def flag_data_by_grids(meets):
    """The flag data read off the face grids of a FaceGridMeets."""
    m = meets.rank
    out = []
    for j in range(meets.fan.n_rays()):
        grid = meets.face((j,))
        gaps, flags, pos, prev = [0] * (m - 1), [None] * (m - 1), [None] * (m - 1), 0
        for lam in range(grid.lo[0], grid.hi[0] + 1):
            v = grid.value((lam,))
            if v.dim < prev:
                raise ValueError(f"ray {j}: filtration dimensions decrease at {lam}")
            prev = v.dim
            if 0 < v.dim < m:
                gaps[v.dim - 1] += 1
                flags[v.dim - 1] = v
                if pos[v.dim - 1] is None:
                    pos[v.dim - 1] = lam
        if prev != m:
            raise ValueError(f"ray {j}: filtration does not saturate to the full space")
        out.append(stability.RayFlags(j, tuple(gaps), tuple(flags), tuple(pos)))
    return stability.FlagData(m, tuple(out))


def _face_keys(fam, fan):
    """Every (cone, lam) of every face box, one step below lo and one above
    hi; each 2-cone also unsorted and with a repeated index."""
    keys = []
    for nu in fan.cones():
        grid = restrict_to_face(fam, nu, fan)
        box = list(itertools.product(*(range(a - 1, b + 2) for a, b in zip(grid.lo, grid.hi))))
        keys += [(nu, lam) for lam in box]
        if len(nu) == 2:
            keys += [(nu[::-1], lam) for lam in box]
            keys += [((nu[0], nu[0]), lam) for lam in box] + [((nu[1], nu[1]), lam) for lam in box]
    return keys


def below(face, lam):
    """Whether lam lies below the box of a face read in place."""
    return any(x < a for x, (a, _, _) in zip(lam, face.axes))


def test_faces_read_in_place_match_face_grids(corpus, amples, monkeypatch):
    from toricsheaves import family
    from test_family import random_oracle_families

    h_of = {fan: h for fan, h in _oracle_fans(corpus, amples)}
    cases = random_oracle_families(random.Random(167))[::2]
    for fan in h_of:
        fams = random_families(fan, 2, 3, seed=173)
        cases += [(fan, f) for f in fams]
        # a family that is missing a cone: its faces there read as zero
        cases.append((fan, replace(fams[0], corners=fams[0].corners[1:])))
    seen = set()
    for fan, fam in cases:
        h = h_of[fan]
        new, old = stability._MeetTable(fam, fan), FaceGridMeets(fam, fan)
        for key in _face_keys(fam, fan):
            v = new.face(key[0]).value(key[1])
            assert v == old.value(key)
            # the scan and the key order number the slots differently
            assert slotted(new, new.slot(key)) == slotted(old, old.slot(key))
            seen.add("below" if below(new.face(key[0]), key[1]) else "value")
        assert sorted(new.values, key=stability._subspace_key) == \
            sorted(old.values, key=stability._subspace_key)
        assert _outcome(stability._flag_data, new) == _outcome(flag_data_by_grids, old)
        keys = _face_keys(fam, fan)[::3]
        unit = WeightSystem(fam.rank, tuple((key, 1 + k % 3) for k, key in enumerate(keys)))
        weights = [unit] + [w for w in [_outcome(mu_weights, fam, fan, h)]
                            if isinstance(w, WeightSystem)]

        def verdicts(f):
            return [_outcome(mu_test, f, fan, h), _outcome(gieseker_test, f, fan, h)] + [
                _outcome(git_test, f, w, fan, 3, 5) for w in weights]

        built = _count_calls(monkeypatch, family, "restrict_to_face")
        got = verdicts(fam)
        assert built == []
        monkeypatch.undo()
        # on a copy, whose record builds its table with the patched steps
        with monkeypatch.context() as m:
            m.setattr(stability, "_MeetTable", FaceGridMeets)
            m.setattr(stability, "_flag_data", flag_data_by_grids)
            assert verdicts(fresh_copy(fam)) == got
        seen.update(type(g).__name__ if isinstance(g, stability.StabilityVerdict) else g[1][:20]
                    for g in got)
        seen.add(f"rank {fam.rank}")
        seen.add(f"{len(fam.corners)} of {len(fan.max_cones)} cones")
    assert {"below", "value", "StabilityVerdict", "rank 1", "rank 2", "rank 3",
            "invalid family: tors", "characteristic funct"} <= seen
    assert {f"{len(fan.max_cones) - 1} of {len(fan.max_cones)} cones" for fan in h_of} <= seen


def test_mu_test_asks_reflexivity_only_of_stable_verdicts(corpus, amples, monkeypatch):
    from toricsheaves import family
    from test_family import broken_variants

    fans = _oracle_fans(corpus, amples)
    axis_meets = _count_calls(monkeypatch, family, "_corners_are_axis_meets")
    verdicts = {}
    for fan, h in fans:
        for fam in random_families(fan, 2, 6, seed=181):
            del axis_meets[:]
            v = mu_test(fam, fan, h)
            assert len(axis_meets) == (v.verdict == STABLE)
            verdicts.setdefault(v.verdict, v)
            # the record keeps the answer: mu_weights asks it at most once per family
            assert mu_test(fam, fan, h) == v
            w = _outcome(mu_weights, fam, fan, h)
            _outcome(mu_weights, fam, fan, h)
            assert len(axis_meets) == (v.verdict == STABLE or isinstance(w, WeightSystem))
    assert set(verdicts) == {STABLE, SEMISTABLE, UNSTABLE}
    # an invalid family is refused, by both slope functions and before anything
    # else, whatever its verdict would be
    would_be = set()
    rng = random.Random(191)
    for fan, h in fans:
        for fam in random_families(fan, 2, 4, seed=193):
            for bad in broken_variants(fam, rng):
                if not family.validate_torsion_free(bad, fan):
                    continue
                # on every call: a failed validation is not kept
                for f in (mu_test, mu_weights, mu_test):
                    with pytest.raises(ValueError, match="^invalid family: "):
                        f(bad, fan, h)
                # a copy, which no record holds, reads the patched steps
                with monkeypatch.context() as m:
                    m.setattr(stability, "require_torsion_free", lambda fam, fan: None)
                    m.setattr(stability, "_corners_are_axis_meets", lambda fam: True)
                    v = _outcome(mu_test, fresh_copy(bad), fan, h)
                if isinstance(v, stability.StabilityVerdict):
                    would_be.add(v.verdict)
    assert would_be == {STABLE, SEMISTABLE, UNSTABLE}


# --- the meet table's scan against the per-key route it replaced -------------------

def test_meet_table_scan_matches_slot_of_route():
    """Each key's slot by index arithmetic over the scanned slot arrays against
    the route that hashed its face value, slot_of(face.value(lam)), in the
    same table; and the test set from the scanned pool against
    test_subspaces plus the samples."""
    from test_chern import bracket_oracle_families

    seen = set()
    for k, (fan, fam) in enumerate(bracket_oracle_families()):
        samples = random_subspaces(fam.rank, 2, random.Random(k))
        meets = stability._MeetTable(fam, fan, samples)
        for key in _face_keys(fam, fan):
            v = meets.face(key[0]).value(key[1])
            assert meets.slot(key) == meets.slot_of(v)
            seen.add("below" if below(meets.face(key[0]), key[1]) else
                     "zero or full" if meets.slot(key) is None else "proper")
        tests = _outcome(stability.test_subspaces, fam)
        if isinstance(tests[0], str):  # the rank >= 3 closure outgrew CLOSURE_CAP
            assert _outcome(lambda: meets.tests) == tests
            seen.add("closure refused")
            continue
        assert (meets.tests, meets.exhaustive) == (tests[0] + samples, tests[1])
        # the scan slots exactly the proper corner values
        assert set(meets.values) == stability._proper_values(fam)
        seen.update({fam.kind, f"rank {fam.rank}"})
    assert {"below", "zero or full", "proper", "pure", "torsion-free", "reflexive",
            "rank 1", "rank 2", "rank 3", "closure refused"} <= seen


def test_unsorted_weight_keys_read_in_their_own_order(p2):
    """A weight key's lam is read in the key's own ray order: the weights of
    choose_r with every 2-cone key written with its rays reversed give the
    same GIT verdicts and margins, and a ray key ((j,), (a,)) written as
    ((j, j), (b, a)) with b above the box reads a, the last of its
    coordinates."""
    h = find_ample(p2)
    for fam in random_families(p2, 2, 40, seed=7):
        _, w = choose_r(characteristic_function(fam), p2, h, [fam])
        flipped = WeightSystem(w.ambient, tuple(
            ((cone[::-1], lam[::-1]) if len(cone) == 2 else (cone, lam), x)
            for (cone, lam), x in w.items()))
        doubled = WeightSystem(w.ambient, tuple(
            ((cone * 2, (lam[0] + 7, lam[0])) if len(cone) == 1 else (cone, lam), x)
            for (cone, lam), x in w.items()))
        want = git_test(fam, w, p2)
        assert git_test(fam, flipped, p2) == want
        assert git_test(fam, doubled, p2) == want


def test_cone_index_and_validation_work_counts(monkeypatch, corpus, amples):
    """Across the six stability calls on 20 families, each fan's cone index is
    built once, and the torsion-free validator runs once per family: mu_test
    validates, and mu_weights reads the record."""
    import weakref

    from toricsheaves import family, fan as fanmod

    monkeypatch.setattr(fanmod, "_INDEXES", weakref.WeakKeyDictionary())
    built, index = [], fanmod.ConeIndex
    monkeypatch.setattr(fanmod, "ConeIndex", lambda *args: built.append(1) or index(*args))
    validated = _count_calls(monkeypatch, family, "validate_torsion_free")
    fams = [(fan, amples[name], fam) for name, fan in corpus.items()
            for fam in random_families(fan, 2, 7, seed=4001)][:20]
    for fan, h, fam in fams:
        mu_test(fam, fan, h)
        try:
            w = mu_weights(fam, fan, h)
        except ValueError:  # every flag gap is zero
            pass
        else:
            git_test(fam, w, fan)
        gieseker_test(fam, fan, h)
        _, w = choose_r(characteristic_function(fam), fan, h, [fam])
        git_test(fam, w, fan)
    assert len(built) == len(corpus)
    assert len(validated) == len(fams)


# --- the record of the last (family, fan) pair -----------------------------------

def _held():
    """The record stability holds in this thread, or None."""
    return getattr(stability._LAST, "record", None)


def _holds(f, fn):
    """Whether the record stability holds is that of the family f on the fan fn."""
    last = _held()
    return last is not None and last.fam is f and last.fan is fn


def test_record_meet_tables_match_fresh_tables(monkeypatch):
    """git_test on the meet table of a family's record against the same call
    on a fresh copy of the family, whose new record builds its own table:
    the weights of mu_weights and of choose_r (with one witness and with
    two), on families of rank 1-3 over P^2, P^1xP^1, F_1, F_2 and 1-3
    blow-ups, give the same verdict, margin, witness, exhaustive flag and
    note.  A call builds a table unless the record it finds is that of its
    very family and fan, and a repeated call builds none; samples get a
    table of their own, which is not kept, an equal copy of the family and
    an equal rebuilt fan each get a record of their own, and malformed keys
    raise the same error either way."""
    from test_family import random_oracle_families
    from toricsheaves.fan import fan_from_json, fan_to_json

    built = _count_calls(monkeypatch, stability, "_MeetTable")
    bad_keys = [(((0,), (0, 0)), "does not match the family's shape"),
                (((2, 1, 0), (0, 0, 0)), r"^\[0, 1, 2\] is not a cone of the fan$")]
    seen = set()
    cases = random_oracle_families(random.Random(191))
    amples, rebuilt = {}, {}
    for k, (fan, fam) in enumerate(cases):
        if k // 2 % 3:
            continue  # the first pair of each rank on each fan
        if isinstance(_outcome(stability.test_subspaces, fam)[0], str):
            if "closure refused" in seen:
                continue  # one family whose rank-3 closure outgrows CLOSURE_CAP serves
            seen.add("closure refused")
        h = amples.setdefault(fan, find_ample(fan))
        fan_copy = rebuilt.setdefault(fan, fan_from_json(fan_to_json(fan)))
        assert fan_copy == fan and fan_copy is not fan
        # the families come in three pairs of each rank on each fan: a
        # reflexive one, then a cut of it, which gets the reflexive one as a
        # second witness
        witnesses = [fam] + ([cases[k - 1][1]] if k % 2 else [])
        chi = characteristic_function(fam)
        systems = [("mu", [fam], _outcome(mu_weights, fam, fan, h)),
                   ("R", witnesses, _outcome(choose_r, chi, fan, h, witnesses)[-1])]
        for source, targets, w in systems:
            if not isinstance(w, WeightSystem):
                seen.add(f"{source} refused")
                continue
            for target in targets:
                copy = fresh_copy(target)
                assert copy == target and copy is not target
                for f, fn, n_random in ((target, fan, 0), (target, fan, 4),
                                        (copy, fan, 0), (target, fan_copy, 0)):
                    # rank 1 has no proper subspace to sample
                    samples = n_random and fam.rank > 1
                    for _ in range(2):
                        last, held = _held(), _holds(f, fn)
                        del built[:]
                        got = _outcome(git_test, f, w, fn, n_random, k)
                        assert len(built) == (0 if held and not samples else 1)
                        # the record is the call's own, unless samples were drawn
                        assert _held() is last if samples else _holds(f, fn)
                    assert got == _outcome(git_test, fresh_copy(f), w, fn, n_random, k)
                    if isinstance(got, stability.StabilityVerdict):
                        seen.update({got.verdict, got.note, f"{source} rank {fam.rank}"})
                    else:
                        seen.add(got[1][:20])
                for key, message in bad_keys:
                    bad = WeightSystem(w.ambient, w.entries[:1] + ((key, 1),) + w.entries[1:])
                    for f in (target, target, fresh_copy(target)):
                        with pytest.raises(ValueError, match=message):
                            git_test(f, bad, fan)
            seen.add(f"{source} with {len(targets)} witnesses")
    assert {STABLE, SEMISTABLE, UNSTABLE, None, "distinguished-set verdict (rank >= 3)",
            "closure refused", "the rank >= 3 test s",
            "mu rank 2", "mu rank 3", "R rank 1", "R rank 2", "R rank 3",
            "mu with 1 witnesses", "R with 1 witnesses", "R with 2 witnesses"} <= seen


def _certify(fam, fan, h, other, seed, take):
    """The stability calls of one family's certification, one outcome per
    call, each on take(f) for every family f it is given: mu_test,
    mu_weights and git_test with its weights, then choose_r with fam and
    with fam and other as witnesses, each after gieseker_test on its last
    witness and followed by git_test at its weights, without samples and
    with them."""
    chi = characteristic_function(fam)
    yield _outcome(mu_test, take(fam), fan, h)
    w = _outcome(mu_weights, take(fam), fan, h)
    yield w
    if isinstance(w, WeightSystem):
        yield _outcome(git_test, take(fam), w, fan)
    for witnesses in ([fam], [fam, other]):
        # the record then holds the last witness, with its Xi at h
        yield _outcome(gieseker_test, take(witnesses[-1]), fan, h)
        got = _outcome(choose_r, chi, fan, h, [take(f) for f in witnesses])
        yield got
        if isinstance(got[-1], WeightSystem):
            yield _outcome(git_test, take(fam), got[-1], fan)
            yield _outcome(git_test, take(fam), got[-1], fan, 4, seed)


def test_record_matches_fresh_copies(monkeypatch):
    """Every verdict, margin, witness, note, exhaustive flag, weight system, R
    and error of the calls of _certify, made in turn on the same objects, so
    that each reads the record the calls before it filled, equals that of
    the same call on a fresh copy of each family, which no record holds.
    The families: ranks 1-3 on P^2, P^1xP^1, F_1, F_2 and a blow-up, invalid
    ones, rank 0 and a pure one; each is certified on its fan, and every
    third once more on an equal rebuilt fan, and the certifications of two
    families A and B also run call by call in the order A, B, A."""
    from conftest import slab_family
    from test_family import broken_variants, oracle_fans, random_oracle_families
    from toricsheaves.fan import fan_from_json, fan_to_json

    # both runs read R_MAX; a smaller one keeps the failed searches short
    monkeypatch.setattr(stability, "R_MAX", 200)
    fans = oracle_fans()[:5]
    rng = random.Random(197)
    # the first pair of each rank on each fan; rank 3, whose test sets are
    # slow to close, on P^2 alone
    cases = [(fan, fam) for k, (fan, fam) in enumerate(random_oracle_families(rng))
             if fan in fans and k % 6 < 2 and (fam.rank < 3 or fan == fans[0])]
    cases += [(fan, bad) for fan, fam in cases[1::7] for bad in broken_variants(fam, rng)]
    cases += [(fans[0], structure_sheaf(fans[0], rank=0)), (fans[0], slab_family(fans[0], 0))]
    amples = {fan: find_ample(fan) for fan in fans}
    rebuilt = {fan: fan_from_json(fan_to_json(fan)) for fan in fans}
    seen = set()

    def run(take):
        out = []
        for k, (fan, fam) in enumerate(cases):
            other = cases[k - 1][1]
            for fn in (fan, rebuilt[fan])[:1 + (k % 3 == 0)]:
                out += _certify(fam, fn, amples[fan], other, k, take)
        a, b = cases[3], cases[8]
        runs = [_certify(fam, fan, amples[fan], other[1], 5, take)
                for (fan, fam), other in ((a, b), (b, a), (a, b))]
        out += itertools.chain.from_iterable(itertools.zip_longest(*runs))
        return out

    shared, fresh = run(lambda f: f), run(fresh_copy)
    assert len(shared) == len(fresh) > 300
    for got, want in zip(shared, fresh):
        assert got == want
        if isinstance(got, stability.StabilityVerdict):
            seen.update({f"{got.test} {got.verdict}", got.note})
        elif isinstance(got, tuple) and isinstance(got[-1], str):
            seen.add(" ".join(got[-1].split()[:2]))
        else:
            seen.add(type(got[-1] if isinstance(got, tuple) else got).__name__)
    assert {"mu stable", "mu strictly-semistable", "mu unstable", "git stable", "git unstable",
            "gieseker stable", "gieseker strictly-semistable", "gieseker unstable",
            PARTIAL_NOTE, "WeightSystem", "invalid family:", "stability is", "stability tests",
            "weight system", "no certified"} <= seen


def test_record_keeps_no_failure(p2):
    """A call that is refused stores nothing: the same refusal comes again,
    with the same message, on every call on the same family, before and
    after calls that succeed.  So do rank 0, a polarization that is not
    ample, an invalid family (which the slope calls validate) and a rank-3
    test set that outgrows CLOSURE_CAP."""
    from test_family import broken_variants, random_oracle_families

    fam = random_families(p2, 2, 1, seed=223)[0]
    bad = next(broken_variants(fam, random.Random(227)))
    closure = next((fan, f) for fan, f in random_oracle_families(random.Random(191))
                   if isinstance(_outcome(stability.test_subspaces, f)[0], str))
    every = (mu_test, mu_weights, mu_test, gieseker_test, gieseker_test)
    tested = (mu_test, gieseker_test, mu_test, gieseker_test)  # the calls that read the test set
    h3 = find_ample(closure[0])
    refusals = [  # (fan, family, H, message, the refused calls, a call between them that passes)
        (p2, structure_sheaf(p2, rank=0), H_P2, "stability is defined for rank >= 1", every, None),
        (p2, fam, (1, -1, 0), "polarization is not ample", every,
         lambda: gieseker_test(fam, p2, H_P2) and mu_weights(fam, p2, H_P2)),
        (p2, bad, H_P2, "invalid family: ", every[:3], None),
        (*closure, h3, "the rank >= 3 test set does not close", tested,
         lambda: mu_weights(closure[1], closure[0], h3)),
    ]
    for fan, f, h, message, calls, between in refusals:
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(f, fan, h)
            if between:
                assert between()
        assert _holds(f, fan)


def test_record_does_not_outlive_the_next_family(p2):
    """The record holds the last family's meet table, and a call on another
    family drops it: once collected, neither the record nor its table is
    left, although the first family and its weight systems are.  A weight
    system is just its ambient and its entries."""
    import dataclasses
    import gc
    import weakref

    a, b = random_families(p2, 2, 2, seed=211)
    weights = [mu_weights(a, p2, H_P2), choose_r(characteristic_function(a), p2, H_P2, [a])[1]]
    assert [f.name for f in dataclasses.fields(WeightSystem)] == ["ambient", "entries"]
    record = weakref.ref(_held())
    table = weakref.ref(_held().meets)
    assert record().fam is a and git_test(a, weights[1], p2).test == "git"
    mu_test(b, p2, H_P2)
    gc.collect()
    assert record() is None and table() is None
    assert _holds(b, p2) and len(weights) == 2


def test_threads_hold_records_of_their_own(p2, p1p1):
    """Each thread holds a record of its own, so threads share no table: two
    threads that certify the same family objects at once, switching often,
    each get the results of a run in one thread, and the record of the
    thread that started them is left as it was."""
    import threading

    jobs = [(fam, fan, find_ample(fan)) for fan in (p2, p1p1)
            for fam in random_families(fan, 2, 5, seed=229)]

    def certify_all():
        return [list(_certify(fam, fan, h, fam, 0, lambda f: f)) for fam, fan, h in jobs]

    want = certify_all()
    mu_test(jobs[0][0], p2, jobs[0][2])
    mine = _held()
    got = []
    threads = [threading.Thread(target=lambda: got.append(certify_all())) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want, want]
    assert _held() is mine


def test_stability_calls_share_one_table_work_counts(corpus, amples, monkeypatch):
    """The six stability calls per family build one meet table, its flag
    data and Xi, validate once and ask reflexivity once: each call reads the
    record of the family that the first call fills."""
    from toricsheaves import family

    steps = ((stability, "_MeetTable"), (stability, "_flag_data"), (stability, "xi_weights"),
             (family, "validate_torsion_free"), (family, "_corners_are_axis_meets"))
    counts = {name: _count_calls(monkeypatch, module, name) for module, name in steps}
    fams = [(fan, amples[name], fam) for name, fan in corpus.items()
            for fam in random_families(fan, 2, 4, seed=4001)]
    for fan, h, fam in fams:
        mu_test(fam, fan, h)
        git_test(fam, mu_weights(fam, fan, h), fan)
        gieseker_test(fam, fan, h)
        git_test(fam, choose_r(characteristic_function(fam), fan, h, [fam])[1], fan)
        assert {name: len(calls) for name, calls in counts.items()} == dict.fromkeys(counts, 1)
        for calls in counts.values():
            del calls[:]


def test_meet_table_faces_match_face_source(monkeypatch):
    """A meet table looks the fan's cone index up once and reads each face
    from the grid of the lowest-index maximal cone that holds it, at the
    positions of the cone's rays: every cone as listed, reversed and with a
    repeated ray, each value against the face grid cut from that grid; a
    cone that no grid contains reads as the zero face."""
    from test_chern import bracket_oracle_families
    from test_fan import face_source_by_scan
    from toricsheaves import family

    seen = set()
    for fan, fam in bracket_oracle_families()[::2]:
        cones = [c for nu in fan.cones() for c in {nu, nu[::-1], nu[:1] * 2, nu[-1:] * 2}]
        with monkeypatch.context() as m:
            lookups = _count_calls(m, family, "cone_index")
            meets = stability._MeetTable(fam, fan)
            faces = [_outcome(meets.face, c) for c in cones]
        assert len(lookups) == 1
        cmap = fam.corner_map()
        for cone, face in zip(cones, faces):
            source = face_source_by_scan(cmap, cone, fan)
            if source is None:
                nu = tuple(sorted(cone))
                if fan.is_cone(nu):  # every value of the face is zero
                    assert {v.dim for v in face.values} == {0}
                else:
                    assert face == ("ValueError", f"{list(nu)} is not a cone of the fan")
                seen.add("no grid")
                continue
            grid, positions = source
            assert face.values is grid.values and face.zero == SubspaceQ.zero(fam.rank)
            cut = grid.face(positions)
            for lam in itertools.product(*(range(a - 1, b + 2) for a, b in zip(cut.lo, cut.hi))):
                assert face.value(lam) == cut.value(lam)
            seen.add("repeated" if len(set(cone)) < len(cone) else
                     "unsorted" if list(cone) != sorted(cone) else "as listed")
    assert seen == {"as listed", "unsorted", "repeated", "no grid"}

