import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import (
    corner_values_by_points,
    line_bundle_family,
    rank2_three_lines,
    slab_family,
    structure_sheaf,
    trim_by_points,
)
from toricsheaves.family import (
    CornerFamily,
    DeltaFamily,
    DimGrid,
    KIND_PURE,
    KIND_REFLEXIVE,
    KIND_TORSION_FREE,
    RayFiltration,
    box_points,
    characteristic_function,
    detect_support,
    family_from_json,
    family_to_json,
    gauge_fix,
    is_reflexive,
    reflexive_from_filtrations,
    restrict_to_face,
    tensor_line_bundle,
    validate_pure,
    validate_torsion_free,
)
from toricsheaves.fan import Fan, hirzebruch, p1_x_p1, projective_plane
from toricsheaves.sampling import (
    random_families,
    random_filtration,
    random_reflexive_family,
    random_smooth_complete_fan,
    random_torsion_free_family,
)
from toricsheaves.subspace import SubspaceQ

K1 = SubspaceQ.full(1)
Z1 = SubspaceQ.zero(1)


def ideal_sheaf_of_point(fan, cone_index=0):
    """Rank-1 family of the ideal sheaf of the fixed point of one cone."""
    o = structure_sheaf(fan)
    corners = {i: g.pad_top(1) for i, g in o.corners}
    corners[cone_index] = corners[cone_index].with_value(
        corners[cone_index].lo, Z1
    )
    return DeltaFamily(KIND_TORSION_FREE, 1, tuple(sorted(corners.items())))


def two_axes_family(p2, kernel=False):
    """Structure sheaf of V(rho0) u V(rho1) on P^2 (bounds C = (1,1)); with
    kernel=True two region-exit values are zeroed, so a section dies in both
    directions and purity fails."""
    from toricsheaves.family import box_points

    killed = {(2, 1), (1, 2)} if kernel else set()
    corners = []
    # carrying cone (0,1): union of both sheets
    lo, hi = (0, 0), (3, 3)
    vals = []
    for lam in box_points(lo, hi):
        inside = lam[0] <= 1 or lam[1] <= 1
        vals.append(K1 if inside and lam not in killed else Z1)
    corners.append((0, CornerFamily((0, 1), lo, hi, tuple(vals), 1)))
    # cones (1,2) and (0,2): single slabs of width 2
    for i, mc, ray in ((1, (1, 2), 1), (2, (0, 2), 0)):
        pos = mc.index(ray)
        lo2 = (0, 0)
        hi2 = tuple(2 if k == pos else 0 for k in range(2))
        vals2 = [
            K1 if lam[pos] <= 1 else Z1 for lam in box_points(lo2, hi2)
        ]
        corners.append((i, CornerFamily(mc, lo2, hi2, tuple(vals2), 1)))
    return DeltaFamily(KIND_PURE, 1, tuple(corners), support=((0,), (1,)))


# --- reflexive_from_filtrations ---------------------------------------------

def test_structure_sheaf_values(p2, o_p2):
    for _, grid in o_p2.corners:
        assert grid.value(grid.hi) == K1
        assert grid.value((-1, 0)).is_zero()


def test_line_bundle_jumps(p2):
    kvec = (2, -1, 0)
    lk = line_bundle_family(p2, kvec)
    for j in range(3):
        filt = restrict_to_face(lk, (j,), p2)
        assert filt.value((-kvec[j],)) == K1
        assert filt.value((-kvec[j] - 1,)).is_zero()


def test_two_lines_intersect_to_zero(p2):
    full = SubspaceQ.full(2)
    la = SubspaceQ.span([(1, 0)], 2)
    lb = SubspaceQ.span([(0, 1)], 2)
    filts = [
        RayFiltration(0, ((0, la), (1, full))),
        RayFiltration(1, ((0, lb), (1, full))),
        RayFiltration(2, ((0, full),)),
    ]
    fam = reflexive_from_filtrations(filts, p2)
    grid = fam.corner_map()[0]  # cone with rays 0, 1
    assert grid.value((0, 0)).is_zero()  # la cap lb = 0
    assert grid.value((0, 1)) == la
    assert grid.value((1, 0)) == lb
    assert grid.value((1, 1)) == full


def rank3_filtration(ray, rng):
    """A ray filtration of Q^3: a random flag, some of its steps skipped,
    with random jump positions."""
    vecs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 3), (2, -1, 1)]
    a, b = rng.sample(vecs, 2)
    flag = [SubspaceQ.span([a], 3), SubspaceQ.span([a, b], 3), SubspaceQ.full(3)]
    steps = sorted(rng.sample(range(3), rng.randrange(1, 4)))
    if steps[-1] != 2:
        steps.append(2)
    at = rng.randrange(-2, 2)
    jumps = []
    for k in steps:
        jumps.append((at, flag[k]))
        at += rng.randrange(1, 3)
    return RayFiltration(ray, tuple(jumps))


@pytest.mark.parametrize("surface", ["p2", "p1xp1", "f1", "f2", "blowup", "dp6",
                                     "p2-cones-rotated", "p2-cones-third", "p3"])
def test_hull_values_match_pointwise_meets(corpus, surface):
    """reflexive_from_filtrations reads each ray's values once per cone and
    meets them in box order; every corner's box and values equal, tuple for
    tuple, those of the loop that meets each point's ray values on its own,
    on seeded filtrations of ranks 1 to 3."""
    from test_moduli import surface_fan

    if surface == "p3":
        fan = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                       [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    else:
        fan = surface_fan(corpus, surface)
    rng = random.Random(surface)
    for rank in (1, 2, 3):
        for _ in range(4):
            filts = [rank3_filtration(j, rng) if rank == 3 else random_filtration(j, rank, rng)
                     for j in range(fan.n_rays())]
            fam = reflexive_from_filtrations(filts, fan)
            assert [(g.lo, g.hi, g.values) for _, g in fam.corners] == \
                corner_values_by_points(filts, fan)


def test_filtration_errors(p2):
    with pytest.raises(ValueError):
        RayFiltration(0, ())
    full1, full2 = SubspaceQ.full(1), SubspaceQ.full(2)
    with pytest.raises(ValueError):
        reflexive_from_filtrations(
            [
                RayFiltration(0, ((0, full1),)),
                RayFiltration(1, ((0, full2),)),
                RayFiltration(2, ((0, full1),)),
            ],
            p2,
        )


# --- validators --------------------------------------------------------------

def test_constructed_families_valid(p2, p1p1, f1):
    rng = random.Random(21)
    for fan in (p2, p1p1, f1):
        for rank in (1, 2):
            for _ in range(5):
                fam = random_reflexive_family(fan, rank, rng)
                assert validate_torsion_free(fam, fan) == []
                for _, grid in fam.corners:
                    assert detect_support(grid) == {()}
                fam2 = random_torsion_free_family(fan, rank, rng)
                assert validate_torsion_free(fam2, fan) == []


def test_monotonicity_violation_reported(p2, o_p2):
    corners = {i: g.pad_top(1) for i, g in o_p2.corners}
    # a nonzero value strictly above a larger one
    bad = corners[0].with_value(corners[0].lo, K1).with_value(corners[0].hi, Z1)
    fam = DeltaFamily(KIND_TORSION_FREE, 1, tuple(sorted({**corners, 0: bad}.items())))
    report = validate_torsion_free(fam, p2)
    assert any("monotone" in r or "box top" in r for r in report)


def test_gluing_violation_reported(p2, o_p2):
    # shift one corner only: the shared ray filtrations no longer agree
    corners = dict(o_p2.corners)
    corners[0] = corners[0].shift((1, 0))
    fam = DeltaFamily(KIND_TORSION_FREE, 1, tuple(sorted(corners.items())))
    report = validate_torsion_free(fam, p2)
    assert any("gluing" in r for r in report)


def test_gluing_reads_an_empty_box_as_zero(p2, o_p2):
    # cone 0's box is empty (lo > hi in the coordinate of ray 0), and cone 2
    # reaches past its lo on ray 0: that read once indexed an empty grid
    corners = dict(o_p2.corners)
    corners[0] = CornerFamily((0, 1), (2, 0), (0, 0), (), 1)
    corners[2] = CornerFamily((0, 2), (2, 0), (3, 0), (SubspaceQ.full(1),) * 2, 1)
    fam = DeltaFamily(KIND_TORSION_FREE, 1, tuple(sorted(corners.items())))
    assert validate_torsion_free(fam, p2) == [
        "cone 0: empty box (2, 0)..(0, 0)",
        "gluing mismatch between cones 0 and 1 at common-ray values {1: 0}",
        "gluing mismatch between cones 0 and 2 at common-ray values {0: 2}",
    ]


def test_gluing_reads_two_common_rays_on_a_threefold():
    # on P^3 any two maximal cones share two rays, so each pair's gluing reads
    # a face with two coordinates in each grid, against the value walk
    from toricsheaves import family

    p3 = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                  [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    lines = [SubspaceQ.span([v], 2) for v in ((1, 0), (0, 1), (1, 1), (1, -1))]
    filts = [RayFiltration(j, ((j % 2 - 1, lines[j]), (j % 3 + 1, SubspaceQ.full(2))))
             for j in range(4)]
    fam = reflexive_from_filtrations(filts, p3)
    assert validate_torsion_free(fam, p3) == []
    other = SubspaceQ.span([(1, 2)], 2)
    two_rays = 0
    for i, g in fam.corners:
        for k in range(len(g.values)):
            grids = dict(fam.corners)
            grids[i] = CornerFamily(g.cone, g.lo, g.hi, g.values[:k] + (other,) + g.values[k + 1:],
                                    g.ambient)
            got = family._gluing_report(p3, grids)
            assert got == gluing_by_value(p3, grids)
            two_rays += sum(r.count(": ") == 2 for r in got)
    assert two_rays > 0


def test_reflexivity(p2, o_p2):
    assert is_reflexive(o_p2, p2)
    assert not is_reflexive(ideal_sheaf_of_point(p2), p2)
    rng = random.Random(4)
    fam = random_reflexive_family(p2, 2, rng)
    assert is_reflexive(fam, p2)


# --- support detection and purity ---------------------------------------------

def test_detect_support_torsion_free(p2, o_p2):
    assert detect_support(o_p2.corner_map()[0]) == {()}


def test_detect_support_slab(p2):
    fam = slab_family(p2, 0)
    assert detect_support(fam.corner_map()[0]) == {(0,)}


def test_detect_support_two_axes(p2):
    fam = two_axes_family(p2)
    assert detect_support(fam.corner_map()[0]) == {(0,), (1,)}


def test_detect_support_zero_rejected(p2):
    grid = CornerFamily((0, 1), (0, 0), (0, 0), (Z1,), 1)
    with pytest.raises(ValueError):
        detect_support(grid)


def test_validate_pure_apex_redeclaration(p2, o_p2):
    fam = DeltaFamily(KIND_PURE, 1, o_p2.corners, support=((),))
    assert validate_pure(fam, p2) == []


def test_validate_pure_slab(p2):
    assert validate_pure(slab_family(p2, 0), p2) == []
    assert validate_pure(slab_family(p2, 1, width=2), p2) == []


def test_validate_pure_two_axes(p2):
    assert validate_pure(two_axes_family(p2), p2) == []


def test_validate_pure_kernel_invalid(p2):
    report = validate_pure(two_axes_family(p2, kernel=True), p2)
    assert any("not injective" in r for r in report)


def test_validate_pure_support_mismatch(p2):
    fam = slab_family(p2, 0)
    wrong = DeltaFamily(KIND_PURE, 1, fam.corners, support=((1,),))
    assert validate_pure(wrong, p2) != []


def _apex_pure(fam):
    return DeltaFamily(KIND_PURE, fam.rank, fam.corners, ((),))


def test_validate_pure_checks_cone_structure(p2, o_p2):
    apex = _apex_pure(o_p2)
    cs = list(apex.corners)

    def relabel(i, cone):
        g = cs[i][1]
        return i, CornerFamily(cone, g.lo, g.hi, g.values, g.ambient)

    cases = [
        (cs[:1], ["data on cones [0] but the support star is [0, 1, 2]"]),
        (cs[:2] + [(7, cs[2][1])], ["data on cones [0, 1, 7] but the support star is [0, 1, 2]"]),
        ([relabel(0, (1, 2)), relabel(1, (0, 1)), cs[2]],
         ["cone 0: grid labelled with rays (1, 2) != (0, 1)"]),
        ([relabel(0, (7, 9))] + cs[1:], ["cone 0: grid labelled with rays (7, 9) != (0, 1)"]),
        ([(i, CornerFamily(g.cone, (1, 1), (0, 0), (), 1)) for i, g in cs],
         [f"cone {i}: empty box (1, 1)..(0, 0)" for i in range(3)]),
    ]
    for corners, want in cases:
        assert validate_pure(DeltaFamily(apex.kind, apex.rank, tuple(corners), apex.support),
                             p2) == want
    # these cones also fail to glue, and the gluing lines come last
    c0 = cs[0][1]
    for corners, first in [
        ([(0, CornerFamily(c0.cone, c0.lo, c0.hi, c0.values, 2))] + cs[1:],
         "cone 0: ambient 2 != rank 1"),
        ([(0, CornerFamily((0, 1), (0, 0), (0, 0), (Z1,), 1))] + cs[1:],
         "cone 0: zero limit space"),
    ]:
        report = validate_pure(DeltaFamily(apex.kind, apex.rank, tuple(corners), apex.support), p2)
        assert report[0] == first and report[1].startswith("gluing mismatch"), report
    slab = slab_family(p2, 0)
    (i0, g0), rest = slab.corners[0], list(slab.corners[1:])
    moved = CornerFamily((0, 9), g0.lo, g0.hi, g0.values, g0.ambient)
    assert validate_pure(DeltaFamily(slab.kind, slab.rank, ((i0, moved), *rest), slab.support),
                         p2) == [
        "cone 0: grid labelled with rays (0, 9) != (0, 1)"]
    assert validate_pure(DeltaFamily(slab.kind, slab.rank, tuple(rest), slab.support), p2) == [
        "data on cones [2] but the support star is [0, 2]"]


def test_validate_pure_apex_matches_torsion_free(p2):
    # on rank 1 a nonzero limit is the full space, so a family redeclared
    # pure with whole support gets the torsion-free report line for line
    rng = random.Random(151)
    fams = [(fan, fam) for fan, fam in random_oracle_families(rng) if fam.rank == 1]
    fams += [(fan, bad) for fan, fam in fams for bad in broken_variants(fam, rng)]
    invalid = 0
    for fan, fam in fams:
        report = validate_torsion_free(fam, fan)
        invalid += bool(report)
        assert validate_pure(_apex_pure(fam), fan) == report
    assert 0 < invalid < len(fams)


# --- restriction ---------------------------------------------------------------

def test_restrict_recovers_ray_filtration(p2, o_p2):
    filt = restrict_to_face(o_p2, (0,), p2)
    assert filt.value((0,)) == K1
    assert filt.value((-1,)).is_zero()


def test_restrict_pure_to_noncontaining_face_is_zero(p2):
    fam = slab_family(p2, 0)
    r = restrict_to_face(fam, (1,), p2)
    assert r.is_zero()
    r2 = restrict_to_face(fam, (1, 2), p2)
    assert r2.is_zero()


def test_restrict_to_carrying_cone_is_identity(p2, o_p2):
    grid = restrict_to_face(o_p2, p2.max_cones[0], p2)
    assert grid == o_p2.corner_map()[0]


def test_restrict_to_maximal_cone_returns_its_grid(corpus):
    for fan in corpus.values():
        for fam in random_families(fan, 2, 4, seed=17):
            for x in (fam, characteristic_function(fam)):
                corners = x.corner_map()
                for i, mc in enumerate(fan.max_cones):
                    assert restrict_to_face(x, mc, fan) is corners[i]
                    # the rays in the other order give a new, transposed grid
                    turned = corners[i].face((1, 0))
                    assert turned.cone == mc[::-1]
                    assert turned.lo == corners[i].lo[::-1]


def test_restrict_composition(p2):
    rng = random.Random(13)
    fam = random_torsion_free_family(p2, 2, rng)
    for mc in p2.max_cones:
        via = restrict_to_face(fam, mc, p2)
        for ray in mc:
            direct = restrict_to_face(fam, (ray,), p2)
            composed = via.face([mc.index(ray)])
            lo = min(direct.lo[0], composed.lo[0]) - 1
            hi = max(direct.hi[0], composed.hi[0]) + 1
            for lam in range(lo, hi + 1):
                assert direct.value((lam,)) == composed.value((lam,))


def test_restrict_unknown_cone(p2, o_p2):
    with pytest.raises(ValueError):
        restrict_to_face(o_p2, (0, 1, 2), p2)


# --- tensor and characteristic function -----------------------------------------

def test_tensor_identity(p2, o_p2):
    assert tensor_line_bundle(o_p2, (0, 0, 0)) == o_p2


def test_tensor_structure_sheaf_gives_line_bundle(p2, o_p2):
    kvec = (1, 2, -1)
    twisted = tensor_line_bundle(o_p2, kvec)
    expected = line_bundle_family(p2, kvec)
    for i in range(3):
        a, b = twisted.corner_map()[i], expected.corner_map()[i]
        assert a.lo == b.lo and a.value(a.lo) == b.value(b.lo)


def test_tensor_round_trip(p2):
    rng = random.Random(17)
    fam = random_torsion_free_family(p2, 2, rng)
    kvec = (2, -1, 3)
    back = tensor_line_bundle(tensor_line_bundle(fam, kvec), tuple(-k for k in kvec))
    assert back == fam


def test_char_function_structure_sheaf(p2, o_p2):
    chi = characteristic_function(o_p2)
    for _, g in chi.corners:
        assert g.value(g.hi) == 1
        assert g.value((-1, 0)) == 0


def test_char_function_rank2_split(p2):
    fam = structure_sheaf(p2, rank=2)
    chi = characteristic_function(fam)
    for _, g in chi.corners:
        assert g.value(g.hi) == 2
        assert set(g.values) == {2}


def test_char_function_ideal_sheaf(p2):
    fam = ideal_sheaf_of_point(p2, cone_index=0)
    chi = characteristic_function(fam)
    g = chi.corner_map()[0]
    assert g.value(g.lo) == 0
    assert g.value(g.hi) == 1


def test_char_of_tensor_is_shifted_char(p2):
    rng = random.Random(23)
    fam = random_torsion_free_family(p2, 2, rng)
    kvec = (1, 0, -2)
    lhs = characteristic_function(tensor_line_bundle(fam, kvec))
    rhs = tensor_line_bundle(characteristic_function(fam), kvec)
    assert lhs.trim().canonical() == rhs.trim().canonical()


# --- gauge fixing -----------------------------------------------------------------

def test_gauge_fix_identity_on_fixed_input(p2, o_p2):
    fixed, shift = gauge_fix(o_p2, p2)
    assert shift == (0, 0, 0)
    assert fixed == o_p2


def test_gauge_fix_relation_twist_returns_structure_sheaf(p2, o_p2):
    # u = (1, 0) gives the relation vector (1, 0, -1) on P^2
    twisted = tensor_line_bundle(o_p2, (1, 0, -1))
    fixed, shift = gauge_fix(twisted, p2)
    assert characteristic_function(fixed).trim().canonical() == \
        characteristic_function(o_p2).trim().canonical()


def test_gauge_fix_idempotent(p2):
    rng = random.Random(31)
    for _ in range(10):
        fam = random_torsion_free_family(p2, 2, rng)
        chi = characteristic_function(fam)
        once, _ = gauge_fix(chi, p2)
        twice, shift = gauge_fix(once, p2)
        assert shift == (0, 0, 0)
        assert twice.canonical() == once.canonical()


def test_gauge_classes(p2, p1p1):
    # families differing by a trivial-class twist gauge-fix identically
    rng = random.Random(37)
    for fan in (p2, p1p1):
        for _ in range(10):
            fam = random_torsion_free_family(fan, 2, rng)
            u = [rng.randrange(-2, 3) for _ in range(2)]
            kvec = tuple(
                u[0] * fan.rays[j][0] + u[1] * fan.rays[j][1]
                for j in range(fan.n_rays())
            )
            a, _ = gauge_fix(characteristic_function(fam), fan)
            b, _ = gauge_fix(characteristic_function(tensor_line_bundle(fam, kvec)), fan)
            assert a.canonical() == b.canonical()


def _fraction_route_twist(x, fan):
    """gauge_fix's twist vector, solved by the Fraction RREF it used to call."""
    from test_subspace import ref_rref

    cmap = x.corner_map()
    grid = next(cmap[i] for i in sorted(cmap) if cmap[i].nonzero_points())
    support = grid.nonzero_points()
    bounds = [min(lam[k] for lam in support) for k in range(grid.ndim())]
    solved = ref_rref([[Fraction(x) for x in fan.rays[j]] + [Fraction(b)]
                       for j, b in zip(grid.cone, bounds)])
    u = [int(row[-1]) for row in solved]
    return tuple(sum(ui * nj for ui, nj in zip(u, fan.rays[j])) for j in range(fan.n_rays()))


def test_gauge_fix_twist_matches_fraction_route():
    rng = random.Random(43)
    fans = [projective_plane(), p1_x_p1(), hirzebruch(1), hirzebruch(2)]
    fans += [random_smooth_complete_fan(random.Random(b), b) for b in (1, 2, 3)]
    for fan in fans:
        for fam in random_families(fan, 2, 6, seed=47):
            kvec = tuple(rng.randrange(-3, 4) for _ in range(fan.n_rays()))
            twisted = tensor_line_bundle(fam, kvec)
            for x in (twisted, characteristic_function(twisted)):
                assert gauge_fix(x, fan)[1] == _fraction_route_twist(x, fan)


def _hand_grids():
    """Small grids for the trim oracle: two all-zero bottom slabs and two
    repeated top slabs in one coordinate and one of each in the other, in
    both orders; one-point boxes; and a three-coordinate grid."""
    rows = [  # x from -2 to 4, y from -2 to 2; trims to x in 0..2, y in -1..1
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 1, 1, 1),
        (0, 1, 1, 2, 2),
        (0, 1, 2, 2, 2),
        (0, 1, 2, 2, 2),
        (0, 1, 2, 2, 2),
    ]
    yield DimGrid((0, 1), (-2, -2), (4, 2), tuple(v for row in rows for v in row))
    yield DimGrid((0, 1), (-2, -2), (2, 4), tuple(v for row in zip(*rows) for v in row))
    yield DimGrid((1, 2), (4, -3), (4, -3), (2,))
    yield DimGrid((1, 2), (4, -3), (4, -3), (0,))
    yield DimGrid((2,), (-1,), (2,), (0, 0, 0, 0))
    yield DimGrid((2,), (-1,), (2,), (0, 1, 2, 2))
    # zero at x = -1 and repeated at z = 2: trims to (0, 0, -1)..(1, 2, 1)
    yield DimGrid((0, 1, 2), (-1, 0, -1), (1, 2, 2), tuple(
        0 if x < 0 else max(0, min(2, x + y + min(z, 1)))
        for x, y, z in box_points((-1, 0, -1), (1, 2, 2))))


def test_trim_matches_point_by_point_oracle(corpus):
    """_Grid.trim, by index in one sweep, equals the slab loop that re-read
    every point through _entry, on dimension and subspace grids of random
    families twisted below 0 and on the hand-made grids; nonzero_points
    equals the point-by-point list on the same grids."""
    rng = random.Random(197)
    grids = list(_hand_grids())
    for name in ("p2", "f1"):
        fan = corpus[name]
        for fam in random_families(fan, 2, 3, seed=199):
            kvec = tuple(rng.randrange(-3, 1) for _ in range(fan.n_rays()))
            twisted = tensor_line_bundle(fam, kvec)
            grids += [g for _, g in twisted.corners]
            grids += [g for _, g in characteristic_function(twisted).corners]
    trimmed = 0
    for grid in grids:
        assert grid.trim() == trim_by_points(grid)
        zero = grid._zero_value()
        assert grid.nonzero_points() == [lam for lam in grid.points() if grid._entry(lam) != zero]
        trimmed += grid.trim() != grid
    assert trimmed >= len(grids) // 2


def test_gauge_fix_non_unimodular_cone_rejected():
    # the rays (1, 0) and (1, 2) span a cone of index 2: the bounds (0, 1) give u = (0, 1/2)
    fan = Fan.make(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1)])
    grid = CornerFamily((0, 1), (0, 1), (0, 1), (K1,), 1)
    with pytest.raises(ValueError, match="non-integral solution"):
        gauge_fix(DeltaFamily(KIND_TORSION_FREE, 1, ((0, grid),)), fan)


def test_gauge_fix_zero_family_rejected(p2):
    zero = DeltaFamily(
        KIND_TORSION_FREE,
        1,
        tuple(
            (i, CornerFamily(mc, (0, 0), (0, 0), (Z1,), 1))
            for i, mc in enumerate(p2.max_cones)
        ),
    )
    with pytest.raises(ValueError):
        gauge_fix(zero, p2)


# --- serialization ------------------------------------------------------------------

def test_family_json_round_trip(p2):
    rng = random.Random(41)
    for _ in range(10):
        fam = random_torsion_free_family(p2, 2, rng)
        again = family_from_json(family_to_json(fam))
        assert again == fam


def test_pure_family_json_round_trip(p2):
    fam = two_axes_family(p2)
    again = family_from_json(family_to_json(fam))
    assert again == fam
    assert validate_pure(again, p2) == []


def test_family_json_errors():
    with pytest.raises(ValueError):
        family_from_json("{oops")
    with pytest.raises(ValueError):
        family_from_json(json.dumps({"kind": "torsion-free", "rank": 1}))


def test_family_json_box_cap(p2):
    from toricsheaves.family import MAX_BOX_POINTS

    doc = json.loads(family_to_json(rank2_three_lines(p2)))
    cone = doc["cones"][1]
    lo = cone["lo"]
    cone["hi"] = [lo[0] + 99, lo[1] + 99]  # 100 x 100 = MAX_BOX_POINTS: accepted
    assert MAX_BOX_POINTS == 10_000
    family_from_json(json.dumps(doc))
    cone["hi"][1] += 1
    with pytest.raises(ValueError, match=f"cone {cone['index']}: .* 10100 points"):
        family_from_json(json.dumps(doc))


def test_validate_family_validates_torsion_free_once(p2, monkeypatch):
    from toricsheaves import family

    calls = []
    real = family.validate_torsion_free
    monkeypatch.setattr(family, "validate_torsion_free",
                        lambda fam, fan: calls.append(fam) or real(fam, fan))
    fam = rank2_three_lines(p2)
    assert fam.kind == family.KIND_REFLEXIVE
    assert family.validate_family(fam, p2) == []
    assert len(calls) == 1
    assert family.is_reflexive(fam, p2)
    assert len(calls) == 2


def test_declared_reflexive_must_be_reflexive(p2):
    from toricsheaves.family import KIND_REFLEXIVE, validate_family

    fam = ideal_sheaf_of_point(p2)
    declared = DeltaFamily(KIND_REFLEXIVE, 1, fam.corners)
    report = validate_family(declared, p2)
    assert any("reflexive" in r for r in report)


# --- one-pass decoding and index-stride validation against the old walks ------------
#
# The oracles below are the old routes, kept here: every implicit box point
# decoded as the sum of all explicit jumps below it, the minimal jumps written
# through the same sum, and the monotonicity and axis-meet walks reaching each
# neighbour through the clamped `value()`.

def join_below(entries, lam, ambient):
    """The sum of the values of the (mu, value) entries with mu <= lam."""
    rec = SubspaceQ.zero(ambient)
    for mu, v in entries:
        if all(a <= b for a, b in zip(mu, lam)):
            rec = rec.sum(v)
    return rec


def decode_by_join_below(text):
    """(index, values) per cone entry of a well-formed family file."""
    doc = json.loads(text)
    out = []
    for entry in doc["cones"]:
        explicit = {}
        for j in entry["jumps"]:
            rows = [[Fraction(x) for x in row] for row in j["basis"]]
            explicit[tuple(j["at"])] = SubspaceQ.span(rows, doc["rank"])
        vals = tuple(
            explicit[lam] if lam in explicit else join_below(explicit.items(), lam, doc["rank"])
            for lam in box_points(entry["lo"], entry["hi"])
        )
        out.append((entry["index"], vals))
    return out


def grid_jumps_by_join_below(grid):
    entries = []
    for lam in grid.points():
        actual = grid._entry(lam)
        if join_below(entries, lam, grid.ambient) != actual:
            entries.append((lam, actual))
    return [{"at": list(lam), "basis": v.basis_str()} for lam, v in entries]


def inclusion_breaks_by_value(grid, drop_ok):
    for lam in grid.points():
        v = grid._entry(lam)
        for k in range(grid.ndim()):
            nxt = list(lam)
            nxt[k] += 1
            w = grid.value(nxt)
            if not w.contains(v) and not (drop_ok and w.is_zero()):
                yield lam, k


def axis_meets_by_value(fam):
    for _, grid in fam.corners:
        axis = [grid.face((k,)) for k in range(grid.ndim())]
        for lam in grid.points():
            expect = SubspaceQ.full(grid.ambient)
            for k, x in enumerate(lam):
                expect = expect.intersect(axis[k]._entry((x,)))
            if grid._entry(lam) != expect:
                return False
    return True


def oracle_fans():
    fans = [projective_plane(), p1_x_p1(), hirzebruch(1), hirzebruch(2)]
    return fans + [random_smooth_complete_fan(random.Random(b), b) for b in (1, 2, 3)]


def random_basis(rng, ambient):
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(ambient)]
        if SubspaceQ.span(rows, ambient).is_full():
            return rows


def random_subspace(rng, ambient, dim):
    return SubspaceQ.span(random_basis(rng, ambient)[:dim], ambient)


def random_flag_family(fan, rank, rng):
    """A reflexive family of any rank: one random flag of Q^rank per ray."""
    filts = []
    for j in range(fan.n_rays()):
        basis = random_basis(rng, rank)
        lam = rng.randrange(-2, 2)
        jumps = []
        for d in sorted(rng.sample(range(1, rank), rng.randrange(rank))) + [rank]:
            jumps.append((lam, SubspaceQ.span(basis[:d], rank)))
            lam += rng.randrange(1, 3)
        filts.append(RayFiltration(j, tuple(jumps)))
    return reflexive_from_filtrations(filts, fan)


def random_oracle_families(rng):
    """Valid families of ranks 1-3 on every oracle fan: reflexive ones and
    torsion-free ones with a cut at a box corner."""
    out = []
    for fan in oracle_fans():
        for rank in (1, 2, 3):
            for _ in range(3):
                fam = random_flag_family(fan, rank, rng)
                out.append((fan, fam))
                corners = {i: g.pad_top(1) for i, g in fam.corners}
                i = rng.choice(sorted(corners))
                v = corners[i]._entry(corners[i].lo)
                cut = SubspaceQ.zero(rank) if v.dim < 2 else SubspaceQ.span([v.rows[0]], rank)
                corners[i] = corners[i].with_value(corners[i].lo, cut)
                out.append((fan, DeltaFamily(KIND_TORSION_FREE, rank, tuple(sorted(corners.items())))))
    return out


def broken_variants(fam, rng):
    """Families that fail validation in each way: a box value replaced by a
    random line (not monotone), the box top of one cone made a line (not
    saturating), one cone shifted (glue mismatch), and the family declared
    reflexive (which a cut family is not)."""
    corners = dict(fam.corners)
    i = rng.choice(sorted(corners))
    grid = corners[i].pad_top(1)

    def with_grid(g):
        return DeltaFamily(fam.kind, fam.rank, tuple(sorted({**corners, i: g}.items())),
                           fam.support)

    line = random_subspace(rng, fam.rank, 1)
    yield with_grid(grid.with_value(rng.choice(list(grid.points())), line))
    if fam.rank > 1:
        yield with_grid(grid.with_value(grid.hi, line))
    yield with_grid(corners[i].shift(tuple(rng.choice((-1, 1)) for _ in corners[i].cone)))
    yield DeltaFamily(KIND_REFLEXIVE, fam.rank, fam.corners, fam.support)


def random_family_doc(fan, rank, rng, kind=KIND_TORSION_FREE, support=((),)):
    """A family file with random boxes and up to six jumps per cone, each at a
    random point of the box widened by 2 on every side (so below lo, above hi,
    and above hi in one coordinate only all occur).  Only the cones that
    contain a support cone carry data."""
    cones = []
    for i, mc in enumerate(fan.max_cones):
        if not any(set(t) <= set(mc) for t in support):
            continue
        lo = [rng.randrange(-2, 2) for _ in mc]
        hi = [a + rng.randrange(0, 3) for a in lo]
        wide = list(itertools.product(*(range(a - 2, b + 3) for a, b in zip(lo, hi))))
        jumps = [
            {"at": list(at), "basis": random_subspace(rng, rank, rng.randint(0, rank)).basis_str()}
            for at in rng.sample(wide, rng.randrange(0, 7))
        ]
        cones.append({"index": i, "cone": list(mc), "lo": lo, "hi": hi, "jumps": jumps})
    return {"kind": kind, "rank": rank, "support": [list(t) for t in support], "cones": cones}


def jump_places(doc):
    """How many jumps of the file lie below lo (and nowhere above hi), above
    hi in every coordinate, and above hi in exactly one coordinate."""
    places = {"below-lo": 0, "above-hi": 0, "above-hi-in-one": 0}
    for entry in doc["cones"]:
        for j in entry["jumps"]:
            above = sum(x > b for x, b in zip(j["at"], entry["hi"]))
            if above == len(j["at"]):
                places["above-hi"] += 1
            elif above == 1:
                places["above-hi-in-one"] += 1
            if not above and any(x < a for x, a in zip(j["at"], entry["lo"])):
                places["below-lo"] += 1
    return places


def reports(fan, fam):
    """validate_family's whole report and is_reflexive's answer or error."""
    from toricsheaves import family

    try:
        reflexive = family.is_reflexive(fam, fan) if fam.kind != KIND_PURE else None
    except ValueError as e:
        reflexive = str(e)
    return family.validate_family(fam, fan), reflexive


def gluing_by_value(fan, grids):
    """The gluing check as it read each point: two coordinate lists per
    common-ray value, each read by _Grid.value."""
    report = []
    idxs = sorted(grids)
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            ia, ib = idxs[a], idxs[b]
            ga, gb = grids[ia], grids[ib]
            common = sorted(set(ga.cone) & set(gb.cone))
            pa = [ga.cone.index(j) for j in common]
            pb = [gb.cone.index(j) for j in common]
            ranges = [range(min(ga.lo[qa], gb.lo[qb]) - 1, max(ga.hi[qa], gb.hi[qb]) + 1)
                      for qa, qb in zip(pa, pb)]
            for lam in itertools.product(*ranges):
                full_a, full_b = list(ga.hi), list(gb.hi)
                for qa, x in zip(pa, lam):
                    full_a[qa] = x
                for qb, x in zip(pb, lam):
                    full_b[qb] = x
                if ga.value(full_a) != gb.value(full_b):
                    report.append(f"gluing mismatch between cones {ia} and {ib} at "
                                  f"common-ray values {dict(zip(common, lam))}")
                    break
    return report


def reports_by_value(fan, fam, monkeypatch):
    from toricsheaves import family

    with monkeypatch.context() as m:
        m.setattr(family, "_inclusion_breaks", inclusion_breaks_by_value)
        m.setattr(family, "_corners_are_axis_meets", axis_meets_by_value)
        m.setattr(family, "_gluing_report", gluing_by_value)
        return reports(fan, fam)


def test_family_json_matches_join_below_route(monkeypatch):
    from toricsheaves import family

    rng = random.Random(131)
    fams = random_oracle_families(rng)
    fams += [(fan, bad) for fan, fam in fams[::3] for bad in broken_variants(fam, rng)]
    fams += [(fan, family_from_json(json.dumps(random_family_doc(fan, rank, rng))))
             for fan in oracle_fans() for rank in (1, 2, 3) for _ in range(3)]
    assert {fam.rank for _, fam in fams} == {1, 2, 3}
    written = [family_to_json(fam) for _, fam in fams]
    monkeypatch.setattr(family, "_grid_jumps", grid_jumps_by_join_below)
    assert [family_to_json(fam) for _, fam in fams] == written
    for text in written:
        assert [(i, g.values) for i, g in family_from_json(text).corners] == decode_by_join_below(text)


def test_decoding_matches_join_below_route():
    rng = random.Random(137)
    places = {"below-lo": 0, "above-hi": 0, "above-hi-in-one": 0}
    for fan in oracle_fans():
        for rank in (1, 2, 3):
            for _ in range(12):
                doc = random_family_doc(fan, rank, rng)
                for k, n in jump_places(doc).items():
                    places[k] += n
                text = json.dumps(doc)
                assert [(i, g.values) for i, g in family_from_json(text).corners] \
                    == decode_by_join_below(text)
    assert min(places.values()) > 0, places


def test_decoding_jumps_outside_the_box(p2):
    doc = {"kind": "torsion-free", "rank": 2, "cones": [{
        "index": 0, "cone": [0, 1], "lo": [0, 0], "hi": [1, 1], "jumps": [
            {"at": [-3, 0], "basis": [["1", "0"]]},  # below lo: acts from (0, 0)
            {"at": [0, 2], "basis": [["0", "1"]]},  # above hi in one coordinate: dropped
            {"at": [-1, 2], "basis": [["1", "1"]]},  # below in one, above in the other
            {"at": [5, 5], "basis": [["1", "2"]]},  # above hi: dropped
            {"at": [1, 0], "basis": [["1", "0"], ["0", "1"]]},
        ]}]}
    text = json.dumps(doc)
    x, full = SubspaceQ.span([(1, 0)], 2), SubspaceQ.full(2)
    assert family_from_json(text).corners[0][1].values == (x, x, full, full)
    assert [(i, g.values) for i, g in family_from_json(text).corners] == decode_by_join_below(text)


def test_validation_matches_value_walks(p2, monkeypatch):
    rng = random.Random(139)
    fams = random_oracle_families(rng)
    fams += [(fan, bad) for fan, fam in fams for bad in broken_variants(fam, rng)]
    for fan in oracle_fans():
        for rank in (1, 2, 3):
            for kind in ("torsion-free", "reflexive"):
                doc = random_family_doc(fan, rank, rng, kind)
                fams.append((fan, family_from_json(json.dumps(doc))))
            ray = rng.randrange(fan.n_rays())
            for support in (((),), ((ray,),)):
                doc = random_family_doc(fan, rank, rng, KIND_PURE, support)
                fams.append((fan, family_from_json(json.dumps(doc))))
    fams += [(p2, slab_family(p2, 1, 2)), (p2, two_axes_family(p2)),
             (p2, two_axes_family(p2, kernel=True))]
    for fan in oracle_fans():
        slab = slab_family(fan, 0, 2)
        full, zero = SubspaceQ.full(2), SubspaceQ.zero(2)
        slab = DeltaFamily(KIND_PURE, 2, tuple(
            (i, CornerFamily(g.cone, g.lo, g.hi, tuple(full if v.dim else zero for v in g.values), 2))
            for i, g in slab.corners), slab.support)
        fams.append((fan, slab))
        fams += [(fan, bad) for _ in range(4) for bad in broken_variants(slab, rng)]
    # one cone's box empty in every coordinate, which both gluing routes read as zero
    fams += [(fan, DeltaFamily(fam.kind, fam.rank,
                               ((i, CornerFamily(g.cone, tuple(b + 1 for b in g.hi),
                                                 g.hi, (), g.ambient)),)
                               + tuple(c for c in fam.corners if c[0] != i), fam.support))
             for fan, fam in fams[::9] for i, g in fam.corners[:1]]
    seen = {"valid": 0, "not monotone": 0, "not the full space": 0, "gluing mismatch": 0,
            "declared reflexive": 0, "does not include": 0, "reflexive": 0, "not reflexive": 0,
            "empty box": 0}
    for fan, fam in fams:
        got = reports(fan, fam)
        assert got == reports_by_value(fan, fam, monkeypatch)
        report, reflexive = got
        seen["valid"] += not report
        seen["reflexive"] += reflexive is True
        seen["not reflexive"] += reflexive is False
        for key in seen:
            seen[key] += any(key in r for r in report)
    assert min(seen.values()) > 0, seen


def value_by_clamp(grid, lam):
    """The clamped lookup _Grid.value replaced: zero below the box in some
    coordinate, else the entry at lam clamped to the top."""
    clamped = []
    for a, b, x in zip(grid.lo, grid.hi, lam):
        if x < a:
            return grid._zero_value()
        clamped.append(min(x, b))
    return grid._entry(tuple(clamped))


def test_grid_value_matches_clamp_route():
    rng = random.Random(149)
    places = {"inside": 0, "below": 0, "above": 0, "below and above": 0, "apex": 0}
    for fan, fam in random_oracle_families(rng):
        for x in (fam, characteristic_function(fam)):
            for nu in fan.cones():
                grid = restrict_to_face(x, nu, fan)
                for lam in box_points([a - 2 for a in grid.lo], [b + 2 for b in grid.hi]):
                    assert grid.value(lam) == value_by_clamp(grid, lam)
                    below = any(c < a for c, a in zip(lam, grid.lo))
                    above = any(c > b for c, b in zip(lam, grid.hi))
                    where = ("below and above" if below and above else "below" if below
                             else "above" if above else "inside" if lam else "apex")
                    places[where] += 1
    assert min(places.values()) > 0, places


# --- integer decoding of basis entries against the Fraction route -------------------

def rational_by_fraction(x):
    """The basis-entry reader the integer decoder replaced: an accepted entry
    becomes a Fraction, and span scales the row back to ints."""
    from toricsheaves.family import _RATIONAL

    is_int = isinstance(x, int) and not isinstance(x, bool)
    if is_int or (isinstance(x, str) and _RATIONAL.fullmatch(x)):
        return Fraction(x)
    raise ValueError(f"basis entry {x!r} is not an integer or a rational string p/q with q > 0")


def decode_by_fractions(text, monkeypatch):
    """family_from_json with every basis row read through rational_by_fraction."""
    from toricsheaves import family
    from toricsheaves.fan import _json_of

    with monkeypatch.context() as m:
        m.setattr(family, "_basis_row",
                  lambda row: [rational_by_fraction(x) for x in _json_of(list, row, "basis row")])
        return decoded(text)


def decoded(text):
    try:
        return family_from_json(text)
    except ValueError as e:
        return str(e)


def one_jump_file(basis, rank=2):
    """A P^2 cone-0 file whose only jump, at lo, has the given basis."""
    return json.dumps({"kind": "torsion-free", "rank": rank, "cones": [{
        "index": 0, "cone": [0, 1], "lo": [0, 0], "hi": [1, 1],
        "jumps": [{"at": [0, 0], "basis": basis}]}]})


def test_integer_decoding_matches_fraction_route(monkeypatch):
    rng = random.Random(151)
    texts = [family_to_json(fam) for _, fam in random_oracle_families(rng)]
    texts += [json.dumps(random_family_doc(fan, rank, rng))
              for fan in oracle_fans() for rank in (1, 2, 3)]
    big = 2 ** 70
    bases = [
        [["3/6", "1"]], [["-0", "1/007"]], [["1/007", "-3/6"], ["0", "5/010"]],
        [[big, 1]], [[f"{big}/3", "-1"], ["1", f"-{big + 1}/{big}"]], [[f"{-big}", "7/2"]],
        [[1, "1/2"], ["-2/3", 4]], [[0, "0/5"]], [[-3, "6"], ["2/3", 0]],
        [["0", "1/3"], ["2", 0], [1, "-1/3"]], [],
    ]
    texts += [one_jump_file(b) for b in bases]
    for text in texts:
        got = decoded(text)
        assert not isinstance(got, str), got
        assert got == decode_by_fractions(text, monkeypatch)
    x = SubspaceQ.span([(1, 2)], 2)
    assert decoded(one_jump_file([["3/6", "1"]])).corners[0][1].values[0] == x
    assert decoded(one_jump_file([[f"{big}/3", big]])).corners[0][1].values[0] \
        == SubspaceQ.span([(1, 3)], 2)


BAD_ENTRIES = ["1.5", 1.5, True, None, "1/0", "+1", " 1", "1_0", "1e3", "٣", "1/-2",
               "", "1/", "/2", "- 1", "1/2/3", [1], {"p": 1}]


@pytest.mark.parametrize("entry", BAD_ENTRIES, ids=[repr(e) for e in BAD_ENTRIES])
def test_malformed_basis_entry_refused_as_before(entry, monkeypatch):
    text = one_jump_file([["1", "0"], ["0", entry]])
    message = (f"basis entry {entry!r} is not an integer or a rational string p/q "
               "with q > 0")
    assert decoded(text) == message
    assert decode_by_fractions(text, monkeypatch) == message


def test_bad_entry_reported_before_short_row(monkeypatch):
    # every entry of a jump is read before any row length is checked
    for basis, message in (
        ([["1"], ["0", "1.5"]], "basis entry '1.5' is not"),
        ([["1"], ["0", "1"]], "vector length 1 != ambient 2"),
        ([["1", "0"], ["0", "1", "1"], ["x"]], "basis entry 'x' is not"),
        ([["1", "0", "0"], ["0", "1"]], "vector length 3 != ambient 2"),
        ("1", "basis is not a JSON array"),
        ([["1", "0"], "0"], "basis row is not a JSON array"),
    ):
        text = one_jump_file(basis)
        got = decoded(text)
        assert isinstance(got, str) and got.startswith(message), (basis, got)
        assert got == decode_by_fractions(text, monkeypatch)


def test_decoding_builds_no_fraction(monkeypatch):
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    rng = random.Random(157)
    texts = [family_to_json(fam) for _, fam in random_oracle_families(rng)[::4]]
    texts.append(one_jump_file([["1/3", 2], ["-5/7", "2/21"]]))
    assert any("/" in t for t in texts)
    monkeypatch.setattr(Fraction, "__new__", counted)
    for text in texts:
        family_from_json(text)
    assert built == []


# --- monotonicity proved while decoding, against the inclusion scan ----------------
#
# family_from_json records a grid as monotone when every jump in its box
# contains the join one step below it, and validation then skips that grid's
# inclusion scan.  The oracle is the same validation on an in-memory copy
# whose grids are rebuilt by map_values, so none carries the record and every
# grid is scanned.

def unrecorded(fam):
    return fam.map_corners(lambda g: g.map_values(lambda v: v))


def proved_cones(fam):
    from toricsheaves.family import _proved_monotone

    return [i for i, g in fam.corners if _proved_monotone(g)]


def certified_path_fans():
    return [projective_plane(), p1_x_p1(), hirzebruch(1), hirzebruch(2),
            random_smooth_complete_fan(random.Random(3), 3)]


def decoder_mutants(text, rng):
    """(name, text) for each edit of a family file the certified path must
    survive: one jump made smaller or different, a jump below lo clamped
    onto the point of a jump, a jump above hi, one cone entry moved by one
    step (a gluing mismatch), and one entry's jumps cut by a hyperplane (a
    top that is not full, in a grid the decoder still proves monotone)."""
    doc = json.loads(text)
    rank = doc["rank"]
    grids = family_from_json(text).corner_map()

    def edited(edit):
        new = json.loads(text)
        entry = rng.choice([e for e in new["cones"] if e["jumps"]] or new["cones"])
        edit(entry)
        return json.dumps(new)

    def smaller(entry):
        jump = rng.choice(entry["jumps"])
        dim = len(jump["basis"])
        jump["basis"] = random_subspace(rng, rank, rng.randrange(max(dim, 1))).basis_str()

    def different(entry):
        jump = rng.choice(entry["jumps"])
        jump["basis"] = random_subspace(rng, rank, len(jump["basis"])).basis_str()

    def clamped(entry):
        lo = entry["lo"]
        if not any(j["at"] == lo for j in entry["jumps"]):
            entry["jumps"].append({"at": lo, "basis": grids[entry["index"]].values[0].basis_str()})
        below = [a - rng.randrange(3, 5) for a in lo]  # no file here has a jump there
        entry["jumps"].append({"at": below, "basis": random_subspace(rng, rank, 1).basis_str()})

    def above_hi(entry):
        at = [rng.randint(a, b) for a, b in zip(entry["lo"], entry["hi"])]
        k = rng.randrange(len(at))
        at[k] = entry["hi"][k] + rng.randrange(3, 5)
        entry["jumps"].append({"at": at, "basis": random_subspace(rng, rank, 1).basis_str()})

    def moved(entry):
        for key in ("lo", "hi"):
            entry[key][0] += 1
        for j in entry["jumps"]:
            j["at"][0] += 1

    def cut(entry):
        plane = random_subspace(rng, rank, rank - 1)
        for j in entry["jumps"]:
            v = SubspaceQ.span([[Fraction(x) for x in row] for row in j["basis"]], rank)
            j["basis"] = v.intersect(plane).basis_str()

    edits = [smaller, different, clamped, above_hi, moved, cut]
    return [(edit.__name__, edited(edit)) for edit in edits if rank > 0]


def certified_path_files():
    """(fan, base, name, text): the files of random families of ranks 1-3 on every
    certified-path fan (random_families draws ranks 1 and 2, random flags
    rank 3), pure families, and every decoder mutant of each; base is
    "valid" or "pure" for each file and for its mutants, name the mutant's."""
    rng = random.Random(163)
    out = []
    for fan in certified_path_fans():
        fams = [fam for rank in (1, 2)
                for fam in random_families(fan, rank, 3, seed=rng.randrange(10 ** 6))]
        fams += [random_flag_family(fan, 3, rng) for _ in range(2)]
        out += [(fan, "valid", family_to_json(fam)) for fam in fams]
        ray = rng.randrange(fan.n_rays())
        out.append((fan, "pure", family_to_json(slab_family(fan, ray, 2))))
        for rank in (1, 2):
            for support in (((),), ((ray,),)):
                doc = random_family_doc(fan, rank, rng, KIND_PURE, support)
                out.append((fan, "pure", json.dumps(doc)))
    out.append((projective_plane(), "pure", family_to_json(two_axes_family(projective_plane()))))
    out = [(fan, name, name, text) for fan, name, text in out]
    out += [(fan, base, name, mutant) for fan, base, _, text in list(out)
            for name, mutant in decoder_mutants(text, rng)]
    return out


def test_certified_path_matches_unrecorded_copies():
    from toricsheaves.family import validate_family

    seen = {}  # name -> [files, reported invalid, some grid proved, some grid not proved]
    for fan, base, name, text in certified_path_files():
        fam = family_from_json(text)
        report = validate_family(fam, fan)
        assert report == validate_family(unrecorded(fam), fan), (name, text)
        proved = proved_cones(fam)
        if base == "valid" and name in ("valid", "above_hi", "moved", "cut"):
            # every torsion-free file the encoder writes is proved monotone, and
            # so it stays after these edits: a moved entry and a cut top then fail
            # validation in grids whose inclusion scan is skipped
            assert len(proved) == len(fam.corners), (name, text)
            assert bool(report) == (name in ("moved", "cut")), (name, report)
        tally = seen.setdefault(name, [0, 0, 0, 0])
        tally[0] += 1
        tally[1] += bool(report)
        tally[2] += bool(proved)
        tally[3] += len(proved) < len(fam.corners)
    assert set(seen) == {"valid", "pure", "smaller", "different", "clamped", "above_hi",
                         "moved", "cut"}
    for name in ("smaller", "different", "clamped"):
        assert min(seen[name]) > 0, (name, seen)


def test_clamped_jump_can_fail_the_proof_of_a_monotone_grid():
    from toricsheaves.family import _inclusion_breaks

    # the y-line below lo joins the x-line at (0, 0) but not the value there,
    # so the x-line jump at (1, 0) misses the join below it though the grid
    # x, x, full is monotone
    text = json.dumps({"kind": "torsion-free", "rank": 2, "cones": [{
        "index": 0, "cone": [0, 1], "lo": [0, 0], "hi": [2, 0], "jumps": [
            {"at": [-1, 0], "basis": [["0", "1"]]},
            {"at": [0, 0], "basis": [["1", "0"]]},
            {"at": [1, 0], "basis": [["1", "0"]]},
            {"at": [2, 0], "basis": [["1", "0"], ["0", "1"]]},
        ]}]})
    fam = family_from_json(text)
    grid = fam.corners[0][1]
    x = SubspaceQ.span([(1, 0)], 2)
    assert grid.values == (x, x, SubspaceQ.full(2))
    assert proved_cones(fam) == []
    assert list(_inclusion_breaks(grid, drop_ok=False)) == []


def test_family_json_total_box_cap(p2, monkeypatch):
    from toricsheaves import family
    from toricsheaves.family import MAX_FAMILY_POINTS

    doc = json.loads(family_to_json(rank2_three_lines(p2)))
    lo = doc["cones"][1]["lo"]
    doc["cones"][1]["hi"] = [lo[0] + 99, lo[1] + 99]  # one full cone and two small ones
    assert MAX_FAMILY_POINTS == 20_000
    family_from_json(json.dumps(doc))
    big = [{"index": i, "cone": [0, 1], "lo": [0, 0], "hi": [99, 99],
            "jumps": [{"at": [0, 0], "basis": [["1"]]}]} for i in range(200)]
    text = json.dumps({"kind": "torsion-free", "rank": 1, "cones": big})
    # every box is counted before any grid is built
    monkeypatch.setattr(family, "_grid_from_jumps", None)
    with pytest.raises(ValueError, match="^family file: its cone boxes hold 2000000 points in "
                                         "all; at most 20000 are accepted$"):
        family_from_json(text)
    text = json.dumps({"kind": "torsion-free", "rank": 1, "cones": big[:2] + [
        {"index": 2, "cone": [0, 2], "lo": [0, 0], "hi": [0, 0], "jumps": []}]})
    with pytest.raises(ValueError, match="hold 20001 points in all"):
        family_from_json(text)
