import itertools
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    is_nef,
    lattice_point_count,
    line_bundle_family,
    rank2_three_lines,
    slab_family,
    structure_sheaf,
)
from test_family import (
    ideal_sheaf_of_point,
    oracle_fans,
    random_family_doc,
    random_oracle_families,
    two_axes_family,
)
from toricsheaves import chern, family
from toricsheaves.chern import (
    BracketSlice,
    as_char,
    bracket_dims,
    c1_fast,
    chern_character,
    hilbert_data,
    hilbert_polynomial,
    second_chern_number,
)
from toricsheaves.family import (
    KIND_PURE,
    CharFunction,
    DimGrid,
    box_points,
    characteristic_function,
    family_from_json,
    restrict_to_face,
    tensor_line_bundle,
)
from toricsheaves.intersect import (
    divisor_class_equal,
    find_ample,
    intersection_table,
    pair,
)
from toricsheaves.polynomials import RatPoly
from toricsheaves.sampling import random_families, random_smooth_complete_fan
from toricsheaves.subspace import SubspaceQ


def lagrange_quadratic(points):
    """Exact quadratic through three (x, y) points; the independent oracle
    for Hilbert polynomials of surfaces."""
    (x0, y0), (x1, y1), (x2, y2) = [(Fraction(x), Fraction(y)) for x, y in points]
    c2 = (y2 - y0) / ((x2 - x0) * (x2 - x1)) - (y1 - y0) / ((x1 - x0) * (x2 - x1))
    c1 = (y1 - y0) / (x1 - x0) - c2 * (x0 + x1)
    c0 = y0 - c1 * x0 - c2 * x0 * x0
    return RatPoly.of([c0, c1, c2])


def test_bracket_line_bundle_single_entry(p2):
    lk = line_bundle_family(p2, (1, 2, 0))
    sl = bracket_dims(lk, p2.max_cones[0], p2)
    assert sl.entries == (((-1, -2), 1),)


def test_bracket_structure_sheaf_ray(p2, o_p2):
    sl = bracket_dims(o_p2, (0,), p2)
    assert sl.entries == (((0,), 1),)


def test_bracket_ideal_sheaf(p2):
    fam = ideal_sheaf_of_point(p2, cone_index=0)
    sl = bracket_dims(fam, p2.max_cones[0], p2)
    got = dict(sl.entries)
    assert got == {(0, 1): 1, (1, 0): 1, (1, 1): -1}
    assert sum(v for _, v in sl.entries) == 1


def test_bracket_telescoping(corpus):
    for name, fan in corpus.items():
        for fam in random_families(fan, 2, 10, seed=61):
            for i, grid in fam.corners:
                sl = bracket_dims(fam, fan.max_cones[i], fan)
                assert sum(v for _, v in sl.entries) == grid.value(grid.hi).dim


def test_chern_structure_sheaf(p2, o_p2):
    ch = chern_character(o_p2, p2)
    assert ch.r0 == 1 and all(x == 0 for x in ch.d) and ch.p == 0


def test_chern_line_bundle(p2, tables):
    kvec = (2, 1, -1)
    lk = line_bundle_family(p2, kvec)
    ch = chern_character(lk, p2)
    assert ch.r0 == 1
    assert divisor_class_equal(ch.d, [Fraction(k) for k in kvec], p2)
    assert ch.p == pair(ch.d, ch.d, tables["p2"]) / 2


def test_chern_ideal_sheaf(p2, tables):
    fam = ideal_sheaf_of_point(p2)
    ch = chern_character(fam, p2)
    assert ch.r0 == 1
    assert all(x == 0 for x in ch.d)
    assert ch.p == -1
    assert second_chern_number(ch, tables["p2"]) == 1
    # chi(I_p(tH)) is one section short of chi(O(tH))
    p = hilbert_polynomial(fam, p2, (1, 0, 0))
    for t in range(4):
        assert p(t) == lattice_point_count([t, 0, 0], p2) - 1


def test_c1_fast_equals_chern_degree_one(corpus):
    for name, fan in corpus.items():
        fams = random_families(fan, 2, 15, seed=71) + random_families(fan, 1, 10, seed=73)
        for fam in fams:
            ch = chern_character(fam, fan)
            assert c1_fast(fam, fan) == ch.d


def test_c1_fast_examples(p2, o_p2):
    assert c1_fast(o_p2, p2) == (0, 0, 0)
    lk = line_bundle_family(p2, (3, -2, 1))
    assert c1_fast(lk, p2) == (3, -2, 1)
    # rank-2 reflexive with ray-0 jumps at -1 and 0: contribution +1 V(rho_0)
    full = SubspaceQ.full(2)
    line = SubspaceQ.span([(1, 0)], 2)
    from toricsheaves.family import RayFiltration, reflexive_from_filtrations

    filts = [
        RayFiltration(0, ((-1, line), (0, full))),
        RayFiltration(1, ((0, full),)),
        RayFiltration(2, ((0, full),)),
    ]
    fam = reflexive_from_filtrations(filts, p2)
    assert c1_fast(fam, p2) == (1, 0, 0)


def test_rank_telescoping(corpus):
    for name, fan in corpus.items():
        for rank in (1, 2):
            for fam in random_families(fan, rank, 10, seed=83):
                ch = chern_character(fam, fan)
                assert ch.r0 == rank


def test_hilbert_structure_sheaf_p2(p2):
    p = hilbert_polynomial(structure_sheaf(p2), p2, (1, 0, 0))
    # oracle: quadratic through exact lattice point counts
    pts = [(t, lattice_point_count([t, 0, 0], p2)) for t in (0, 1, 2)]
    oracle = lagrange_quadratic(pts)
    assert p == oracle
    for t in range(6):
        assert p(t) == lattice_point_count([t, 0, 0], p2)


def test_hilbert_matches_lattice_oracle_for_nef(corpus, amples):
    for name, fan in corpus.items():
        h = amples[name]
        n = fan.n_rays()
        kvecs = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        kvecs += [[1] * n, [0] * n]
        for kvec in kvecs:
            if not is_nef(kvec, fan):
                continue
            fam = line_bundle_family(fan, tuple(kvec))
            p = hilbert_polynomial(fam, fan, h)
            for t in range(6):
                d = [k + t * int(x) for k, x in zip(kvec, h)]
                assert p(t) == lattice_point_count(d, fan)


def direct_sum_char(f, g, fan):
    grids = []
    fm, gm = f.corner_map(), g.corner_map()
    for i in sorted(fm):
        a, b = fm[i], gm[i]
        lo = tuple(min(x, y) for x, y in zip(a.lo, b.lo))
        hi = tuple(max(x, y) for x, y in zip(a.hi, b.hi))
        dims = tuple(a.value(lam) + b.value(lam) for lam in box_points(lo, hi))
        grids.append((i, DimGrid(a.cone, lo, hi, dims)))
    return CharFunction(f.rank + g.rank, tuple(grids))


def test_hilbert_additive_on_direct_sums(p2, amples):
    h = amples["p2"]
    a = line_bundle_family(p2, (1, 0, 0))
    b = line_bundle_family(p2, (0, -1, 1))
    chi = direct_sum_char(
        characteristic_function(a), characteristic_function(b), p2
    )
    assert hilbert_polynomial(chi, p2, h) == (
        hilbert_polynomial(a, p2, h) + hilbert_polynomial(b, p2, h)
    )


def test_hilbert_depends_only_on_char_function(p2, amples):
    lines_a = [SubspaceQ.span([v], 2) for v in [(1, 0), (0, 1), (1, 1)]]
    lines_b = [SubspaceQ.span([v], 2) for v in [(1, 2), (2, 1), (1, -1)]]
    fam_a = rank2_three_lines(p2, lines=lines_a)
    fam_b = rank2_three_lines(p2, lines=lines_b)
    assert fam_a != fam_b
    chi_a = characteristic_function(fam_a)
    chi_b = characteristic_function(fam_b)
    assert chi_a.canonical() == chi_b.canonical()
    assert hilbert_polynomial(fam_a, p2, amples["p2"]) == hilbert_polynomial(
        fam_b, p2, amples["p2"]
    )


def test_tensor_twist_c1(corpus):
    rng = random.Random(91)
    for name, fan in corpus.items():
        n = fan.n_rays()
        for fam in random_families(fan, 2, 8, seed=97):
            kvec = tuple(rng.randrange(-2, 3) for _ in range(n))
            lhs = c1_fast(tensor_line_bundle(fam, kvec), fan)
            rhs = tuple(
                a + fam.rank * k for a, k in zip(c1_fast(fam, fan), kvec)
            )
            assert lhs == rhs


def test_rank_degree_slope(p2, amples):
    hd = hilbert_data(line_bundle_family(p2, (3, 0, 0)), p2, amples["p2"])
    assert hd.rank == 1 and hd.degree == 3 and hd.slope == 3
    hd0 = hilbert_data(structure_sheaf(p2), p2, amples["p2"])
    assert hd0.rank == 1 and hd0.degree == 0 and hd0.slope == 0


def hilbert_by_chow_product(x, fan, ample):
    """The Chow-ring route that the closed form of hilbert_polynomial
    replaced: P(t) = deg{ch . exp(tH) . td}_2, with the product ch . td taken
    in the Chow ring, (r, d, p)(r', d', p') = (r r', r d' + r' d,
    r p' + r' p + d.d'), for td = (1, sum_j V_j / 2, 1), and every degree
    paired against H through the intersection table."""
    table = intersection_table(fan)
    ch = chern_character(x, fan)
    td = (1, (Fraction(1, 2),) * fan.n_rays(), 1)
    r0 = ch.r0 * td[0]
    d = [ch.r0 * a + td[0] * b for a, b in zip(td[1], ch.d)]
    p = ch.r0 * td[2] + td[0] * ch.p + pair(ch.d, td[1], table)
    return RatPoly.of([p, pair(d, ample, table), r0 * pair(ample, ample, table) / 2])


def test_hilbert_closed_form_matches_chow_product(corpus, amples):
    fans = [(fan, amples[name]) for name, fan in corpus.items()]
    for s in range(4):
        fan = random_smooth_complete_fan(random.Random(s), 1 + s % 2)
        fans.append((fan, find_ample(fan)))
    checked = 0
    for k, (fan, h) in enumerate(fans):
        table = intersection_table(fan)
        for ample in (h, tuple(Fraction(3 * x, 2) for x in h)):
            for rank in (1, 2):
                for fam in random_families(fan, rank, 10, seed=101 + k):
                    p = hilbert_polynomial(fam, fan, ample)
                    assert p == hilbert_by_chow_product(fam, fan, ample)
                    ch = chern_character(fam, fan)
                    hd = hilbert_data(fam, fan, ample)
                    assert hd.polynomial == p
                    assert hd.rank == ch.r0 == rank
                    assert hd.degree == pair(ch.d, ample, table)
                    checked += 1
    assert checked == len(fans) * 2 * 2 * 10


def test_hilbert_requires_ample(p2, o_p2):
    with pytest.raises(ValueError):
        hilbert_polynomial(o_p2, p2, (0, 0, 0))


def test_bracket_outside_support_star_is_zero(p2):
    from test_family import slab_family

    fam = slab_family(p2, 0)
    sl = bracket_dims(fam, (1, 2), p2)
    assert sl.entries == ()


def test_restrict_apex_gives_saturation(p2, o_p2):
    from toricsheaves.family import restrict_to_face

    grid = restrict_to_face(o_p2, (), p2)
    assert grid.ndim() == 0
    assert grid.value(()).is_full()


# --- brackets read in place against the face-grid route --------------------------


def bracket_dims_by_face_grids(x, cone, fan):
    """The route bracket_dims replaced: cut the face grid with
    restrict_to_face, then sum its clamped values over the 2^t corners."""
    grid = restrict_to_face(as_char(x), cone, fan)
    entries = []
    for lam in box_points(grid.lo, grid.hi):
        total = 0
        for eps in itertools.product((0, 1), repeat=grid.ndim()):
            shifted = tuple(a - e for a, e in zip(lam, eps))
            total += (-1) ** sum(eps) * grid.value(shifted)
        if total != 0:
            entries.append((lam, total))
    return BracketSlice(tuple(sorted(cone)), tuple(entries))


def bracket_oracle_families():
    """(fan, family) over P^2, P^1xP^1, F_1, F_2 and 1-3 blow-ups: reflexive
    and torsion-free families of ranks 1-3, pure families with zero slabs,
    and on every fan a family missing one cone."""
    rng = random.Random(163)
    out = random_oracle_families(rng)
    for fan in oracle_fans():
        out.append((fan, slab_family(fan, 0)))
        out.append((fan, slab_family(fan, fan.n_rays() - 1, 2)))
        for rank in (1, 2):
            ray = rng.randrange(fan.n_rays())
            doc = random_family_doc(fan, rank, rng, KIND_PURE, ((ray,),))
            out.append((fan, family_from_json(json.dumps(doc))))
        fam = next(f for fn, f in out if fn == fan and f.kind != KIND_PURE)
        out.append((fan, replace(fam, corners=fam.corners[1:])))
    return out


def test_brackets_in_place_match_face_grids(p2, monkeypatch):
    cases = bracket_oracle_families()
    cases.append((p2, two_axes_family(p2)))
    seen = {"apex": 0, "ray": 0, "two-cone": 0, "missing": 0, "pure": 0, "rank 3": 0}
    for fan, fam in cases:
        chi = characteristic_function(fam)
        for nu in fan.cones():
            for cone in {nu, nu[::-1]}:
                got = bracket_dims(fam, cone, fan)
                assert got == bracket_dims_by_face_grids(fam, cone, fan), (fam, cone)
                assert bracket_dims(chi, cone, fan) == got
            seen[("apex", "ray", "two-cone")[len(nu)]] += 1
            seen["missing"] += not any(set(nu) <= set(g.cone) for _, g in fam.corners)
        seen["pure"] += fam.kind == "pure"
        seen["rank 3"] += fam.rank == 3
        # chern_character and c1_fast read each cone's brackets through _brackets
        by_face_grids = lambda faces, cone: bracket_dims_by_face_grids(fam, cone, fan)
        with monkeypatch.context() as m:
            m.setattr(chern, "_brackets", by_face_grids)
            ch, c1 = chern_character(fam, fan), c1_fast(fam, fan)
        assert chern_character(fam, fan) == ch and c1_fast(fam, fan) == c1
        ample = find_ample(fan)
        with monkeypatch.context() as m:
            m.setattr(chern, "_brackets", by_face_grids)
            hd = hilbert_data(fam, fan, ample)
        assert hilbert_data(fam, fan, ample) == hd
    assert min(seen.values()) > 0, seen
    # a repeated index reads the last of its coordinates, as the face grid does
    for fan, fam in cases[::7]:
        for cone in ((0, 0), (1, 1, 0), (1, 0, 1)):
            if fan.is_cone(cone):
                assert bracket_dims(fam, cone, fan) == bracket_dims_by_face_grids(fam, cone, fan)
    for fan, fam in cases[:3]:
        for bad in ((0, 1, 2), (0, fan.n_rays())):
            with pytest.raises(ValueError, match=rf"\[{bad[0]}, .*\] is not a cone of the fan"):
                bracket_dims(fam, bad, fan)
            with pytest.raises(ValueError, match=rf"\[{bad[0]}, .*\] is not a cone of the fan"):
                bracket_dims_by_face_grids(fam, bad, fan)


def test_chern_character_builds_no_face_grid(corpus):
    fams = [(fan, fam) for fan in corpus.values() for fam in random_families(fan, 2, 4, seed=167)]
    watched = {family.restrict_to_face.__code__, family._Grid.value.__code__,
               family._Grid.face.__code__}
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            called.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for fan, fam in fams:
            chern_character(fam, fan)
            c1_fast(fam, fan)
    finally:
        sys.setprofile(None)
    assert called == []
    # the same watch sees the face-grid route
    fan, fam = fams[0]
    sys.setprofile(profile)
    try:
        bracket_dims_by_face_grids(fam, (0,), fan)
    finally:
        sys.setprofile(None)
    assert "restrict_to_face" in called and "value" in called
