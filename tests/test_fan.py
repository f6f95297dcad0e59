import itertools
import random
import types

import pytest

from toricsheaves.family import _Faces
from toricsheaves.fan import (
    ConeIndex,
    Fan,
    cone_count_identity,
    cone_index,
    euler_characteristic,
    fan_from_json,
    fan_to_json,
    hirzebruch,
    p1_x_p1,
    projective_plane,
    star,
    validate_fan,
)
from toricsheaves.sampling import random_smooth_complete_fan


def test_p2_valid(p2):
    assert validate_fan(p2) == []


def test_missing_cone_reported():
    fan = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    report = validate_fan(fan)
    assert any("complete" in r for r in report)


def test_nonprimitive_ray_reported():
    fan = Fan.make(2, [(2, 0), (0, 1)], [(0, 1)])
    report = validate_fan(fan)
    assert any("primitive" in r for r in report)


def test_star_of_ray(p2):
    assert star(p2, (0,)) == [(0,), (0, 1), (0, 2)]


def test_star_of_apex_is_everything(p2):
    assert len(star(p2, ())) == 7  # apex + 3 rays + 3 maximal cones


def test_star_of_maximal_cone(p2):
    assert star(p2, (0, 1)) == [(0, 1)]


def test_star_monotone(p2, p1p1):
    for fan in (p2, p1p1):
        for tau in fan.cones():
            for sigma in fan.cones():
                if set(tau) <= set(sigma):
                    assert set(star(fan, sigma)) <= set(star(fan, tau))


def test_cone_count_identity_examples(p2, p1p1):
    assert cone_count_identity(p2, (0,)) == 1
    assert cone_count_identity(p2, ()) == 1
    for j in range(4):
        assert cone_count_identity(p1p1, (j,)) == 1


def test_cone_count_identity_property():
    fans = [projective_plane(), p1_x_p1()] + [hirzebruch(a) for a in (1, 2, 3)]
    rng = random.Random(5)
    fans += [random_smooth_complete_fan(rng, blowups=rng.randrange(0, 4)) for _ in range(10)]
    for fan in fans:
        assert validate_fan(fan) == []
        for tau in fan.cones():
            assert cone_count_identity(fan, tau) == 1


def test_euler_characteristic(p2, p1p1, f1):
    assert euler_characteristic(p2) == 3
    assert euler_characteristic(p1p1) == 4
    assert euler_characteristic(f1) == 4


def test_surface_ray_cone_counts():
    rng = random.Random(9)
    for _ in range(10):
        fan = random_smooth_complete_fan(rng, blowups=rng.randrange(0, 4))
        assert len(fan.rays) == len(fan.max_cones)
        assert euler_characteristic(fan) == len(fan.rays)


def test_unknown_cone_rejected(p2):
    with pytest.raises(ValueError):
        star(p2, (0, 1, 2))


def test_json_round_trip(p2):
    assert fan_from_json(fan_to_json(p2)) == p2


def test_bad_json_rejected():
    with pytest.raises(ValueError):
        fan_from_json("{not json")
    with pytest.raises(ValueError):
        fan_from_json('{"rank": 2, "rays": []}')


def test_p3_fan_rank3():
    # fan combinatorics is rank-generic: the projective 3-space fan
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    fan = Fan.make(3, rays, cones)
    assert validate_fan(fan) == []
    assert euler_characteristic(fan) == 4
    for tau in fan.cones():
        assert cone_count_identity(fan, tau) == 1


def test_p3_fan_missing_cone():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    fan = Fan.make(3, rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert any("complete" in r for r in validate_fan(fan))


def test_rays_out_of_cyclic_order_rejected():
    # correct cone combinatorics but rays listed out of angular order
    fan = Fan.make(2, [(1, 0), (-1, -1), (0, 1)], [(0, 2), (1, 2), (0, 1)])
    assert validate_fan(fan) != []


# --- the cone index against the scans it replaced -------------------------------

def cones_by_scan(fan):
    """Fan.cones as it enumerated the cones on every call: every subset of
    every maximal cone, sorted by dimension and then lexicographically."""
    seen = set()
    for mc in fan.max_cones:
        m = len(mc)
        for mask in range(1 << m):
            seen.add(tuple(mc[i] for i in range(m) if mask >> i & 1))
    return sorted(seen, key=lambda c: (len(c), c))


def face_source(cmap, nu, fan):
    """The source a face reader gives for nu over the corner map cmap, or None
    where it falls back to the empty face."""
    x = types.SimpleNamespace(corner_map=lambda: cmap, empty_face=lambda nu: None)
    grid, positions = _Faces(x, fan).source(nu)
    return None if grid is None else (grid, positions)


def face_source_by_scan(cmap, nu, fan):
    """face_source as it scanned the maximal cones on every call: the first
    index in cmap whose maximal cone contains the rays of nu."""
    for i in sorted(cmap):
        mc = fan.max_cones[i]
        if set(nu) <= set(mc):
            return cmap[i], [mc.index(j) for j in nu]
    return None


def index_by_scan(fan):
    """The cone index written out from its definition, by the same scans."""
    cones = tuple(cones_by_scan(fan))
    return ConeIndex(cones, {
        nu: tuple((i, tuple(mc.index(j) for j in nu))
                  for i, mc in enumerate(fan.max_cones) if set(nu) <= set(mc))
        for nu in cones})


def _index_oracle_fans():
    rank3 = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                     [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    randoms = [random_smooth_complete_fan(random.Random(seed), blowups=seed % 4)
               for seed in range(6)]
    return [projective_plane(), p1_x_p1(), hirzebruch(1), hirzebruch(2), *randoms, rank3]


def test_cone_index_matches_scan():
    checked = 0
    for fan in _index_oracle_fans():
        assert fan.cones() == tuple(cones_by_scan(fan))
        assert cone_index(fan) == index_by_scan(fan)
        n = len(fan.max_cones)
        # every non-empty set of maximal cones, as the partial maps of pure families carry
        for size in range(1, n + 1):
            for present in itertools.combinations(range(n), size):
                cmap = {i: f"grid {i}" for i in present}
                for nu in fan.cones():
                    # also reordered, and with a repeated ray
                    for cone in {nu, nu[::-1], nu + nu[:1]}:
                        want = face_source_by_scan(cmap, cone, fan)
                        got = face_source(cmap, cone, fan)
                        assert got == (None if want is None else (want[0], tuple(want[1])))
                        checked += 1
    assert checked > 9_000
    # a ray set that is no cone is refused
    p2 = projective_plane()
    with pytest.raises(ValueError, match=r"^\[0, 1, 2\] is not a cone of the fan$"):
        face_source({0: "g", 1: "g", 2: "g"}, (0, 1, 2), p2)


def test_cone_index_built_once_per_equal_fan():
    a, b = hirzebruch(1), hirzebruch(1)
    assert a is not b
    assert cone_index(a) is cone_index(b)
    assert a.cones() is b.cones()
    # the stored cones cannot be changed through what cones() returns
    with pytest.raises((TypeError, AttributeError)):
        a.cones().append((0,))
    with pytest.raises(TypeError):
        cone_index(a).containers[(0,)] = ()
    assert cone_index(a) == index_by_scan(a)


def det_by_cofactors(rows):
    """The determinant by expansion along the first row, as validate_fan
    computed it before fraction-free elimination."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * det_by_cofactors([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def test_det_matches_cofactor_expansion():
    from toricsheaves.fan import _det

    rng = random.Random(167)
    seen = {"zero": 0, "unit": 0, "other": 0}
    for _ in range(2000):
        n = rng.randint(1, 6)
        # many zero entries, so pivots are often zero and rows get swapped
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n)] for _ in range(n)]
        d = _det(rows)
        assert d == det_by_cofactors(rows), rows
        seen["zero" if d == 0 else "unit" if abs(d) == 1 else "other"] += 1
    assert min(seen.values()) > 0, seen
    big = [[2 ** 70 + i * j for j in range(4)] for i in range(4)]
    assert _det(big) == det_by_cofactors(big)


def test_validate_fan_in_high_rank_is_polynomial():
    """Each maximal cone's determinant costs O(r^3), not O(r!): P^12 (13
    cones of 12 rays) validates at once, and a cone with a doubled ray is
    caught as not smooth."""
    n = 12
    rays = [[int(i == k) for i in range(n)] for k in range(n)] + [[-1] * n]
    fan = Fan.make(n, rays, itertools.combinations(range(n + 1), n))
    assert validate_fan(fan) == []
    rays[0] = [2] + [0] * (n - 1)
    report = validate_fan(Fan.make(n, rays, fan.max_cones))
    assert sum("not smooth: |det| = 2" in r for r in report) == n  # every cone with ray 0
