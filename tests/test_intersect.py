import gc
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    class_equal_by_fractions,
    find_ample_by_sorting,
    is_nef,
    lattice_point_count,
    line_bundle_family,
    pair_by_fractions,
    ray_degrees,
)
from toricsheaves import fan as fan_module
from toricsheaves import intersect
from toricsheaves.chern import hilbert_polynomial
from toricsheaves.intersect import (
    ample_degrees,
    divisor,
    divisor_class_equal,
    find_ample,
    intersection_table,
    is_ample,
    pair,
)
from toricsheaves.fan import (
    Fan,
    cone_count_identity,
    euler_characteristic,
    hirzebruch,
    p1_x_p1,
    projective_plane,
)
from toricsheaves.moduli import enumerate_gauge_fixed_chi, rank1_fixed_point_series
from toricsheaves.sampling import random_smooth_complete_fan
from toricsheaves.subspace import SubspaceQ


def oracle_self_intersections(fan):
    """Independent wall-relation solve: n_{i-1} + n_{i+1} = a_i n_i."""
    n = fan.n_rays()
    out = []
    for i in range(n):
        s = tuple(
            fan.rays[(i - 1) % n][k] + fan.rays[(i + 1) % n][k] for k in range(2)
        )
        ray = fan.rays[i]
        cands = [
            Fraction(s[k], ray[k]) for k in range(2) if ray[k] != 0
        ]
        a = cands[0]
        assert all(c == a for c in cands) or s == (0, 0)
        if s == (0, 0):
            a = Fraction(0)
        out.append(-a)
    return out


def oracle_lattice_count(coeffs, fan, radius=40):
    """Brute scan of a large fixed box, independent of the vertex solve."""
    count = 0
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            if all(
                x * r[0] + y * r[1] >= -c for r, c in zip(fan.rays, coeffs)
            ):
                count += 1
    return count


def unit(j, n):
    return tuple(Fraction(1 if i == j else 0) for i in range(n))


def test_tables_match_wall_relation(corpus, tables):
    for name, fan in corpus.items():
        t = tables[name]
        expected = oracle_self_intersections(fan)
        for i in range(fan.n_rays()):
            assert t.matrix[i][i] == expected[i]


def test_adjacency_pairings(corpus, tables):
    for name, fan in corpus.items():
        t = tables[name]
        n = fan.n_rays()
        adjacent = {frozenset(c) for c in fan.max_cones}
        for i in range(n):
            for j in range(n):
                if i != j:
                    want = 1 if frozenset((i, j)) in adjacent else 0
                    assert t.matrix[i][j] == want


def test_p2_table(p2, tables):
    t = tables["p2"]
    assert all(t.matrix[i][j] == 1 for i in range(3) for j in range(3))
    h = unit(0, 3)
    assert pair(h, h, t) == 1


def test_p1p1_pairings(tables):
    t = tables["p1xp1"]
    f1_, f2_ = unit(0, 4), unit(1, 4)
    assert pair(f1_, f2_, t) == 1
    assert pair(f1_, f1_, t) == 0


def test_pair_bilinear_zero(tables):
    t = tables["p2"]
    a = (Fraction(2), Fraction(-1), Fraction(3))
    zero = (Fraction(0),) * 3
    assert pair(a, zero, t) == 0


def test_p2_anticanonical_is_3h(p2):
    minus_k = (1, 1, 1)  # K = -(V_0 + V_1 + V_2)
    assert divisor_class_equal(minus_k, (3, 0, 0), p2)
    assert not divisor_class_equal(minus_k, (2, 0, 0), p2)


def test_noether_k_squared_is_12_minus_rays(corpus):
    # on a smooth complete toric surface with n rays, K^2 = 12 - e = 12 - n;
    # with K = -(V_0 + ... + V_{n-1}) it is the sum of all table entries
    fans = dict(corpus, f2=hirzebruch(2), f3=hirzebruch(3))
    for seed in range(30):
        fans[f"blowup-{seed}"] = random_smooth_complete_fan(random.Random(seed), 1 + seed % 4)
    for name, fan in fans.items():
        n = fan.n_rays()
        t = intersection_table(fan)
        assert sum(map(sum, t.matrix)) == 12 - n, name
        k = (-1,) * n
        assert pair(k, k, t) == 12 - n, name


def test_lattice_counts_match_oracle(corpus):
    cases = {
        "p2": [[1, 0, 0], [0, 0, 0], [2, 0, 0], [1, 1, 1]],
        "p1xp1": [[1, 1, 0, 0], [2, 3, 0, 0], [0, 0, 0, 0]],
        "f1": [[0, 1, 0, 1], [1, 1, 0, 2]],
    }
    for name, divisors in cases.items():
        fan = corpus[name]
        for coeffs in divisors:
            if not is_nef(coeffs, fan):
                continue
            assert lattice_point_count(coeffs, fan) == oracle_lattice_count(coeffs, fan)


def test_lattice_count_examples(p2, p1p1):
    assert lattice_point_count([1, 0, 0], p2) == 3
    assert lattice_point_count([0, 0, 0], p2) == 1
    assert lattice_point_count([2, 3, 0, 0], p1p1) == 12


def test_non_nef_refused(p2):
    with pytest.raises(ValueError):
        lattice_point_count([-1, 0, 0], p2)


def chi_of_line_bundle(coeffs, fan, ample):
    """chi(O(D)): the constant term of the Hilbert polynomial of O(D)."""
    return hilbert_polynomial(line_bundle_family(fan, tuple(coeffs)), fan, ample).coeff(0)


def test_chi_equals_lattice_count_for_nef(corpus, amples):
    # exact Riemann-Roch against the independent point count, t = 0..5
    for name, fan in corpus.items():
        h = amples[name]
        base = [0] * fan.n_rays()
        for t in range(6):
            d = [b + t * int(hh) for b, hh in zip(base, h)]
            assert chi_of_line_bundle(d, fan, h) == lattice_point_count(d, fan)


def test_chi_p2_quadratic(p2):
    vals = [chi_of_line_bundle([t, 0, 0], p2, (1, 0, 0)) for t in (0, 1, 2)]
    assert vals == [1, 3, 6]


def test_degree_invariant_under_relations(corpus, tables):
    rng = random.Random(3)
    for name, fan in corpus.items():
        t = tables[name]
        n = fan.n_rays()
        for _ in range(25):
            d = [Fraction(rng.randrange(-3, 4)) for _ in range(n)]
            u = [rng.randrange(-3, 4) for _ in range(2)]
            rel = [
                Fraction(u[0] * fan.rays[j][0] + u[1] * fan.rays[j][1])
                for j in range(n)
            ]
            d2 = [a + b for a, b in zip(d, rel)]
            assert divisor_class_equal(d, d2, fan)
            # a relation is principal, so it meets every divisor in degree 0
            e = [Fraction(rng.randrange(-2, 3)) for _ in range(n)]
            assert pair(rel, e, t) == 0
            assert pair(d, e, t) == pair(d2, e, t)


def test_ample_positive_on_all_rays(corpus, amples, tables):
    for name, fan in corpus.items():
        h = amples[name]
        t = tables[name]
        assert is_ample(h, fan)
        assert pair(h, h, t) > 0
        for j in range(fan.n_rays()):
            assert pair(h, unit(j, fan.n_rays()), t) > 0


def _ample_outcome(search, fan):
    try:
        return search(fan)
    except ValueError as e:
        return str(e)


def test_find_ample_matches_sorting_oracle(corpus):
    # the fan of seven rays that no divisor of sup-norm <= 4 polarizes
    unpolarized = Fan.make(2, [(1, 0), (2, 1), (3, 2), (1, 1), (0, 1), (-1, 1), (0, -1)],
                           [(i, (i + 1) % 7) for i in range(7)])
    fans = dict(corpus, **{f"f{a}": hirzebruch(a) for a in range(4)}, seven=unpolarized)
    sevens = 0
    for seed in range(40):
        fan = random_smooth_complete_fan(random.Random(seed), 1 + seed % 3)
        # the oracle lists 5^n vectors at radius 4, so take few fans of 7 rays
        if fan.n_rays() == 7:
            if sevens == 2:
                continue
            sevens += 1
        fans[f"blowup-{seed}"] = fan
    outcomes = {name: _ample_outcome(find_ample, fan) for name, fan in fans.items()}
    assert outcomes == {name: _ample_outcome(find_ample_by_sorting, fan)
                        for name, fan in fans.items()}
    assert outcomes["seven"] == "no small ample divisor found"
    assert {fan.n_rays() for fan in fans.values()} == {3, 4, 5, 6, 7}


def test_find_ample_on_eight_rays_keeps_no_vector_list():
    fan = random_smooth_complete_fan(random.Random(0), 4)
    intersection_table(fan)
    tracemalloc.start()
    try:
        h = find_ample(fan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h == (2, 3, 2, 2, 3, 2, 4, 3)
    # listing the 5^8 vectors of radius 4 and sorting them took about 66 MiB
    assert peak < 1 << 20


def test_find_ample_refuses_twelve_rays_in_bounded_time():
    fan = random_smooth_complete_fan(random.Random(11), 8)
    assert fan.n_rays() == 12
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^no small ample divisor found$"):
        find_ample(fan)
    assert time.perf_counter() - t0 < 1.0


def test_table_is_integral_and_pair_exact(corpus):
    fans = dict(corpus, f2=hirzebruch(2))
    for seed in range(6):
        fans[f"blowup-{seed}"] = random_smooth_complete_fan(random.Random(seed), 1 + seed % 3)
    for name, fan in fans.items():
        t = intersection_table(fan)
        assert all(type(x) is int for row in t.matrix for x in row), name
        ones = [1] * fan.n_rays()
        value = pair(ones, ones, t)
        assert type(value) is Fraction and value == sum(map(sum, t.matrix)), name
        h = find_ample(fan)
        deg = ample_degrees(h, fan)
        assert all(type(d) is int and d > 0 for d in deg), name
        assert deg == ray_degrees(h, t), name


def test_ample_degrees_keep_fractions_and_refuse_non_ample(p2):
    assert ample_degrees([Fraction(1, 2), 0, 0], p2) == (Fraction(1, 2),) * 3
    assert ample_degrees([1, 1, 0], p2) == (2, 2, 2)
    with pytest.raises(ValueError, match="polarization is not ample"):
        ample_degrees([1, -1, 0], p2)
    with pytest.raises(ValueError, match="divisor has 2 coefficients"):
        ample_degrees([1, 0], p2)


def ample_degrees_by_fractions(ample, fan):
    """The Fraction route ample_degrees replaced: the ray degrees of
    divisor(ample), checked positive, ints where integral."""
    table = intersection_table(fan)
    deg = ray_degrees(divisor(ample, fan), table)
    if not all(x > 0 for x in deg):
        raise ValueError("polarization is not ample")
    return tuple(x.numerator if x.denominator == 1 else x for x in deg)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        return type(e).__name__, str(e)


def test_ample_degrees_match_fraction_route(corpus):
    fans = dict(corpus, f2=hirzebruch(2))
    for blowups in (1, 2, 3):
        fans[f"blowup-{blowups}"] = random_smooth_complete_fan(random.Random(blowups), blowups)
    rng = random.Random(23)
    kinds = set()
    for fan in fans.values():
        h = find_ample(fan)
        n = fan.n_rays()
        amples = [h, [int(x) for x in h], [2 * x for x in h], [True] + [int(x) for x in h[1:]],
                  [Fraction(x, 2) for x in h], [Fraction(x, 3) + Fraction(1, 7) for x in h],
                  [f"{x}/2" for x in h], [" 3/4 "] * n, [float(x) / 4 for x in h],
                  [Fraction(1, 5)] + list(h[1:]), [0] * n, [1] + [-1] * (n - 1),
                  list(h[:-1]), list(h) + [1], ["x/2"] * n, [None] * n, ["1/0"] * n]
        for _ in range(20):
            amples.append([rng.choice([0, 1, 2, -1, Fraction(rng.randint(-3, 7), rng.randint(1, 6)),
                                       f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"])
                           for _ in range(n)])
        for ample in amples:
            got = _outcome(ample_degrees, ample, fan)
            assert got == _outcome(ample_degrees_by_fractions, ample, fan), ample
            if isinstance(got, tuple) and isinstance(got[0], str):
                kinds.add(" ".join([got[0]] + got[1].split()[:2]))
                continue
            kinds.add(tuple(sorted({type(d).__name__ for d in got})))
            assert [type(d) for d in got] == [type(d) for d in ample_degrees_by_fractions(ample, fan)]
            rr = intersect.riemann_roch_degrees(ample, fan)
            table = intersection_table(fan)
            assert rr.h_td == Fraction(sum(got), 2)
            assert rr.h_sq == pair(divisor(ample, fan), divisor(ample, fan), table) / 2
            assert rr.ak == tuple(sum(row) for row in table.matrix)
    assert kinds == {("int",), ("Fraction",), ("Fraction", "int"),
                     "ValueError polarization is", "ValueError divisor has",
                     "ValueError Invalid literal", "TypeError argument should",
                     "ZeroDivisionError Fraction(1, 0)"}
    # the surface check comes first, then the length, then the ampleness
    cube = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    for f in (ample_degrees, ample_degrees_by_fractions):
        with pytest.raises(ValueError, match="surfaces only"):
            f([1, 0], cube)
        with pytest.raises(ValueError, match="divisor has 2 coefficients"):
            f([-1, "x"], fans["p2"])
        with pytest.raises(ValueError, match="Invalid literal"):
            f([-1, "x", 0], fans["p2"])


def is_ample_by_fractions(d, fan):
    """The Fraction route is_ample replaced: every ray degree of divisor(d) positive."""
    table = intersection_table(fan)
    return all(x > 0 for x in ray_degrees(divisor(d, fan), table))


def is_nef_by_fractions(d, fan):
    table = intersection_table(fan)
    return all(x >= 0 for x in ray_degrees(divisor(d, fan), table))


def test_ample_and_nef_match_fraction_route(corpus, monkeypatch):
    fans = dict(corpus, f2=hirzebruch(2), f3=hirzebruch(3))
    for blowups in (1, 2, 3):
        fans[f"blowup-{blowups}"] = random_smooth_complete_fan(random.Random(blowups), blowups)
    rng = random.Random(29)
    verdicts = set()
    for fan in fans.values():
        h = find_ample(fan)
        n = fan.n_rays()
        ds = [h, [int(x) for x in h], [0] * n, [1] + [0] * (n - 1), [1] * n, [-1] * n,
              [Fraction(x, 3) for x in h], [f"{x}/2" for x in h], [float(x) / 4 for x in h],
              [True] + [0] * (n - 1), list(h[:-1]), ["x"] * n, [None] * n, ["1/0"] * n]
        ds += [[rng.choice([0, 1, 2, -1, Fraction(rng.randint(-3, 7), rng.randint(1, 6)),
                            f"{rng.randint(-2, 9)}/{rng.randint(1, 9)}"]) for _ in range(n)]
               for _ in range(40)]
        for d in ds:
            for fast, slow in ((is_ample, is_ample_by_fractions), (is_nef, is_nef_by_fractions)):
                got = _outcome(fast, d, fan)
                assert got == _outcome(slow, d, fan), (fast.__name__, d)
                assert type(got) is bool or type(got) is tuple
                verdicts.add((fast.__name__, got if type(got) is bool else got[0]))
    assert verdicts == {(f, v) for f in ("is_ample", "is_nef")
                        for v in (True, False, "ValueError", "TypeError", "ZeroDivisionError")}
    # the surface check comes first, then the length, then the entries
    cube = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    for f in (is_ample, is_nef, is_ample_by_fractions, is_nef_by_fractions):
        with pytest.raises(ValueError, match="surfaces only"):
            f(["x"], cube)
        with pytest.raises(ValueError, match="divisor has 2 coefficients"):
            f([-1, "x"], fans["p2"])
        with pytest.raises(ValueError, match="Invalid literal"):
            f([-1, "x", 0], fans["p2"])
    # find_ample keeps its search and its result
    found = [find_ample(fan) for fan in fans.values()]
    monkeypatch.setattr(intersect, "is_ample", is_ample_by_fractions)
    assert [find_ample(fan) for fan in fans.values()] == found


def test_integral_polarization_builds_no_fraction(corpus, monkeypatch):
    # find_ample's Fractions have denominator 1; they and plain ints are read as they are
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    for fan in corpus.values():
        h = find_ample(fan)
        intersection_table(fan)
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counted)
            for ample in (h, [int(x) for x in h]):
                rr = intersect.riemann_roch_degrees(ample, fan)
                assert rr.e == 1 and all(type(d) is int for d in rr.h)
                assert ample_degrees(ample, fan) == rr.h
            assert built == []
            ample_degrees([Fraction(1, 2)] + list(h[1:]), fan)
            assert built  # the count sees a rational H
        del built[:]


def test_divisor_length_checked(p2):
    with pytest.raises(ValueError):
        divisor([1, 2], p2)


def class_equal_by_relation_space(d1, d2, fan):
    """Oracle: D1 - D2 lies in the rational span of the relations
    (<e_k, v_j>)_j, by elimination."""
    n = fan.n_rays()
    relations = SubspaceQ.span(
        [[Fraction(fan.rays[j][k]) for j in range(n)] for k in range(fan.rank)], n
    )
    return relations.contains_vector([Fraction(a) - Fraction(b) for a, b in zip(d1, d2)])


def test_divisor_class_equal_matches_relation_space(corpus):
    rng = random.Random(29)
    fans = dict(corpus, f2=hirzebruch(2), blowup=random_smooth_complete_fan(random.Random(5), 2))
    for name, fan in fans.items():
        n = fan.n_rays()
        matches = 0
        for trial in range(200):
            d1 = [rng.randrange(-4, 5) for _ in range(n)]
            if trial % 2:
                # a relation plus a perturbation that is zero half the time
                u = [Fraction(rng.randrange(-6, 7), rng.choice([1, 1, 2, 3])) for _ in range(2)]
                d2 = [a + u[0] * v[0] + u[1] * v[1] for a, v in zip(d1, fan.rays)]
                if trial % 4 == 1:
                    d2[rng.randrange(n)] += Fraction(rng.choice([-1, 1]), rng.choice([1, 2]))
            else:
                d2 = [rng.randrange(-4, 5) for _ in range(n)]
            want = class_equal_by_relation_space(d1, d2, fan)
            assert divisor_class_equal(d1, d2, fan) == want, (name, d1, d2)
            matches += want
        assert 40 <= matches < 200, name


def test_pair_and_class_test_match_fraction_oracles(corpus):
    """pair and divisor_class_equal on cleared denominators agree with the
    Fraction routes they replaced, on integral, half-integral and rational
    divisors given as ints, as Fractions or mixed, zero vectors included."""
    fans = dict(corpus, f2=hirzebruch(2))
    for blowups in (1, 2, 3):
        fans[f"blowup-{blowups}"] = random_smooth_complete_fan(random.Random(blowups), blowups)
    rng = random.Random(31)
    entry = {
        "int": lambda: rng.randint(-4, 4),
        "integral": lambda: Fraction(rng.randint(-4, 4)),
        "half": lambda: Fraction(rng.randint(-9, 9), 2),
        "rational": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
    }
    mixes = [["int"], ["integral"], ["half"], ["rational"], ["int", "half"],
             ["int", "rational"], ["integral", "half", "rational"]]
    for name, fan in fans.items():
        n = fan.n_rays()
        table = intersection_table(fan)
        ds = [[0] * n, [Fraction(0)] * n]
        ds += [[entry[rng.choice(kinds)]() for _ in range(n)] for kinds in mixes for _ in range(4)]
        # d plus a relation (<u, v_j>)_j with u integral, half-integral or rational,
        # and that sum moved off the class at one ray
        shifted = []
        for d in ds:
            u = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(2)]
            moved = [x + u[0] * v[0] + u[1] * v[1] for x, v in zip(d, fan.rays)]
            shifted.append((d, moved))
            moved = list(moved)
            moved[rng.randrange(n)] += Fraction(1, rng.choice([1, 2, 5]))
            shifted.append((d, moved))
        verdicts = set()
        for a in ds:
            for b in ds:
                got = pair(a, b, table)
                assert type(got) is Fraction and got == pair_by_fractions(a, b, table), (name, a, b)
                same = divisor_class_equal(a, b, fan)
                assert same == class_equal_by_fractions(a, b, fan), (name, a, b)
                verdicts.add(same)
        for a, b in shifted:
            for x, y in ((a, b), (b, a)):
                same = divisor_class_equal(x, y, fan)
                assert same == class_equal_by_fractions(x, y, fan), (name, x, y)
                verdicts.add(same)
        assert verdicts == {True, False}, name
    # the length errors are those of the Fraction routes
    p2 = fans["p2"]
    table = intersection_table(p2)
    for f in (pair, pair_by_fractions):
        for a, b in (([1, 0], [1, 0, 0]), ([1, 0, 0], [Fraction(1, 2)] * 4), ([], [])):
            with pytest.raises(ValueError, match="^divisor length does not match the fan$"):
                f(a, b, table)
    cube = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    for f in (divisor_class_equal, class_equal_by_fractions):
        for a, b in (([1, 0], [1, 0, 0]), ([1, 0, 0], [Fraction(1, 2)] * 4)):
            with pytest.raises(ValueError, match="^divisor length does not match the fan$"):
                f(a, b, p2)
        with pytest.raises(ValueError, match="surfaces only"):
            f([1], [1, 2], cube)


# --- one table per fan ---------------------------------------------------------

def test_equal_fans_share_one_table():
    assert intersection_table(projective_plane()) is intersection_table(projective_plane())
    assert intersection_table(hirzebruch(1)) is not intersection_table(p1_x_p1())


@pytest.mark.parametrize("fan", [
    # incomplete: a maximal cone is missing
    Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)]),
    # not smooth: |det| = 2
    Fan.make(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (2, 0)]),
    # not a surface
    Fan.make(1, [(1,), (-1,)], [(0,), (1,)]),
])
def test_invalid_fan_raises_on_every_call(fan, monkeypatch):
    """Every fan-validating entry refuses an invalid fan, with validate_fan's
    report, and the entries that need a surface refuse any other rank, on
    every call; validate_fan runs once per fan object whatever entries are
    called, and again for an equal fan that is a new object."""
    report = fan_module.validate_fan(fan)
    calls = []
    monkeypatch.setattr(fan_module, "validate_fan",
                        lambda f, real=fan_module.validate_fan: calls.append(f) or real(f))
    refused = [intersection_table, lambda f: rank1_fixed_point_series(f, 3),
               lambda f: enumerate_gauge_fixed_chi(f, 1, [0] * f.n_rays(), 1)]
    accepted = [euler_characteristic, lambda f: cone_count_identity(f, ())]
    message = "surfaces only$"
    if report:
        refused, accepted = refused + accepted, []
        message = "^invalid fan: " + re.escape("; ".join(report)) + "$"
    for _ in range(2):
        fan = Fan.make(fan.rank, fan.rays, fan.max_cones)
        del calls[:]
        for _ in range(3):
            for entry in refused:
                with pytest.raises(ValueError, match=message):
                    entry(fan)
            for entry in accepted:
                entry(fan)
        assert [f is fan for f in calls] == [True]
        assert fan not in intersect._TABLES


def test_table_memo_forgets_dropped_fans():
    gc.collect()
    before = len(intersect._TABLES)
    rng = random.Random(53)
    for _ in range(50):
        fan = random_smooth_complete_fan(rng, rng.randrange(1, 4))
        zero = [0] * fan.n_rays()
        assert lattice_point_count(zero, fan) == 1
        assert fan in intersect._TABLES
        del fan
    gc.collect()
    assert len(intersect._TABLES) <= before
