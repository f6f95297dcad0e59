import functools
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    class_equal_by_fractions,
    class_orbits_by_sorted_twists,
    eta_product,
    series_product,
)
from toricsheaves import intersect, moduli
from toricsheaves.chern import chern_character, second_chern_number
from toricsheaves.family import (
    KIND_TORSION_FREE,
    CornerFamily,
    DeltaFamily,
    characteristic_function,
    family_to_json,
    validate_torsion_free,
)
from toricsheaves.fan import Fan, hirzebruch, projective_plane
from toricsheaves.intersect import (
    ample_degrees,
    find_ample,
    intersection_table,
    unimodular_solve,
)
from toricsheaves.moduli import (
    BoxBoundError,
    IntSeries,
    _class_orbits,
    _flag_patterns,
    _pool_line,
    _profile_hull,
    _profile_verdict,
    _split_c2,
    enumerate_gauge_fixed_chi,
    partition_diagram,
    partitions_of,
    rank1_fixed_point_series,
    rank2_p2_series,
)
from toricsheaves.sampling import random_smooth_complete_fan
from toricsheaves.stability import SEMISTABLE, STABLE, UNSTABLE, mu_test
from toricsheaves.subspace import SubspaceQ

RANK2_P2_COEFFS = (0, 1, 9, 48, 203, 729, 2346, 6918, 19062, 49620)


def oracle_partition_count(n):
    """Independent recursive partition counter p(n)."""
    table = {}

    def p(n, k):
        if n == 0:
            return 1
        if k == 0:
            return 0
        if (n, k) not in table:
            table[(n, k)] = p(n, k - 1) + (p(n - k, min(n - k, k)) if n >= k else 0)
        return table[(n, k)]

    return p(n, n)


# --- series -------------------------------------------------------------------

def test_int_series_ops():
    a = IntSeries(4, (1, 2, 3, 0, 0))
    b = IntSeries(4, (1, -1, 0, 0, 0))
    assert series_product(a, b).coeffs == (1, 1, 1, -3, 0)
    with pytest.raises(ValueError):
        IntSeries(3, (1,))


def test_partition_enumeration_matches_recursion():
    for n in range(9):
        assert sum(1 for _ in partitions_of(n)) == oracle_partition_count(n)


def test_partition_diagram_size():
    for n in range(6):
        for p in partitions_of(n):
            assert len(partition_diagram(p)) == n


def test_rank1_series_examples(p2):
    s = rank1_fixed_point_series(p2, 2)
    assert s.coeffs[1] == 3  # one box at one of 3 fixed points
    assert s.coeffs[2] == 9  # tuples of total size 2 over 3 cones


def test_rank1_series_is_eta_product(corpus):
    for name, fan in corpus.items():
        e = len(fan.max_cones)
        assert rank1_fixed_point_series(fan, 40).coeffs == eta_product(-e, 40), name


def test_rank1_series_is_eta_product_on_blown_up_fans():
    # e(X) = 5, 6 and 7: the power of the partition series follows the fan
    sizes = Counter()
    for seed in range(12):
        rng = random.Random(seed)
        fan = random_smooth_complete_fan(rng, rng.randint(1, 4))
        e = len(fan.max_cones)
        if not 5 <= e <= 7:
            continue
        sizes[e] += 1
        assert rank1_fixed_point_series(fan, 40).coeffs == eta_product(-e, 40), fan.rays
    assert set(sizes) == {5, 6, 7}, sizes


def test_rank1_requires_surface():
    from toricsheaves.fan import Fan

    line = Fan.make(1, [(1,), (-1,)], [(0,), (1,)])
    with pytest.raises(ValueError):
        rank1_fixed_point_series(line, 3)


def test_rank2_p2_series_paper_coefficients():
    assert rank2_p2_series(9).coeffs == RANK2_P2_COEFFS


def test_rank2_p2_series_starts_at_q():
    assert rank2_p2_series(5).coeffs[0] == 0


def p2_inner(order):
    """The double sum sum_{m,n>=1} q^{mn}/(1-q^{m+n-1}), truncated."""
    inner = [0] * (order + 1)
    for m in range(1, order + 1):
        for k in range(1, order + 1):
            if m * k > order:
                break
            e = m * k
            while e <= order:
                inner[e] += 1
                e += m + k - 1
    return IntSeries(order, tuple(inner))


def test_rank2_series_product_round_trip():
    # series * prod(1-q^k)^6 recovers the double sum part
    order = 12
    back = series_product(rank2_p2_series(order), IntSeries(order, eta_product(6, order)))
    assert back == p2_inner(order)


def test_rank2_series_is_inner_times_eta_product():
    for n in range(31):
        assert rank2_p2_series(n) == series_product(p2_inner(n), IntSeries(n, eta_product(-6, n))), n


# --- enumeration -----------------------------------------------------------------

def test_enumerate_rank1_counts_match_series(p2):
    recs = enumerate_gauge_fixed_chi(p2, 1, [0, 0, 0], 2, box_bound=5)
    counts = Counter(int(r.c2) for r in recs)
    series = rank1_fixed_point_series(p2, 2)
    assert counts[0] == series.coeffs[0] == 1
    assert counts[1] == series.coeffs[1] == 3
    assert counts[2] == series.coeffs[2] == 9


def test_enumerate_rank1_c2_zero_is_structure_sheaf(p2, o_p2):
    recs = enumerate_gauge_fixed_chi(p2, 1, [0, 0, 0], 0, box_bound=4)
    assert len(recs) == 1
    assert recs[0].chi.canonical() == characteristic_function(o_p2).trim().canonical()


def test_enumerate_rank1_nonzero_c1(p2):
    recs = enumerate_gauge_fixed_chi(p2, 1, [1, 0, 0], 1, box_bound=5)
    assert len(recs) == 4  # c2 = 0 plus three one-box configurations


def test_enumerate_witnesses_valid(p2):
    for r in enumerate_gauge_fixed_chi(p2, 1, [0, 0, 0], 2, box_bound=5):
        assert validate_torsion_free(r.witness, p2) == []


def test_enumerate_box_independence_rank1(p2):
    a = enumerate_gauge_fixed_chi(p2, 1, [0, 0, 0], 2, box_bound=5)
    b = enumerate_gauge_fixed_chi(p2, 1, [0, 0, 0], 2, box_bound=6)
    assert [r.chi.canonical() for r in a] == [r.chi.canonical() for r in b]


def test_enumerate_box_too_small(p2):
    with pytest.raises(BoxBoundError):
        enumerate_gauge_fixed_chi(p2, 1, [0, 0, 0], 3, box_bound=2)


def test_enumerate_rank_checked(p2):
    with pytest.raises(ValueError):
        enumerate_gauge_fixed_chi(p2, 3, [0, 0, 0], 1)



@pytest.mark.parametrize("rank", [0, -1, 3])
def test_enumerate_rank_error_names_accepted_ranks(p2, rank):
    with pytest.raises(ValueError, match=f"ranks 1 and 2, not rank {rank}$"):
        enumerate_gauge_fixed_chi(p2, rank, [0, 0, 0], 1)


@pytest.mark.parametrize("c1", [
    [1.7, 0, 0],
    [Fraction(3, 2), 0, 0],
    [1.0, 0, 0],
    [True, 0, 0],
    ["1", 0, 0],
])
def test_enumerate_non_integral_c1_rejected(p2, c1):
    for rank, c2_max in ((1, 1), (2, 1), (2, -1)):
        with pytest.raises(ValueError, match="c1 entries must be integers"):
            enumerate_gauge_fixed_chi(p2, rank, c1, c2_max, box_bound=3)


def test_enumerate_integral_fraction_c1_accepted(p2):
    as_ints = enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=3)
    as_fractions = enumerate_gauge_fixed_chi(p2, 2, [Fraction(1), Fraction(0), 0], 1, box_bound=3)
    assert [r.chi.canonical() for r in as_fractions] == [r.chi.canonical() for r in as_ints]
    assert as_ints

def test_enumerate_rank2_q1_stable_point_count(p2):
    # the q^1 coefficient of the rank-2 series counts the single stable
    # point stratum with c1 = H, c2 = 1 (three pairwise distinct lines)
    recs = enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=3)
    total = sum(
        1
        for r in recs
        for s in r.strata
        if s.mu_verdict == "stable" and s.point_component
    )
    assert total == rank2_p2_series(1).coeffs[1] == 1
    for r in recs:
        assert validate_torsion_free(r.witness, p2) == []


def test_enumerate_rank2_box_independence(p2):
    a = enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=3)
    b = enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=4)
    assert [r.chi.canonical() for r in a] == [r.chi.canonical() for r in b]
    assert [sorted(s.pattern for s in r.strata) for r in a] == [
        sorted(s.pattern for s in r.strata) for r in b
    ]


def test_enumerate_rank2_box_7_accepted(p2):
    """P^2 at box 7 (115,200 window points) is within MAX_WINDOW_POINTS and
    gives the records of box 3."""
    a = enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=3)
    b = enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=7)
    assert [(r.c2, r.chi.canonical(), r.strata) for r in a] == [
        (r.c2, r.chi.canonical(), r.strata) for r in b
    ]


def surface_fan(corpus, name):
    """A corpus fan, F_2, dP_6, a one-blow-up fan, or P^2 with its maximal
    cones listed from the second or from the third.  From the second, its
    first cone holds rays 1 and 2, so a twist's lexicographic order is not
    that of its values on the first cone; from the third, the first cone
    (0, 2) has det(v_0, v_2) = -1."""
    if name in ("p2-cones-rotated", "p2-cones-third"):
        p2 = corpus["p2"]
        k = 1 if name == "p2-cones-rotated" else 2
        return Fan(p2.rank, p2.rays, p2.max_cones[k:] + p2.max_cones[:k])
    if name == "f2":
        return hirzebruch(2)
    if name == "blowup":
        return random_smooth_complete_fan(random.Random(1), 1)
    if name == "dp6":  # P^2 blown up at its three fixed points
        rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
        return Fan.make(2, rays, [(j, (j + 1) % 6) for j in range(6)])
    return corpus[name]


def every_orbit(fan, c1, box_bound, viable):
    """_class_orbits with no orbit skipped."""
    return _class_orbits(fan, c1, box_bound, lambda a, gaps: True)


def scan_profiles(fan, c1, box_bound):
    """Oracle: scan every profile (a, gaps) in the window and keep those
    whose class -(2a + gaps) equals c1, by the Fraction class test."""
    n = fan.n_rays()
    window = range(-box_bound, box_bound + 1)
    return [
        (a, gaps)
        for a in itertools.product(window, repeat=n)
        for gaps in itertools.product(range(box_bound + 1), repeat=n)
        if class_equal_by_fractions([-(2 * x + g) for x, g in zip(a, gaps)], c1, fan)
    ]


@pytest.mark.parametrize(
    "surface, c1, max_box",
    [
        pytest.param("p2", [0, 0, 0], 2, id="p2-zero"),
        pytest.param("p2", [2, -1, 3], 2, id="p2-mixed"),
        pytest.param("p1xp1", [0, 0, 0, 0], 1, id="p1xp1-zero"),
        pytest.param("p1xp1", [1, 0, 2, -1], 1, id="p1xp1-mixed"),
        pytest.param("f1", [0, 0, 0, 0], 1, id="f1-zero"),
        pytest.param("f1", [1, 0, 2, -1], 1, id="f1-mixed"),
        pytest.param("p2-cones-rotated", [2, -1, 3], 2, id="p2-cones-rotated"),
        pytest.param("p2-cones-third", [2, -1, 3], 2, id="p2-cones-third"),
        pytest.param("dp6", [1, 0, -1, 2, 0, 1], 1, id="dp6"),
        pytest.param("blowup", [1, -1, 0, 2, 1], 1, id="blowup"),
    ],
)
def test_class_profiles_match_scan(corpus, surface, c1, max_box):
    """_class_orbits keeps, of each gaps, the profile the scan meets first."""
    fan = surface_fan(corpus, surface)
    for box in range(max_box + 1):
        first = {}
        for a, gaps in scan_profiles(fan, c1, box):
            first.setdefault(gaps, (a, gaps))
        assert every_orbit(fan, c1, box, None) == sorted(first.values())


CLASSES = {
    3: ([0, 0, 0], [1, 0, 0], [2, -1, 3]),
    4: ([0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 2, -1]),
    5: ([0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, -1, 0, 2, 1]),
    6: ([0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [1, 0, -1, 2, 0, 1]),
}


def enumeration_viable(fan, c2_max):
    """The viable test _enumerate_rank2 hands _class_orbits: the heaviest
    gap ray within the slope bound, and the split c2 within c2_max."""
    table = intersection_table(fan)
    deg = ample_degrees(find_ample(fan), fan)

    def viable(base, gaps):
        weights = [g * d for g, d in zip(gaps, deg)]
        return (2 * max(weights) <= sum(weights)
                and _split_c2(base, gaps, table.matrix) <= c2_max)
    return viable


@pytest.mark.parametrize("surface", ["p2", "p1xp1", "f1", "f2", "blowup", "dp6",
                                     "p2-cones-rotated", "p2-cones-third"])
def test_class_orbits_match_sorted_twist_search(corpus, surface):
    """_class_orbits reads each orbit's first translate off rays 0 and 1 and
    walks only gaps of the right parity; for boxes 0 to 6 it returns the
    orbits, translates and order of the sorted-twist search it replaced, with
    no orbit skipped and with the enumeration's viable test.  The boxes stop
    where the window passes 3,000,000 points, twelve times what the
    enumeration accepts (MAX_WINDOW_POINTS), to bound the oracle's time:
    dP_6 after box 4, the blow-up after box 6."""
    fan = surface_fan(corpus, surface)
    n = fan.n_rays()
    viable = enumeration_viable(fan, 2)
    for c1 in CLASSES[n]:
        for box in range(7):
            if (box + 1) ** n * (2 * box + 1) ** 2 > 3_000_000:
                break
            for test in (lambda a, gaps: True, viable):
                assert _class_orbits(fan, c1, box, test) == \
                    class_orbits_by_sorted_twists(fan, c1, box, test), (c1, box)


def test_rotated_p2_first_cones_have_both_orientations(corpus):
    """The two rotated P^2 inputs have first cones of det +1 and of det -1:
    the sorted-twist oracle and every_translate read the rays' basis
    coordinates off the first cone, so they use both orientations, while
    _class_orbits reads them off rays 0 and 1."""
    dets = {}
    for name in ("p2-cones-rotated", "p2-cones-third"):
        fan = surface_fan(corpus, name)
        (x0, y0), (x1, y1) = (fan.rays[i] for i in fan.max_cones[0])
        dets[name] = (fan.max_cones[0], x0 * y1 - y0 * x1)
    assert dets == {"p2-cones-rotated": ((1, 2), 1), "p2-cones-third": ((0, 2), -1)}


def test_rank2_enumeration_solves_once(p2, monkeypatch):
    """The orbit search reads its twists and profiles off the rays' basis
    coordinates, so a P^2 enumeration solves one 2x2 system: the hull's class
    test.  Solving once per twist and per profile made 114 solves (49 twists,
    64 profiles).  moduli no longer imports unimodular_solve; its name is
    patched there as well, so that a solve through it would be counted."""
    calls = []
    solve = intersect.unimodular_solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(intersect, "unimodular_solve", counted)
    monkeypatch.setattr(moduli, "unimodular_solve", counted, raising=False)
    records = enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=3)
    assert records
    assert len(calls) == 1


def test_rank2_enumeration_reads_each_split_c2_once(p2, monkeypatch):
    """A.B is read once per orbit, on its untwisted profile by the viable
    test; a twist does not change it, so the translate kept reuses it.
    Reading it again on the translate made 22 calls here, two on each of
    the 11 orbits kept."""
    gaps_read = []
    split = moduli._split_c2
    monkeypatch.setattr(moduli, "_split_c2",
                        lambda a, gaps, m: gaps_read.append(gaps) or split(a, gaps, m))
    records = enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=3)
    assert records
    assert len(gaps_read) == len(set(gaps_read)) == 11


def test_hull_chern_character_serves_both_checks(p2, monkeypatch):
    """A hull's Chern character is computed once: it checks the hull's class
    and closed-form c2, and it gives the c2 of a record whose witness is that
    very hull.  This case builds one hull, with no cut budget; computing the
    witness's character again made 2 calls."""
    calls = []
    chern = moduli.chern_character
    monkeypatch.setattr(moduli, "chern_character", lambda *a: calls.append(a) or chern(*a))
    records = enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=3)
    assert records
    assert len(calls) == 1


def every_translate(fan, c1, box_bound, viable):
    """Oracle: every profile (a, gaps) of class c1 in the window, each
    translate of an orbit on its own, in lexicographic order; no orbit is
    skipped, whatever viable says."""
    n = fan.n_rays()
    i0, i1 = fan.max_cones[0]
    window = range(-box_bound, box_bound + 1)
    profiles = []
    for gaps in itertools.product(range(box_bound + 1), repeat=n):
        for a0, a1 in itertools.product(window, repeat=2):
            u = unimodular_solve(
                fan.rays[i0], fan.rays[i1],
                2 * a0 + gaps[i0] + c1[i0], 2 * a1 + gaps[i1] + c1[i1],
            )
            a_vec = []
            for j, v in enumerate(fan.rays):
                twice = u[0] * v[0] + u[1] * v[1] - c1[j] - gaps[j]
                if twice % 2 or abs(twice) > 2 * box_bound:
                    break
                a_vec.append(twice // 2)
            else:
                profiles.append((tuple(a_vec), gaps))
    profiles.sort()
    return profiles


def record_digest(fan, c1, c2_max, box, witness=True):
    """SHA-256 over every record's c2, characteristic function, witness
    (unless witness is False) and strata in order, or over the
    BoxBoundError text."""
    try:
        doc = [
            [str(r.c2), r.chi.canonical(), family_to_json(r.witness) if witness else None,
             [repr(s) for s in r.strata]]
            for r in enumerate_gauge_fixed_chi(fan, 2, c1, c2_max, box_bound=box)
        ]
    except BoxBoundError as exc:
        doc = f"BoxBoundError: {exc}"
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize(
    "surface, c1, c2_max, box",
    [
        pytest.param("p2", [1, 0, 0], 1, 3, id="p2-h-c2le1-box3"),
        pytest.param("p2", [1, 0, 0], 2, 4, id="p2-h-c2le2-box4"),
        pytest.param("p2", [1, 0, 0], 2, 3, id="p2-h-c2le2-box3-error"),
        pytest.param("p1xp1", [1, 0, 0, 0], 1, 3, id="p1xp1-c2le1-box3"),
        pytest.param("f1", [1, 0, 0, 0], 1, 3, id="f1-c2le1-box3"),
        pytest.param("p2", [0, 0, 0], 0, 2, id="p2-zero-c2le0-box2"),
        pytest.param("p2-cones-rotated", [1, 0, 0], 2, 4, id="p2-cones-rotated-c2le2-box4"),
    ],
)
def test_orbit_records_match_every_translate(corpus, monkeypatch, surface, c1, c2_max, box):
    import toricsheaves.moduli as moduli

    fan = surface_fan(corpus, surface)
    orbits = record_digest(fan, c1, c2_max, box)
    monkeypatch.setattr(moduli, "_class_orbits", every_translate)
    assert orbits == record_digest(fan, c1, c2_max, box)


@pytest.mark.parametrize("surface, c1, box, digest", [
    pytest.param("p2", [1, 0, 0], 8,
                 "dbcb69d58499fede83233e1938919e625796b6489bd52cc2e0293c53d1384ee3",
                 id="p2-h-c2le2-box8"),
    pytest.param("f1", [1, 0, 0, 0], 5,
                 "c0687d8933f83a4d3b80967f3836ed2f8f562311c458fed0b41018813ac5f877",
                 id="f1-v0-c2le2-box5"),
])
def test_wide_window_records_are_pinned(corpus, surface, c1, box, digest):
    """record_digest at c2 <= 2 on windows wider than the every-translate
    cases (P^2 box 8 has a 17 x 17 twist window), recorded with the sorted
    twist search: each orbit's first translate, its witnesses and its strata
    order are those that search gave."""
    assert record_digest(corpus[surface], c1, 2, box) == digest


def set_partitions(items):
    """Oracle: every set partition of items, by recursion on the first item;
    the pattern order of the enumeration."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield tuple(
                tuple(sorted(block + (first,))) if i == j else block
                for j, block in enumerate(sub)
            )
        yield tuple(sorted(sub + ((first,),)))


def hull_c2(split_c2, gaps, pattern, fan):
    """Oracle: c2 of the reflexive hull, the split part plus g_i g_j at every
    maximal cone whose two gap rays carry distinct flag lines."""
    block = {j: k for k, blk in enumerate(pattern) for j in blk}
    return split_c2 + sum(
        gaps[i] * gaps[j] for i, j in fan.max_cones
        if gaps[i] and gaps[j] and block[i] != block[j]
    )


def every_flag_pattern(fan, seen=None):
    """Oracle for _flag_patterns: the exhaustive loop it replaces, a slope
    verdict and a closed-form flag term for every set partition of the gap
    rays, in order; each verdict asked is appended to seen."""
    def patterns(gaps, deg, cones, room):
        if room < 0:
            return
        for pattern in set_partitions([j for j, g in enumerate(gaps) if g]):
            pat = tuple(sorted(pattern))
            verdict = _profile_verdict(gaps, deg, pat)
            if seen is not None:
                seen.append(verdict)
            flag = hull_c2(0, gaps, pat, fan)
            if verdict != UNSTABLE and flag <= room:
                yield pat, flag
    return patterns


@pytest.mark.parametrize("surface", ["p2", "p1xp1", "f1", "f2", "blowup"])
def test_flag_patterns_match_exhaustive_loop(corpus, surface):
    """The pruned walk yields the patterns, flag terms and order of the
    exhaustive loop for every gaps in {0, 1, 2}^n and room -1 to 8."""
    fan = surface_fan(corpus, surface)
    deg = ample_degrees(find_ample(fan), fan)
    oracle = every_flag_pattern(fan)
    kept = Counter()
    for gaps in itertools.product(range(3), repeat=fan.n_rays()):
        for room in range(-1, 9):
            walked = list(_flag_patterns(gaps, deg, fan.max_cones, room))
            assert walked == list(oracle(gaps, deg, fan.max_cones, room)), (gaps, room)
            kept[len(walked) > 1] += 1
    assert kept[True] > 0


def every_orbit_pattern(gaps, deg, cones, room):
    """_orbit_patterns with no orbit dropped: every pattern _flag_patterns
    keeps, with its verdict, whether or not one of them is stable."""
    import toricsheaves.moduli as moduli

    return [(pat, flag, _profile_verdict(gaps, deg, pat))
            for pat, flag in moduli._flag_patterns(gaps, deg, cones, room)]


def pruned_and_exhaustive(fan, c1, c2_max, box, monkeypatch):
    """record_digest of the enumeration, then of its exhaustive twin: every
    orbit kept, with or without a stable pattern, and every pattern given a
    verdict."""
    import toricsheaves.moduli as moduli

    pruned = record_digest(fan, c1, c2_max, box)
    monkeypatch.setattr(moduli, "_class_orbits", every_orbit)
    monkeypatch.setattr(moduli, "_flag_patterns", every_flag_pattern(fan))
    monkeypatch.setattr(moduli, "_orbit_patterns", every_orbit_pattern)
    return pruned, record_digest(fan, c1, c2_max, box)


@pytest.mark.parametrize(
    "surface, c1, c2_max, box",
    [
        pytest.param("p2", [0, 0, 0], 0, 5, id="p2-zero-c2le0-box5"),
        pytest.param("p2", [0, 0, 0], 2, 1, id="p2-zero-c2le2-box1"),
        pytest.param("p2", [1, 0, 0], 3, 5, id="p2-v0-c2le3-box5"),
        pytest.param("p2", [2, -1, 3], 2, 2, id="p2-mixed-c2le2-box2"),
        pytest.param("p1xp1", [0, 0, 0, 0], 1, 3, id="p1xp1-zero-c2le1-box3"),
        pytest.param("p1xp1", [1, 0, 0, 0], 3, 3, id="p1xp1-v0-c2le3-box3"),
        pytest.param("p1xp1", [1, 0, 2, -1], 0, 2, id="p1xp1-mixed-c2le0-box2"),
        pytest.param("f1", [0, 0, 0, 0], 1, 2, id="f1-zero-c2le1-box2"),
        pytest.param("f1", [1, 0, 0, 0], 3, 1, id="f1-v0-c2le3-box1"),
        pytest.param("f1", [1, 0, 2, -1], 1, 5, id="f1-mixed-c2le1-box5"),
        pytest.param("f2", [0, 0, 0, 0], 0, 4, id="f2-zero-c2le0-box4"),
        pytest.param("f2", [1, 0, 0, 0], 2, 5, id="f2-v0-c2le2-box5"),
        pytest.param("f2", [1, 0, 2, -1], 1, 2, id="f2-mixed-c2le1-box2"),
        pytest.param("blowup", [0, 0, 0, 0, 0], 1, 2, id="blowup-zero-c2le1-box2"),
        pytest.param("blowup", [1, 0, 0, 0, 0], 2, 3, id="blowup-v0-c2le2-box3"),
        pytest.param("blowup", [1, 0, 2, -1, 0], 0, 2, id="blowup-mixed-c2le0-box2"),
        # three pairwise non-adjacent gap rays: stable hulls with no flag term
        pytest.param("dp6", [1, 0, 1, 0, 1, 0], 0, 1, id="dp6-c2le0-box1"),
        pytest.param("dp6", [0, 1, 0, 1, 0, 1], 0, 2, id="dp6-c2le0-box2"),
    ],
)
def test_pruned_enumeration_matches_exhaustive_loop(corpus, monkeypatch, surface, c1, c2_max, box):
    """Skipped orbits and cut patterns change no record, witness or strata
    order: the digests equal those of the exhaustive loop."""
    pruned, exhaustive = pruned_and_exhaustive(
        surface_fan(corpus, surface), c1, c2_max, box, monkeypatch)
    assert pruned == exhaustive


def test_pruned_enumeration_keeps_strata_order(f1, monkeypatch):
    """F_1, c1 = V_0, c2 <= 2, box 4: a walk that put a new block last would
    keep every record but not the order of the strata."""
    pruned, exhaustive = pruned_and_exhaustive(f1, [1, 0, 0, 0], 2, 4, monkeypatch)
    assert pruned == exhaustive
    assert pruned.startswith("5e4b7561c75a")


@pytest.mark.parametrize("surface, c1, box, leaves, exhaustive", [
    pytest.param("p2", [1, 0, 0], 3, 1, 100, id="p2-h-box3"),
    pytest.param("f1", [1, 0, 0, 0], 5, 2, 3101, id="f1-v0-box5"),
])
def test_verdicts_asked_only_of_surviving_patterns(corpus, monkeypatch, surface, c1, box,
                                                   leaves, exhaustive):
    """At c2 <= 1, a slope verdict is asked only of a pattern that passes
    both bounds, and each builds one hull; the exhaustive loop asks one of
    every pattern of every orbit within the split c2 bound."""
    import toricsheaves.moduli as moduli

    fan = corpus[surface]
    verdicts, built = [], []
    verdict, hull = moduli._profile_verdict, moduli._profile_hull
    monkeypatch.setattr(moduli, "_profile_verdict", lambda *a: verdicts.append(a) or verdict(*a))
    monkeypatch.setattr(moduli, "_profile_hull", lambda *a: built.append(a) or hull(*a))
    enumerate_gauge_fixed_chi(fan, 2, c1, 1, box_bound=box)
    assert len(verdicts) == len(built) == leaves
    seen = []
    monkeypatch.setattr(moduli, "_class_orbits", every_orbit)
    monkeypatch.setattr(moduli, "_flag_patterns", every_flag_pattern(fan, seen))
    enumerate_gauge_fixed_chi(fan, 2, c1, 1, box_bound=box)
    assert len(seen) == exhaustive


@pytest.mark.parametrize("surface, c1, c2_max, box, hulls, every", [
    pytest.param("p2", [0, 0, 0], 1, 4, 0, 34, id="p2-zero-c2le1-box4"),
    pytest.param("p1xp1", [0, 0, 0, 0], 1, 2, 0, 17, id="p1xp1-zero-c2le1-box2"),
    pytest.param("f1", [0, 0, 0, 0], 1, 2, 0, 14, id="f1-zero-c2le1-box2"),
    pytest.param("p1xp1", [0, 0, 0, 0], 2, 2, 10, 41, id="p1xp1-zero-c2le2-box2"),
])
def test_orbits_without_a_stable_pattern_build_no_hull(corpus, monkeypatch, surface, c1,
                                                       c2_max, box, hulls, every):
    """An orbit none of whose surviving patterns is slope-stable is dropped
    before its first hull: at c1 = 0 and c2 <= 1 no hull is built at all.
    With every orbit kept the same records come from more hulls."""
    import toricsheaves.moduli as moduli

    fan = surface_fan(corpus, surface)
    built = []
    hull = moduli._profile_hull
    monkeypatch.setattr(moduli, "_profile_hull", lambda *a: built.append(a) or hull(*a))
    dropped = record_digest(fan, c1, c2_max, box)
    assert len(built) == hulls
    del built[:]
    monkeypatch.setattr(moduli, "_orbit_patterns", every_orbit_pattern)
    assert record_digest(fan, c1, c2_max, box) == dropped
    assert len(built) == every


def test_one_hull_per_orbit(p2, monkeypatch):
    """P^2, c1 = H, c2 <= 1, box 3: the 33 translates in the window that
    reach the hull stage are one orbit, so one hull is built."""
    import toricsheaves.moduli as moduli

    built = []
    hull = moduli._profile_hull
    monkeypatch.setattr(moduli, "_profile_hull", lambda *a: built.append(a) or hull(*a))
    enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=3)
    assert len(built) == 1
    del built[:]
    monkeypatch.setattr(moduli, "_class_orbits", every_translate)
    enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 1, box_bound=3)
    assert len(built) == 33


def cuts_by_scan(fan, hull, budget):
    """Oracle: every drop pattern at interior grid points of all cones at
    once, of total size <= budget, realized as an explicit subspace grid
    (or skipped when infeasible) and kept when the family validates and its
    c2 exceeds the hull's by at most budget; yields (family, free line
    used, c2 - c2(hull)).

    The hull boxes are padded by the budget first: a quotient of length c
    can reach at most c steps beyond the saturation corner, since the set
    of dropped points is downward closed inside the full-value region.
    """
    table = intersection_table(fan)
    c2_hull = second_chern_number(chern_character(hull, fan), table)
    fam = hull.map_corners(lambda g: g.pad_top(budget)) if budget > 0 else hull
    interior = []
    for i, grid in fam.corners:
        for lam in grid.points():
            if all(x < h for x, h in zip(lam, grid.hi)):
                interior.append((i, lam))
    cuts = [(fam, False)]
    for t in range(1, budget + 1):
        for combo in itertools.combinations_with_replacement(interior, t):
            drops = Counter(combo)
            if any(v > 2 for v in drops.values()):
                continue
            out = realize_cut(fam, drops)
            if out is not None:
                cuts.append(out)
    for cut, free_used in cuts:
        if validate_torsion_free(cut, fan):
            continue
        length = second_chern_number(chern_character(cut, fan), table) - c2_hull
        if length <= budget:
            yield cut, free_used, length


def realize_cut(fam, drops):
    """The whole family cut down by drops at (cone, point), or None."""
    corners = []
    free_used = False
    used_lines = {v for _, g in fam.corners for v in g.values if v.dim == 1}
    pool_at = len(used_lines) + 3
    for i, grid in fam.corners:
        dims = {}
        for lam in grid.points():
            d = grid._entry(lam).dim - drops.get((i, lam), 0)
            if d < 0:
                return None
            dims[lam] = d
        for lam in grid.points():
            for k in range(grid.ndim()):
                nxt = tuple(x + (1 if c == k else 0) for c, x in enumerate(lam))
                if nxt in dims and dims[nxt] < dims[lam]:
                    return None
        # cluster the dim-1 points; each cluster carries a single line
        ones = [lam for lam, d in dims.items() if d == 1]
        parent = {lam: lam for lam in ones}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for lam in ones:
            for k in range(grid.ndim()):
                nxt = tuple(x + (1 if c == k else 0) for c, x in enumerate(lam))
                if nxt in parent:
                    parent[find(lam)] = find(nxt)
        clusters = {}
        for lam in ones:
            clusters.setdefault(find(lam), []).append(lam)
        line_of = {}
        for members in clusters.values():
            forced = {grid._entry(lam) for lam in members if grid._entry(lam).dim == 1}
            if len(forced) > 1:
                return None
            if forced:
                line = forced.pop()
            else:
                line = _pool_line(pool_at)
                pool_at += 1
                free_used = True
            for lam in members:
                here = grid._entry(lam)
                if here.dim == 2 or here == line:
                    line_of[lam] = line
                else:
                    return None
        vals = []
        for lam in grid.points():
            d = dims[lam]
            if d == 0:
                vals.append(SubspaceQ.zero(2))
            elif d == 1:
                vals.append(line_of[lam])
            else:
                vals.append(grid._entry(lam))
        corners.append((i, CornerFamily(grid.cone, grid.lo, grid.hi, tuple(vals), 2)))
    return DeltaFamily(KIND_TORSION_FREE, 2, tuple(corners)), free_used


@pytest.mark.parametrize(
    "surface, c1, c2_max, box",
    [
        pytest.param("p2", [1, 0, 0], 3, 5, id="p2-h-c2le3-box5"),
        pytest.param("p2", [0, 1, 0], 3, 4, id="p2-c2le3-box4"),
        pytest.param("p1xp1", [1, 0, 0, 0], 3, 3, id="p1xp1-c2le3-box3"),
        pytest.param("f1", [1, 0, 0, 0], 3, 3, id="f1-c2le3-box3"),
        pytest.param("f2", [1, 0, 0, 0], 3, 3, id="f2-c2le3-box3"),
    ],
)
def test_cut_records_match_scan(corpus, monkeypatch, surface, c1, c2_max, box):
    """Cuts listed per cone give the records (c2, chi, strata in order) of
    the scan over every drop multiset of the whole family.  Each case has
    hulls with budget 2.  The window check is left out, so that a case
    whose window is too small to certify still compares every record."""
    import toricsheaves.moduli as moduli

    fan = surface_fan(corpus, surface)
    monkeypatch.setattr(moduli, "_window_check", lambda chi, bound: None)
    per_cone = record_digest(fan, c1, c2_max, box, witness=False)
    monkeypatch.setattr(moduli, "_rank2_cuts", functools.partial(cuts_by_scan, fan))
    assert per_cone == record_digest(fan, c1, c2_max, box, witness=False)


def test_corrupted_cut_length_caught(p2, monkeypatch):
    """A record's c2 is c2(hull) + length, checked against its witness."""
    import toricsheaves.moduli as moduli

    cuts = moduli._rank2_cuts
    monkeypatch.setattr(moduli, "_rank2_cuts", lambda hull, budget: (
        (fam, free, length + (length > 0)) for fam, free, length in cuts(hull, budget)
    ))
    with pytest.raises(AssertionError, match="c2"):
        enumerate_gauge_fixed_chi(p2, 2, [1, 0, 0], 2, box_bound=4)


def test_stratum_returning_with_another_free_line_caught(p2, monkeypatch):
    """A (record, pattern) that arrives twice must bring the same free-line
    flag both times; a stratum is never re-labelled after it is recorded."""
    import toricsheaves.moduli as moduli

    cuts = moduli._rank2_cuts
    args = (p2, 2, [1, 0, 0], 1)
    once = enumerate_gauge_fixed_chi(*args, box_bound=3)
    assert once
    monkeypatch.setattr(moduli, "_rank2_cuts", lambda hull, budget: (
        cut for fam, free, length in cuts(hull, budget)
        for cut in ((fam, free, length), (fam, free, length))
    ))
    assert enumerate_gauge_fixed_chi(*args, box_bound=3) == once
    monkeypatch.setattr(moduli, "_rank2_cuts", lambda hull, budget: (
        cut for fam, free, length in cuts(hull, budget)
        for cut in ((fam, free, length), (fam, not free, length))
    ))
    with pytest.raises(AssertionError, match="free line"):
        enumerate_gauge_fixed_chi(*args, box_bound=3)


def test_cut_candidates_count_the_cuts_checked(corpus, monkeypatch):
    """The cut work cap counts, per cone of each hull with a positive budget,
    the uncut grid and every drop multiset that _cut_grid checks; a hull
    without budget checks none."""
    import toricsheaves.moduli as moduli

    counted, checked = [], []
    count, grid = moduli._cut_candidates, moduli._cut_grid
    monkeypatch.setattr(moduli, "_cut_candidates",
                        lambda *a: counted.append(count(*a)) or counted[-1])
    monkeypatch.setattr(moduli, "_cut_grid", lambda *a: checked.append(a) or grid(*a))
    enumerate_gauge_fixed_chi(corpus["p2"], 2, [1, 0, 0], 1, box_bound=3)
    assert counted == [] and checked == []
    for name, c1, c2_max, box in (("p2", [1, 0, 0], 3, 5), ("f1", [1, 0, 0, 0], 2, 3)):
        fan = corpus[name]
        del counted[:], checked[:]
        enumerate_gauge_fixed_chi(fan, 2, c1, c2_max, box_bound=box)
        assert counted and sum(counted) == len(checked) + len(fan.max_cones) * len(counted)


def test_enumerate_rank2_zero_class_p1xp1(p1p1):
    """c1 = 0 on P^1 x P^1 has only strictly semistable hulls at c2 <= 1."""
    assert enumerate_gauge_fixed_chi(p1p1, 2, [0, 0, 0, 0], 1, box_bound=3) == []


@pytest.mark.parametrize("surface", ["p2", "f1"])
def test_hull_c2_closed_form(corpus, surface):
    fan = corpus[surface]
    table = intersection_table(fan)
    matrix = table.matrix
    n = fan.n_rays()
    checked = 0
    for a in itertools.product(range(-1, 2), repeat=n):
        for gaps in itertools.product(range(2), repeat=n):
            split = _split_c2(a, gaps, matrix)
            for pattern in set_partitions([j for j in range(n) if gaps[j]]):
                pat = tuple(sorted(pattern))
                hull = _profile_hull(fan, a, gaps, pat)
                ch = chern_character(hull, fan)
                assert second_chern_number(ch, table) == hull_c2(split, gaps, pat, fan)
                checked += 1
    assert checked == {3: 405, 4: 4212}[n]


def test_profile_verdict_matches_mu_test(corpus):
    """The enumeration's closed-form slope verdict of a hull equals mu_test
    on the hull it builds, for every orbit representative at box 1 and
    every coincidence pattern, with c1 = 0 and c1 = V_0."""
    fans = [surface_fan(corpus, name) for name in ("p2", "p1xp1", "f1", "f2")]
    fans.append(random_smooth_complete_fan(random.Random(1), 1))
    checked = Counter()
    for fan in fans:
        n = fan.n_rays()
        ample = find_ample(fan)
        deg = ample_degrees(ample, fan)
        for c1 in ([0] * n, [1] + [0] * (n - 1)):
            for a, gaps in every_orbit(fan, c1, 1, None):
                for pattern in set_partitions([j for j in range(n) if gaps[j]]):
                    pat = tuple(sorted(pattern))
                    hull = _profile_hull(fan, a, gaps, pat)
                    want = mu_test(hull, fan, ample).verdict
                    assert _profile_verdict(gaps, deg, pat) == want, (fan.rays, a, gaps, pat)
                    checked[want] += 1
    assert sum(checked.values()) == 160
    assert set(checked) == {STABLE, SEMISTABLE, UNSTABLE}


def test_rank1_tuple_count_is_the_series_sum(corpus, monkeypatch):
    """The rank-1 work cap counts the staircase tuples the enumeration builds
    as the coefficient sum of the rank-1 series."""
    import toricsheaves.moduli as moduli

    built = []
    family = moduli._rank1_family
    monkeypatch.setattr(moduli, "_rank1_family", lambda *a: built.append(a) or family(*a))
    for name, c2 in (("p2", 3), ("p1xp1", 2), ("f1", 2)):
        fan = corpus[name]
        del built[:]
        enumerate_gauge_fixed_chi(fan, 1, [0] * fan.n_rays(), c2, box_bound=8)
        assert len(built) == sum(rank1_fixed_point_series(fan, c2).coeffs)
