"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every comparison is exact
(integer or rational equality); the only tolerances are the wall-clock
budgets stated inline.
"""

import random
import time
from fractions import Fraction

from conftest import (
    eta_product,
    extract_flag_data,
    is_nef,
    lattice_point_count,
    line_bundle_family,
    xi_reconstruct,
)
from toricsheaves.chern import c1_fast, chern_character, hilbert_polynomial
from toricsheaves.family import (
    characteristic_function,
    gauge_fix,
    tensor_line_bundle,
)
from toricsheaves.fan import cone_count_identity
from toricsheaves.intersect import intersection_table, pair
from toricsheaves.moduli import (
    enumerate_gauge_fixed_chi,
    rank1_fixed_point_series,
    rank2_p2_series,
)
from toricsheaves.sampling import (
    random_families,
    random_reflexive_family,
    random_torsion_free_family,
)
from toricsheaves.stability import (
    SEMISTABLE,
    STABLE,
    UNSTABLE,
    choose_r,
    gieseker_test,
    git_test,
    mu_test,
    mu_weights,
    xi_weights,
)

RANK2_P2_COEFFS = (0, 1, 9, 48, 203, 729, 2346, 6918, 19062, 49620)


def _report(num, label, elapsed, budget=None):
    if budget is None:
        print(f"[criterion {num}] {label}: PASS ({elapsed:.2f} s)")
    else:
        print(f"[criterion {num}] {label}: PASS ({elapsed:.2f} s < {budget} s)")


def _rank2_families(fan, count, seed, make):
    """count rank-2 families, each built by make, on the draws random_families
    makes: one rng.random() per family, which picks its kind there."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rng.random()
        out.append(make(fan, 2, rng))
    return out


def _corpus_families(fan, count, seed):
    """Half reflexive, half cut torsion-free, ranks 1 and 2."""
    per = count // 4
    fams = random_families(fan, 1, per, seed=seed)
    fams += random_families(fan, 1, per, seed=seed + 1)
    fams += _rank2_families(fan, per, seed + 2, random_reflexive_family)
    fams += _rank2_families(fan, count - 3 * per, seed + 3, random_torsion_free_family)
    return fams


def test_criterion_1_rank2_p2_series():
    t0 = time.perf_counter()
    assert rank2_p2_series(9).coeffs == RANK2_P2_COEFFS
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "rank-2 P^2 series q^0..q^9 exact", elapsed, 1)


def test_criterion_2_rank1_localization(corpus):
    t0 = time.perf_counter()
    for name, fan in corpus.items():
        e = len(fan.max_cones)
        enum = rank1_fixed_point_series(fan, 8)
        assert enum.coeffs == eta_product(-e, 8), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, "rank-1 partition counts = eta product up to q^8 (P2, P1xP1, F1)",
            elapsed, 10)


def test_criterion_3_hrr_vs_lattice_oracle(corpus, amples):
    t0 = time.perf_counter()
    checked = 0
    for name, fan in corpus.items():
        h = amples[name]
        n = fan.n_rays()

        def vectors(i):
            if i == n:
                yield ()
                return
            for x in range(4):
                for rest in vectors(i + 1):
                    yield (x,) + rest

        for kvec in vectors(0):
            if not is_nef(kvec, fan):
                continue
            fam = line_bundle_family(fan, kvec)
            p = hilbert_polynomial(fam, fan, h)
            for t in range(6):
                d = [k + t * int(x) for k, x in zip(kvec, h)]
                assert p(t) == lattice_point_count(d, fan), (name, kvec, t)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, f"Hilbert polynomial = lattice count for {checked} nef bundles at t=0..5",
            elapsed, 30)


def test_criterion_4_c1_double_computation(corpus):
    t0 = time.perf_counter()
    total = 0
    for name, fan in corpus.items():
        fams = _corpus_families(fan, 200, seed=1009)
        assert len(fams) >= 200
        for fam in fams:
            ch = chern_character(fam, fan)
            assert c1_fast(fam, fan) == ch.d, name
        total += len(fams)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, f"c1 by ray jumps = degree-1 Chern part on {total} random families",
            elapsed, 60)


def test_criterion_5_rank_telescoping(corpus):
    t0 = time.perf_counter()
    for name, fan in corpus.items():
        for tau in fan.cones():
            assert cone_count_identity(fan, tau) == 1, (name, tau)
        for fam in _corpus_families(fan, 200, seed=2003):
            ch = chern_character(fam, fan)
            assert ch.r0 == fam.rank, name
    elapsed = time.perf_counter() - t0
    _report(5, "degree-0 Chern part = rank; signed cone counts all 1", elapsed)


def test_criterion_6_xi_reconstruction(corpus, amples):
    t0 = time.perf_counter()
    total = 0
    for name, fan in corpus.items():
        fams = random_families(fan, 2, 60, seed=3001)
        fams += random_families(fan, 1, 40, seed=3003)
        assert len(fams) >= 100
        for fam in fams:
            chi = characteristic_function(fam)
            xi = xi_weights(chi, fan, amples[name])
            assert xi_reconstruct(xi, fam, fan) == hilbert_polynomial(
                fam, fan, amples[name]
            ), name
        total += len(fams)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(6, f"face-weight reconstruction of P(t) exact on {total} families",
            elapsed, 120)


def test_criterion_7_stability_matching(corpus, amples):
    t0 = time.perf_counter()
    chain_checked = git_checked = 0
    for name, fan in corpus.items():
        h = amples[name]
        fams = random_families(fan, 2, 200, seed=4001)
        for fam in fams:
            m = mu_test(fam, fan, h).verdict
            try:
                w = mu_weights(fam, fan, h)
            except ValueError:
                assert m != STABLE, name
                continue
            g = git_test(fam, w, fan).verdict
            if m == STABLE:
                assert g == STABLE, name
            if g == STABLE:
                assert m in (STABLE, SEMISTABLE), name
            chain_checked += 1
        for fam in fams:
            chi = characteristic_function(fam)
            r, ws = choose_r(chi, fan, h, [fam])
            assert all(wt > 0 for _, wt in ws.items())
            assert git_test(fam, ws, fan).verdict == gieseker_test(fam, fan, h).verdict, name
            git_checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        7,
        f"mu => GIT(mu weights) => mu-semistable on {chain_checked} families; "
        f"GIT(R) = Gieseker on {git_checked} families",
        elapsed,
    )


def test_criterion_8_invariance_suite(corpus, amples):
    t0 = time.perf_counter()
    rng = random.Random(5001)
    fuzz_total = 0
    for name, fan in corpus.items():
        h = amples[name]
        n = fan.n_rays()
        table = intersection_table(fan)
        unit = lambda j: tuple(Fraction(1 if i == j else 0) for i in range(n))
        deg = [pair(tuple(Fraction(x) for x in h), unit(j), table) for j in range(n)]
        fams = random_families(fan, 2, 20, seed=6007)
        for fam in fams:
            # verdict invariance under twists: slope for arbitrary twists,
            # Gieseker for twists by the polarization
            kvec = tuple(rng.randrange(-2, 3) for _ in range(n))
            tw = tensor_line_bundle(fam, kvec)
            assert mu_test(fam, fan, h).verdict == mu_test(tw, fan, h).verdict
            th = tensor_line_bundle(fam, tuple(int(x) for x in h))
            assert (
                gieseker_test(fam, fan, h).verdict
                == gieseker_test(th, fan, h).verdict
            )
            try:
                w_mu = mu_weights(fam, fan, h)
                w_tw = mu_weights(tw, fan, h)
                assert (
                    git_test(fam, w_mu, fan).verdict
                    == git_test(tw, w_tw, fan).verdict
                )
            except ValueError:
                pass
            # gauge: idempotence and invariance under trivial-class twists
            chi = characteristic_function(fam)
            fixed, _ = gauge_fix(chi, fan)
            again, shift = gauge_fix(fixed, fan)
            assert shift == (0,) * n and again.canonical() == fixed.canonical()
            u = [rng.randrange(-2, 3) for _ in range(2)]
            rel = tuple(
                u[0] * fan.rays[j][0] + u[1] * fan.rays[j][1] for j in range(n)
            )
            tw_chi = characteristic_function(tensor_line_bundle(fam, rel))
            assert gauge_fix(tw_chi, fan)[0].canonical() == fixed.canonical()
        # 1000-sample random-subspace fuzzing of rank-2 slope verdicts
        from toricsheaves.stability import random_subspaces

        for fam in fams[:3]:
            base = mu_test(fam, fan, h).verdict
            flags = extract_flag_data(fam, fan)
            total = sum(rf.gaps[0] * deg[rf.ray] for rf in flags.rays)
            for w in random_subspaces(2, 1000, rng):
                lhs = sum(
                    rf.gaps[0] * deg[rf.ray] * rf.flags[0].intersect(w).dim
                    for rf in flags.rays
                    if rf.gaps[0]
                )
                margin = lhs - Fraction(w.dim, 2) * total
                if base == STABLE:
                    assert margin < 0
                elif base == SEMISTABLE:
                    assert margin <= 0
                fuzz_total += 1
    assert fuzz_total >= 1000
    elapsed = time.perf_counter() - t0
    _report(
        8,
        f"twist/gauge invariance and {fuzz_total}-sample subspace fuzzing clean",
        elapsed,
    )
