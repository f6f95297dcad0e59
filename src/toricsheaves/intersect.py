"""Intersection theory on smooth complete toric surfaces.

Divisor classes are rational coefficient vectors on the invariant divisors
V(rho), one per ray; the degree-2 Chow group is identified with Q times the
point class.  The intersection table is built from adjacency (adjacent
invariant curves meet transversally in one point) and the wall relation
n(rho_{i-1}) + n(rho_{i+1}) = -(D_i^2) n(rho_i).  It depends on the fan
alone, so intersection_table builds it once per fan and every caller shares
that table; on a smooth complete surface its entries are integers and it
holds them as ints.  With -K = sum_j V(rho_j), the row sums of the table are
the degrees -K.V(rho_j), and the sum of all its entries is K^2.  A
divisor D is read in integers: one clearing routine, _cleared, writes
D = D'/e for the least e > 0 that makes D' integral, and it serves degrees,
pairing and class equality alike.  _integral_degrees computes the degrees
D'.V(rho_j) as ints, pair sums D'.E' in ints and divides once, and
divisor_class_equal tests the integral difference of the two cleared
divisors, so integral divisors build no Fraction on the way.  is_ample
reads the signs of the degrees, and riemann_roch_degrees reads them for a
polarization H, checked positive, with H'^2.  ample_degrees reads
H.V(rho_j) off them, ints where integral, and the same record gives
-K.V(rho_j), H.(-K)/2 and H^2/2.  find_ample walks the nonnegative integer
vectors of each sup-norm in lexicographic order, one entry at a time, and
drops a prefix as soon as a ray degree it fixes is not positive.
Riemann-Roch itself is evaluated in closed form in chern.hilbert_data.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .fan import Fan, _require_valid

Divisor = tuple[Fraction, ...]


def divisor(coeffs: Sequence, fan: Fan) -> Divisor:
    _check_length(coeffs, fan)
    return tuple(Fraction(c) for c in coeffs)


def _check_length(coeffs: Sequence, fan: Fan) -> None:
    if len(coeffs) != fan.n_rays():
        raise ValueError(
            f"divisor has {len(coeffs)} coefficients, fan has {fan.n_rays()} rays"
        )


@dataclass(frozen=True)
class IntersectionTable:
    matrix: tuple[tuple[int, ...], ...]  # integral on a smooth complete surface


# fan -> its table; an entry goes when the fan object that keys it is collected
_TABLES: weakref.WeakKeyDictionary[Fan, IntersectionTable] = weakref.WeakKeyDictionary()


def intersection_table(fan: Fan) -> IntersectionTable:
    """The intersection table of fan, built on the first call for an equal
    fan, which is checked valid then, and shared after that."""
    table = _TABLES.get(fan)
    if table is not None:
        return table
    if fan.rank != 2:
        raise ValueError("intersection table implemented for surfaces only")
    _require_valid(fan)
    n = fan.n_rays()
    mat = [[0] * n for _ in range(n)]
    adjacent = {frozenset(c) for c in fan.max_cones}
    for i in range(n):
        for j in range(n):
            if i != j and frozenset((i, j)) in adjacent:
                mat[i][j] = 1
    for i in range(n):
        prev = fan.rays[(i - 1) % n]
        here = fan.rays[i]
        nxt = fan.rays[(i + 1) % n]
        s = (prev[0] + nxt[0], prev[1] + nxt[1])
        # s = a * here with a integral on a smooth complete surface
        k = 0 if here[0] != 0 else 1
        a, rest = divmod(s[k], here[k])
        if rest or (a * here[0], a * here[1]) != s:
            raise ValueError(f"wall relation fails at ray {i}")
        mat[i][i] = -a
    table = _TABLES[fan] = IntersectionTable(tuple(tuple(row) for row in mat))
    return table


def pair(a: Sequence, b: Sequence, table: IntersectionTable) -> Fraction:
    n = len(table.matrix)
    if len(a) != n or len(b) != n:
        raise ValueError("divisor length does not match the fan")
    ea, a = _cleared(a)
    eb, b = _cleared(b)
    total = 0
    for ai, row in zip(a, table.matrix):
        if ai:
            total += ai * sum(map(operator.mul, b, row))
    return Fraction(total, ea * eb)


def ample_degrees(ample: Sequence, fan: Fan) -> tuple:
    """H.V(rho_j) for every ray j, ints where integral, for an ample H.

    These are all that stability, Hilbert polynomials and the face weights
    read of a polarization: H^2 = sum_j h_j deg_j and H.td_1 = sum_j deg_j / 2
    (td_1 = -K/2 = sum_j V(rho_j) / 2)."""
    return riemann_roch_degrees(ample, fan).h


class RRDegrees(NamedTuple):
    """The degrees Riemann-Roch on a surface reads for a polarization H, in
    integers: H = H'/e with H' integral and e > 0 the least such."""

    e: int
    h_int: tuple[int, ...]  # H'.V(rho_j) per ray
    h_int_sq: int  # H'^2
    ak: tuple[int, ...]  # -K.V(rho_j) per ray: the table's row sums

    @property
    def h(self) -> tuple:
        """H.V(rho_j) per ray, ints where integral."""
        e = self.e
        return tuple(d // e if d % e == 0 else Fraction(d, e) for d in self.h_int)

    @property
    def h_td(self) -> Fraction:
        """H.(-K)/2 = H.td_1."""
        return Fraction(sum(self.h_int), 2 * self.e)

    @property
    def h_sq(self) -> Fraction:
        """H^2/2."""
        return Fraction(self.h_int_sq, 2 * self.e * self.e)


def _cleared(coeffs: Sequence) -> tuple[int, list[int]]:
    """(e, D') for D = coeffs, in ints: D = D'/e with D' integral and e > 0
    the least such.  Each coefficient is read as Fraction(c) reads it; an int
    or a Fraction is taken as it is, so integral input builds no Fraction."""
    coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
    e = math.lcm(*(c.denominator for c in coeffs))
    return e, [c.numerator * (e // c.denominator) for c in coeffs]


def _integral_degrees(coeffs: Sequence, fan: Fan, table: IntersectionTable):
    """(e, D', D'.V(rho_j) per ray) for D = coeffs on fan, with (e, D') from
    _cleared.  The length is checked before any entry."""
    _check_length(coeffs, fan)
    e, d = _cleared(coeffs)
    # the table is symmetric, so D'.V(rho_j) is row j of the table against D'
    return e, d, tuple(sum(map(operator.mul, row, d)) for row in table.matrix)


def riemann_roch_degrees(ample: Sequence, fan: Fan) -> RRDegrees:
    """The RRDegrees of the ample divisor H = ample on fan, read as
    _integral_degrees reads it."""
    table = intersection_table(fan)
    e, h, deg = _integral_degrees(ample, fan, table)
    if not all(x > 0 for x in deg):
        raise ValueError("polarization is not ample")
    return RRDegrees(e, deg, sum(a * d for a, d in zip(h, deg)),
                     tuple(sum(row) for row in table.matrix))


@dataclass(frozen=True)
class ChowClassSurface:
    """A class in the Chow ring of a surface, truncated to degree 2: rank
    part, divisor part (one coefficient per ray) and point part."""

    r0: Fraction
    d: tuple[Fraction, ...]
    p: Fraction


def divisor_class_equal(d1: Sequence, d2: Sequence, fan: Fan) -> bool:
    """D1 ~ D2 over Q: D = D1 - D2 is sum_j <u, v_j> V(rho_j) for some u in
    M_Q.  The rays i0, i1 of the first maximal cone are a basis of N, so the
    only candidate is the u with <u, v_i0> = D_i0 and <u, v_i1> = D_i1.
    D1 and D2 are cleared together, so e.D is integral and so is that u."""
    if fan.rank != 2:
        raise ValueError("divisor classes implemented for surfaces only")
    n = fan.n_rays()
    if len(d1) != n or len(d2) != n:
        raise ValueError("divisor length does not match the fan")
    _, d = _cleared([*d1, *d2])
    diff = [a - b for a, b in zip(d[:n], d[n:])]
    i0, i1 = fan.max_cones[0]
    u = unimodular_solve(fan.rays[i0], fan.rays[i1], diff[i0], diff[i1])
    return all(d == u[0] * v[0] + u[1] * v[1] for d, v in zip(diff, fan.rays))


def is_ample(d: Sequence, fan: Fan) -> bool:
    _, _, deg = _integral_degrees(d, fan, intersection_table(fan))
    return all(x > 0 for x in deg)


# the largest sup-norm find_ample searches
AMPLE_SEARCH_RADIUS = 4


def find_ample(fan: Fan) -> Divisor:
    """Deterministic small ample divisor, by increasing sup-norm then lex.

    At radius r the entries are chosen one at a time in ray order, smallest
    first, so the first complete vector reached is the lexicographically
    first ample one in {0..r}^n.  Its sup-norm is exactly r, since an
    ample vector of smaller sup-norm would have been returned at an earlier
    radius.  D.V(rho_j) reads only the entries i with V(rho_i).V(rho_j) != 0,
    so a prefix is dropped as soon as it fixes a ray degree that is not
    positive."""
    rows = intersection_table(fan).matrix
    # fixed[k]: the rays j whose degree the entries 0..k fix; the table is
    # symmetric, so row j holds V(rho_i).V(rho_j) for every i
    fixed: list[list[int]] = [[] for _ in rows]
    for j, row in enumerate(rows):
        fixed[max((i for i, x in enumerate(row) if x), default=0)].append(j)

    def walk(k, deg, radius):
        if k == len(rows):
            return ()
        for x in range(radius + 1):
            d = [a + x * b for a, b in zip(deg, rows[k])] if x else deg
            if all(d[j] > 0 for j in fixed[k]):
                rest = walk(k + 1, d, radius)
                if rest is not None:
                    return (x, *rest)
        return None

    for radius in range(1, AMPLE_SEARCH_RADIUS + 1):
        v = walk(0, [0] * len(rows), radius)
        if v is not None:
            if not is_ample(v, fan):
                raise AssertionError("the ample search returned a divisor that is not ample")
            return divisor(v, fan)
    raise ValueError("no small ample divisor found")


def _basis_det(n1: Sequence[int], n2: Sequence[int]) -> int:
    """det(n1, n2), checked to be +-1, that is n1, n2 a Z-basis of N."""
    det = n1[0] * n2[1] - n1[1] * n2[0]
    if det not in (1, -1):
        raise ValueError(f"rays {list(n1)}, {list(n2)} are not a Z-basis")
    return det


def unimodular_solve(n1: Sequence[int], n2: Sequence[int], b1, b2):
    """The u in M_Q with <u, n1> = b1 and <u, n2> = b2, for rays n1, n2 that
    form a Z-basis of N (det +-1): integral whenever b1 and b2 are."""
    det = _basis_det(n1, n2)
    # 1/det = det
    return (det * (b1 * n2[1] - b2 * n1[1]), det * (b2 * n1[0] - b1 * n2[0]))
