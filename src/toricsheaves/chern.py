"""Chern characters and Hilbert polynomials of equivariant sheaf data.

The Chern character is computed by the inclusion-exclusion weight formula:
each cone contributes the finite differences of its limit dimension grid,
signed by codimension, times the truncated exponential of minus its
character divisor.  Everything depends on the characteristic function only.
bracket_dims reads each face through the face reader of family, in place
from the maximal-cone grid that restrict_to_face would cut it from: no face
grid is copied, each shifted corner is a (sign, index offset) pair, and a
cone that no grid holds reads the zero face, whose brackets are empty.
chern_character and c1_fast build one face resolver (_Faces) per call and
read every cone's brackets through it (_brackets).
The Hilbert polynomial is Riemann-Roch on a surface in closed form: it reads
the Chern character and, of the fan and the polarization, only the degrees
-K.V(rho_j), H.V(rho_j) and H^2, as the face weights of stability do.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .family import CharFunction, DeltaFamily, _Faces, box_points, characteristic_function
from .fan import ConeRef, Fan
from .intersect import (
    ChowClassSurface,
    IntersectionTable,
    intersection_table,
    pair,
    riemann_roch_degrees,
)
from .polynomials import RatPoly


def as_char(x: DeltaFamily | CharFunction) -> CharFunction:
    return characteristic_function(x) if isinstance(x, DeltaFamily) else x


class BracketSlice(NamedTuple):
    """Finite differences of a cone's dimension grid: the local multiplicity
    entering the Chern character."""

    cone: ConeRef
    entries: tuple[tuple[tuple[int, ...], int], ...]


def bracket_dims(x: DeltaFamily | CharFunction, cone: ConeRef, fan: Fan) -> BracketSlice:
    """For each lattice point of the cone's box, the alternating sum of the
    limit dimensions over the 2^dim shifted corners.

    The face is read in place from the maximal-cone grid restrict_to_face
    would cut it from: each corner is a (sign, index offset) pair, and a
    corner below the box in some coordinate reads zero, so it is skipped.
    A cone that no grid holds reads the zero face, which has no entries."""
    return _brackets(_Faces(as_char(x), fan), cone)


def _brackets(faces: _Faces, cone: ConeRef) -> BracketSlice:
    """bracket_dims of the characteristic function faces reads, on its fan."""
    nu = tuple(sorted(cone))
    face = faces.face(nu)
    vals = face.values
    # the grid index and the coordinates at the bottom of the box (a bit mask)
    # of each face point, in box order
    index, low = [len(vals) - 1], [0]
    # corner eps: (the bit mask of eps, (-1)^|eps|, the index offset of lam - eps)
    corners = [(0, 1, 0)]
    for k, (a, b, s) in enumerate(face.axes):
        index = [i - (b - x) * s for i in index for x in range(a, b + 1)]
        low = [m | (x == a) << k for m in low for x in range(a, b + 1)]
        corners += [(mask | 1 << k, -sign, off + s) for mask, sign, off in corners]
    entries = []
    points = box_points([a for a, _, _ in face.axes], [b for _, b, _ in face.axes])
    for lam, i, m in zip(points, index, low):
        total = 0
        for mask, sign, off in corners:
            if not mask & m:
                total += sign * vals[i - off]
        if total != 0:
            entries.append((lam, total))
    return BracketSlice(nu, tuple(entries))


def chern_character(x: DeltaFamily | CharFunction, fan: Fan) -> ChowClassSurface:
    """Chern character truncated to Chow degree 2 (surfaces).

    A lattice point lam of a cone contributes sign * mult * exp(D) with
    D = -sum_j lam_j V(rho_j) over the cone's rays, so the rank, divisor and
    doubled point parts are integer sums over the bracket entries."""
    if fan.rank != 2:
        raise ValueError("Chern character truncation implemented for surfaces only")
    faces = _Faces(as_char(x), fan)
    n = fan.n_rays()
    mat = intersection_table(fan).matrix
    r0 = 0
    d = [0] * n
    p2 = 0  # twice the point part: sum of sign * mult * D.D
    for cone in fan.cones():
        sign = (-1) ** (fan.rank - len(cone))
        pairs = [(a, b, mat[i][j]) for a, i in enumerate(cone) for b, j in enumerate(cone)]
        for lam, mult in _brackets(faces, cone).entries:
            w = sign * mult
            r0 += w
            for j, l in zip(cone, lam):
                d[j] -= w * l
            p2 += w * sum(lam[a] * lam[b] * m for a, b, m in pairs)
    return ChowClassSurface(Fraction(r0), tuple(Fraction(c) for c in d), Fraction(p2, 2))


def c1_fast(x: DeltaFamily | CharFunction, fan: Fan) -> tuple[Fraction, ...]:
    """First Chern class from the ray filtration jumps alone:
    minus the jump-weighted positions, ray by ray."""
    faces = _Faces(as_char(x), fan)
    coeffs = []
    for j in range(fan.n_rays()):
        sl = _brackets(faces, (j,))
        coeffs.append(Fraction(-sum(lam[0] * mult for lam, mult in sl.entries)))
    return tuple(coeffs)


def second_chern_number(ch: ChowClassSurface, table: IntersectionTable) -> Fraction:
    """c2 = c1^2/2 - ch2 as a rational number (degree of the point part)."""
    return pair(ch.d, ch.d, table) / 2 - ch.p


class HilbertData(NamedTuple):
    polynomial: RatPoly
    rank: Fraction
    degree: Fraction
    slope: Fraction | None


def hilbert_polynomial(x: DeltaFamily | CharFunction, fan: Fan, ample: Sequence) -> RatPoly:
    """The Hilbert polynomial P(t) of hilbert_data."""
    return hilbert_data(x, fan, ample).polynomial


def hilbert_data(x: DeltaFamily | CharFunction, fan: Fan, ample: Sequence) -> HilbertData:
    """P(t) = deg{ch . exp(tH) . td}_2 as an exact rational polynomial.  With
    td = 1 - K/2 + [pt] and r, c1, ch2 the parts of ch, that is

        P(t) = ch2 + r + c1.(-K)/2 + (c1.H + r H.(-K)/2) t + r (H^2/2) t^2,

    where -K = sum_j V(rho_j), read with H once through riemann_roch_degrees.
    Rank, degree and slope follow the extraction conventions: writing
    P(t) = sum a_i t^i / i!, rank = a_2(E)/a_2(O) and
    degree = a_1(E) - a_1(O) rank.  The structure sheaf has a_2(O) = H^2 and
    a_1(O) = H.(-K)/2, so P_O itself is never built."""
    rr = riemann_roch_degrees(ample, fan)
    ch = chern_character(x, fan)
    c1_ak = sum(c * d for c, d in zip(ch.d, rr.ak))  # c1.(-K)
    c1_h = sum(c * d for c, d in zip(ch.d, rr.h))
    p = RatPoly.of([ch.p + ch.r0 + Fraction(c1_ak, 2), c1_h + ch.r0 * rr.h_td,
                    ch.r0 * rr.h_sq])
    rank = p.coeff(2) / rr.h_sq
    deg = p.coeff(1) - rank * rr.h_td
    slope = deg / rank if rank != 0 else None
    return HilbertData(p, rank, deg, slope)
