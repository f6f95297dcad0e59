"""Stability tests and GIT weight systems for torsion-free families.

Slope stability is decided by the flag inequality: for a subspace W,

    sum_{j,k} gap_j(k) deg(D_j) dim(p_j(k) cap W)
        <=  (dim W / M) sum_{j,k} gap_j(k) deg(D_j) dim p_j(k),

with the gap data read off the ray filtrations and deg(D_j) = H.D_j.
Gieseker stability compares reduced Hilbert polynomials of the intersected
subfamilies for t >> 0; both polynomials are read off the face weight
polynomials of the family's characteristic function (below), the same ones
that give the GIT weights.  In rank <= 2 the distinguished subspaces (the
proper corner values, which are lines and so already closed under sum and
intersection) together with one generic line exhaust all possible
violations, so those verdicts are exact; in higher rank the corner values
are closed under sum and intersection, the verdict is over that set only
and flagged as such, and a closure that outgrows CLOSURE_CAP is refused.

GIT stability is the weighted dimension inequality over the same test set;
weight systems come either from the flag gaps (slope matching, with an
R-scaling when non-flag Grassmannian factors are present) or from the face
weight polynomials evaluated at an adaptively certified integer R
(Gieseker matching).

Every margin is linear in the integers dim(E^nu(lam) cap W), for the face
values E^nu(lam) and the test subspaces W: the slope test weights them by
the flag gaps, the GIT test by the weights kappa, and the Gieseker test by
the face weight polynomials Xi, which give P(E cap W) = sum Xi dim(E^nu(lam)
cap W) exactly because Xi reads only the boxes and E cap W keeps them.  So
every margin is a dot product read off one meet table per family and fan
(the test set, and dim(V cap W) for each distinct face value V).  The
module keeps one record per thread, of the last (family, fan) pair a
stability call was given, matched by identity (_Record): it holds that
pair's torsion-free validation, its meet table and flag data, whether the
family is reflexive, and the Xi with their Gieseker margins at the last
polarization asked about, each filled on first use.  The calls on one
family (mu_test, mu_weights, gieseker_test, git_test without samples, and
choose_r for each witness whose characteristic function is the one given)
read it, and a call on any other family or fan replaces it, so nothing
outlives the next family.  All it holds is a pure function of the pair
(and the polarization), so no result depends on whether it was read or
built.  A weight system is just its ambient and its entries.

A face value E^nu(lam) is read in place through the face reader of family
(lam in the order nu lists its rays); no face grid is built, and the face
weights read their bounds off the grid the face reader resolves each cone
to.  The table scans the corner grids once, on first use, and gives each
distinct proper value a slot, so a weight key's slot is index arithmetic on
its face over the grid's slot array; the scanned values are the pool of the
test set.

The Gieseker margins are scaled integers.  The coefficients of all Xi share
one denominator D, their lcm (1 or 2 for an integral polarization), so the
margin P(E cap W)/dim W - P(E)/M is N(t)/(D M dim W) with N an integer
polynomial.  xi_weights builds the D Xi in integers, from the polarization
H = H'/e with H' integral (2 e^2 Xi is integral), and keeps no other form of
the Xi; margins are compared for t >> 0 in these integers, and a Fraction is
built only for the coefficients of the reported margin.

choose_r goes one step further: the GIT margins at the weights Xi(R) are
the Xi margins evaluated at R, so each trial R evaluates the integer
polynomials D Xi and N, built once per witness, by Horner's rule.  Every
scale factor is positive, so positivity and each margin's sign are read off
these integers exactly, and Xi(R) is integral when D divides D Xi(R).

The face weights Xi come in closed form.  A cone's share of the weight at
a box point of its face F is a signed forward difference along F of the
Riemann-Roch value phi, which is quadratic in the box coordinates; so the
weights of a maximal cone's interior are the constants V_i.V_j, a ray
weight is linear in lam and in t, and the one vertex weight collects phi
at the top corner of every cone (xi_weights).
"""

from __future__ import annotations

import itertools
import math
import random
import threading
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Sequence

from .family import (
    CharFunction,
    DeltaFamily,
    KIND_PURE,
    _corners_are_axis_meets,
    _Face,
    _Faces,
    characteristic_function,
    require_torsion_free,
)
from .fan import ConeRef, Fan
from .frozen import Frozen
from .intersect import ample_degrees, intersection_table, riemann_roch_degrees
from .polynomials import RatPoly
from .subspace import SubspaceQ

STABLE = "stable"
SEMISTABLE = "strictly-semistable"
UNSTABLE = "unstable"

TORSION_FREE_ONLY = "stability tests are offered for torsion-free kinds only"
PARTIAL_NOTE = ("distinguished-set verdict (rank >= 3): "
                "violations outside the test set are not excluded")
# In rank <= 2 the closure adds nothing (distinct lines meet in 0 and span
# Q^2) and is skipped; in rank >= 3 it can generate all of P^{M-1}(Q), e.g.
# from four general points in Q^3.
CLOSURE_CAP = 256
# random test subspaces per git_test call
MAX_SAMPLES = 10_000
# the largest R that choose_r tries
R_MAX = 4000


class StabilityVerdict(NamedTuple):
    test: str
    verdict: str
    witness: SubspaceQ | None
    margin: object  # Fraction for mu/git, RatPoly for gieseker; None if no test subspaces
    exhaustive: bool
    note: str | None = None


# ---------------------------------------------------------------------------
# flag data and test subspaces

class RayFlags(NamedTuple):
    ray: int
    gaps: tuple[int, ...]           # gap lengths at dimensions 1..M-1
    flags: tuple[SubspaceQ | None, ...]  # the flag subspaces where gaps > 0
    positions: tuple[int | None, ...]    # a lambda at which each flag sits


class FlagData(NamedTuple):
    rank: int
    rays: tuple[RayFlags, ...]


def _flag_data(meets: _MeetTable) -> FlagData:
    m = meets.rank
    out = []
    for j in range(meets.fan.n_rays()):
        face = meets.face((j,))
        (lo, hi, _), = face.axes
        gaps = [0] * (m - 1)
        flags: list[SubspaceQ | None] = [None] * (m - 1)
        pos: list[int | None] = [None] * (m - 1)
        prev = 0
        for lam, v in zip(range(lo, hi + 1), face.line()):
            d = v.dim
            if d < prev:
                raise ValueError(f"ray {j}: filtration dimensions decrease at {lam}")
            prev = d
            if 0 < d < m:
                gaps[d - 1] += 1
                flags[d - 1] = v
                if pos[d - 1] is None:
                    pos[d - 1] = lam
        if prev != m:
            raise ValueError(f"ray {j}: filtration does not saturate to the full space")
        out.append(RayFlags(j, tuple(gaps), tuple(flags), tuple(pos)))
    return FlagData(m, tuple(out))


def distinguished_subspaces(fam: DeltaFamily) -> list[SubspaceQ]:
    """Corner and limit subspaces closed under pairwise sum and intersection,
    excluding 0 and the full space.  In rank <= 2 the proper values are
    lines, which the closure cannot add to, so the pool is returned as it
    is.  In rank >= 3 each pair is combined once; a closure that adds more
    than CLOSURE_CAP subspaces raises ValueError."""
    return _distinguished(_proper_values(fam), fam.rank)


def _proper_values(fam: DeltaFamily) -> set[SubspaceQ]:
    """The corner values other than 0 and the full space."""
    m = fam.rank
    return {v for _, grid in fam.corners for v in grid.values if 0 < v.dim < m}


def _distinguished(pool: set[SubspaceQ], m: int) -> list[SubspaceQ]:
    """distinguished_subspaces from the set of proper corner values, which
    the rank >= 3 closure extends in place."""
    todo = sorted(pool, key=_subspace_key)
    if m <= 2:
        return todo
    done: list[SubspaceQ] = []
    added = 0
    while todo:
        a = todo.pop()
        for b in done:
            for c in (a.intersect(b), a.sum(b)):
                if 0 < c.dim < m and c not in pool:
                    if added == CLOSURE_CAP:
                        raise ValueError(
                            f"the rank >= 3 test set does not close within {CLOSURE_CAP} "
                            "added subspaces: sums and intersections of the corner "
                            "values keep producing new ones")
                    pool.add(c)
                    todo.append(c)
                    added += 1
        done.append(a)
    return sorted(pool, key=_subspace_key)


def _subspace_key(v: SubspaceQ):
    return (v.dim, v.basis_str())


def test_subspaces(fam: DeltaFamily) -> tuple[list[SubspaceQ], bool]:
    """Test set and whether it certifies an exhaustive verdict.

    In rank 2 the set ends with one generic line, the first of (0, 1),
    (1, 0), (1, 1), (1, 2), ... outside the distinguished set.  Every proper
    corner value is a distinguished line, so that line meets each corner
    value in the generic dimension: 0 for 0 and for the other lines, 1 for
    the full space."""
    return _tests_from_pool(_proper_values(fam), fam.rank)


def _tests_from_pool(pool: set[SubspaceQ], m: int) -> tuple[list[SubspaceQ], bool]:
    """test_subspaces from the set of proper corner values: the one place a
    test set is built, for test_subspaces and for the meet table."""
    ws = _distinguished(pool, m)
    if m == 2:
        taken = set(ws)
        for vec in itertools.chain([(0, 1)], ((1, t) for t in itertools.count())):
            line = SubspaceQ.span([vec], 2)
            if line not in taken:
                ws.append(line)
                break
    return ws, m <= 2


# ---------------------------------------------------------------------------
# the meet table

# the slots of a grid the scan has not seen: the one zero value of empty_face
_ZERO_SLOTS = (None,)


class _MeetTable:
    """One family's test set, its face values E^nu(lam) and, for each
    distinct proper face value V and each test subspace W, the integer
    dim(V cap W).  Every margin is linear in these integers, so each test
    reads it as a dot product with its own weights.

    A table is a pure function of (family, fan), so the record of the last
    pair (_Record) keeps one for every call on that pair; git_test with
    samples builds its own.  Faces, the scan, the test set and the columns
    are filled on first use, so a call computes only what it reads: the flag
    data reads ray faces alone, and a malformed weight key is reported
    before the test set is built.  The fan's cone index is looked up once
    per table.  The scan reads every corner grid once and gives each value
    its slot, so a weight key's slot is index arithmetic on its face; the
    proper values it finds are the pool the test set is built from.  Every
    stability test and weight system reads a table built for its family, so
    this is where a family of rank 0 is refused: the zero sheaf has no slope
    and no reduced Hilbert polynomial."""

    def __init__(self, fam: DeltaFamily, fan: Fan, samples: Sequence[SubspaceQ] = ()):
        if fam.rank < 1:
            raise ValueError(
                f"stability is defined for rank >= 1; the family has rank {fam.rank}")
        self.fam, self.fan, self.rank = fam, fan, fam.rank
        self._samples = list(samples)
        self._reader = _Faces(fam, fan)
        self._faces: dict[ConeRef, _Face] = {}
        self._slot_faces: dict[ConeRef, _Face] = {}  # each face over its grid's slots
        self._slots: dict[SubspaceQ, int] = {}
        self.values: list[SubspaceQ] = []   # the distinct proper face values, by slot
        self._columns: list[tuple[int, ...] | None] = []

    def face(self, cone: ConeRef) -> _Face:
        """restrict_to_face(fam, cone, fan) read in place, once per cone, with
        the coordinates in the cone's own order: a repeated ray reads the
        last of its coordinates."""
        face = self._faces.get(cone)
        if face is None:
            face = self._faces[cone] = self._reader.face(cone)
        return face

    @cached_property
    def _grid_slots(self) -> dict[int, tuple[int | None, ...]]:
        """The scan: for each corner grid, keyed by the id of its values, the
        slot of each value in box order.  Grids share value objects, so a
        proper value is looked up by identity first and by equality only
        when new; 0 and the full space have no slot."""
        m = self.rank
        seen: dict[int, int] = {}
        out = {}
        for _, grid in self.fam.corners:
            row = []
            for v in grid.values:
                s = None
                if 0 < v.dim < m:
                    s = seen.get(id(v))
                    if s is None:
                        s = seen[id(v)] = self.slot_of(v)
                row.append(s)
            out[id(grid.values)] = tuple(row)
        return out

    @cached_property
    def _test_set(self) -> tuple[list[SubspaceQ], bool]:
        self._grid_slots  # run the scan, which slots every proper corner value
        ws, exhaustive = _tests_from_pool(set(self.values), self.rank)
        return ws + self._samples, exhaustive

    @property
    def tests(self) -> list[SubspaceQ]:
        """test_subspaces, then the samples, in that order."""
        return self._test_set[0]

    @property
    def exhaustive(self) -> bool:
        return self._test_set[1]

    def slot_of(self, v: SubspaceQ) -> int | None:
        """The slot of a face value, or None for 0 and the full space: a zero V
        adds nothing to a margin, and a full V adds c dim W to its left side and
        c M to its total, which cancel in every margin.  Only face values get
        slots, so the slotted values are the proper corner values."""
        if not 0 < v.dim < self.rank:
            return None
        s = self._slots.get(v)
        if s is None:
            s = self._slots[v] = len(self.values)
            self.values.append(v)
            self._columns.append(None)
        return s

    def slot(self, key: WeightKey) -> int | None:
        """slot_of the face value at a weight key (cone, lam), read by index
        arithmetic from the cone's face over its grid's slot array."""
        cone, lam = key
        face = self._slot_faces.get(cone)
        if face is None:
            face = self.face(cone)
            face = self._slot_faces[cone] = _Face(
                self._grid_slots.get(id(face.values), _ZERO_SLOTS), face.axes, None)
        if len(lam) != len(face.axes):
            raise ValueError(f"weight key {key} does not match the family's shape")
        return face.value(lam)

    def column(self, s: int) -> tuple[int, ...]:
        """dim(V cap W) for the value V in slot s and every test subspace W."""
        col = self._columns[s]
        if col is None:
            v = self.values[s]
            col = self._columns[s] = tuple(v.intersect(w).dim for w in self.tests)
        return col

    def dots(self, weighted) -> tuple[list, object]:
        """For (slot, c) pairs: sum_V c_V dim(V cap W) for each test subspace W,
        and sum_V c_V dim V, with c_V the sum of the c in V's slot."""
        coef: dict[int, object] = {}
        for s, c in weighted:
            if s is not None:
                coef[s] = coef.get(s, 0) + c
        lhs = [0] * len(self.tests)
        total = 0
        for s, c in coef.items():
            if not c:
                continue
            total += c * self.values[s].dim
            for k, d in enumerate(self.column(s)):
                if d:
                    lhs[k] += c * d
        return lhs, total


# ---------------------------------------------------------------------------
# the record of the last (family, fan) pair

class _Record:
    """What the stability calls on one (family, fan) pair share, each part
    filled on first use: the torsion-free validation, the meet table and its
    flag data, whether the family is reflexive, its characteristic function,
    and the Xi with their Gieseker margins at the last polarization asked
    about.  A part whose computation raises stores nothing, so it raises
    again on the next read.

    The module holds one record per thread, of the last pair a stability
    call in that thread was given (_record), so no two threads fill the same
    table.  A call keeps its own reference to each record it reads, so a
    record that a later call puts in its place changes nothing it reads."""

    def __init__(self, fam: DeltaFamily, fan: Fan):
        self.fam, self.fan = fam, fan
        self._valid = False
        self._gieseker = None  # (the polarization's entries, Xi, margins)

    def require_valid(self) -> None:
        """require_torsion_free, until it has passed once."""
        if not self._valid:
            require_torsion_free(self.fam, self.fan)
            self._valid = True

    @cached_property
    def meets(self) -> _MeetTable:
        return _MeetTable(self.fam, self.fan)

    @cached_property
    def flag_data(self) -> FlagData:
        return _flag_data(self.meets)

    @cached_property
    def reflexive(self) -> bool:
        """_corners_are_axis_meets, for a family known to be torsion-free."""
        return _corners_are_axis_meets(self.fam)

    @cached_property
    def chi(self) -> CharFunction:
        return characteristic_function(self.fam)

    def held(self, ample: Sequence) -> tuple[XiWeights, list] | None:
        """The Xi and Gieseker margins held for a polarization with these
        entries, or None.  Equal entries read as equal Fractions, so they
        give equal results."""
        got = self._gieseker
        return got[1:] if got is not None and got[0] == tuple(ample) else None

    def gieseker(self, ample: Sequence, xi: XiWeights | None = None) -> tuple[XiWeights, list]:
        """The Xi of the family's characteristic function at ample and its
        Gieseker margins (_gieseker_margins): the pair held for ample, or else
        built, from xi when the caller has the Xi of an equal characteristic
        function, and held in place of the last."""
        got = self.held(ample)
        if got is None:
            if xi is None:
                xi = xi_weights(self.chi, self.fan, ample)
            got = xi, _gieseker_margins(self.meets, xi)
            self._gieseker = (tuple(ample), *got)
        return got


_LAST = threading.local()  # .record: this thread's _Record, once it has one


def _record(fam: DeltaFamily, fan: Fan) -> _Record:
    """The record of (fam, fan), matched by identity: the one this thread
    holds if it is theirs, or else a new one, which replaces it."""
    rec = getattr(_LAST, "record", None)
    if rec is None or rec.fam is not fam or rec.fan is not fan:
        rec = _LAST.record = _Record(fam, fan)
    return rec


# ---------------------------------------------------------------------------
# slope test

def mu_test(fam: DeltaFamily, fan: Fan, ample: Sequence) -> StabilityVerdict:
    if fam.kind != KIND_PURE:
        _record(fam, fan).require_valid()
    return _mu_test(fam, fan, ample)


def _mu_test(fam: DeltaFamily, fan: Fan, ample: Sequence) -> StabilityVerdict:
    """mu_test for a family the caller has validated on fan, read off the
    record of (fam, fan).  Whether a torsion-free family is reflexive is
    asked only when the verdict is stable, the one its caveat qualifies."""
    rec = _record(fam, fan)
    deg = ample_degrees(ample, fan)
    m = fam.rank
    meets = rec.meets
    flags = rec.flag_data
    # flags[k] has dimension k + 1 and is set exactly where gaps[k] > 0
    lhs, total = meets.dots(
        (meets.slot_of(rf.flags[k]), rf.gaps[k] * deg[rf.ray])
        for rf in flags.rays
        for k in range(m - 1)
        if rf.gaps[k]
    )
    margins = [(w, Fraction(d) - Fraction(w.dim, m) * total) for w, d in zip(meets.tests, lhs)]
    note = None if meets.exhaustive else PARTIAL_NOTE
    caveat = None
    if fam.kind != KIND_PURE and all(mg < 0 for _, mg in margins) and not rec.reflexive:
        caveat = ("stable verdict certified against equivariant subobjects only "
                  "(non-reflexive torsion-free input)")
    return _classify("mu", margins, meets.exhaustive, note, stable_caveat=caveat)


def _classify(test, margins, exhaustive, note, stable_caveat=None) -> StabilityVerdict:
    """The verdict from (W, margin) pairs with Fraction margins (the mu and
    GIT tests).  The worst margin is the largest, and the first of equal
    ones."""
    if not margins:
        return _verdict(test, None, None, -1, exhaustive, note, stable_caveat)
    worst_w, worst = max(margins, key=itemgetter(1))
    return _verdict(test, worst_w, worst, (worst > 0) - (worst < 0), exhaustive, note,
                    stable_caveat)


def margin_verdict(worst) -> str:
    """UNSTABLE, SEMISTABLE or STABLE as the worst margin (or its sign) is
    positive, zero or negative."""
    return UNSTABLE if worst > 0 else SEMISTABLE if worst == 0 else STABLE


def _verdict(test, worst_w, worst, s, exhaustive, note, stable_caveat=None) -> StabilityVerdict:
    """The verdict whose worst margin worst, at W = worst_w, has sign s; s is
    -1 and worst None when there is no test subspace."""
    verdict = margin_verdict(s)
    if verdict == STABLE:
        worst_w = None
        if stable_caveat:
            note = stable_caveat if note is None else f"{note}; {stable_caveat}"
    return StabilityVerdict(test, verdict, worst_w, worst, exhaustive, note)


# ---------------------------------------------------------------------------
# Gieseker test

def gieseker_test(fam: DeltaFamily, fan: Fan, ample: Sequence) -> StabilityVerdict:
    """Margins P(E cap W)/dim W - P(E)/M, both polynomials read off the face
    weights of E's characteristic function against the meet table.  The
    weights read only its boxes, and E cap W has the boxes of E, so this is
    exact."""
    if fam.kind == KIND_PURE:
        raise ValueError(TORSION_FREE_ONLY)
    rec = _record(fam, fan)
    _, margins = rec.gieseker(ample)
    return _gieseker_verdict(rec.meets, margins)


def _gieseker_margins(meets: _MeetTable,
                      xi: XiWeights) -> list[tuple[SubspaceQ, tuple[int, ...], int]]:
    """(W, N, den) for each test subspace W: the margin

        sum_k Xi_k dim(E_k cap W) / dim W - sum_k Xi_k dim E_k / M

    is the polynomial N(t) / den.  With L = sum_k D Xi_k dim(E_k cap W) and
    T = sum_k D Xi_k dim E_k, integer polynomials read off the meet table by
    one dot product per coefficient, N = M L - dim W T and den = D M dim W."""
    d, polys = xi.denominator, xi.polys
    weighted = [(meets.slot(key), polys[i]) for key, i in zip(xi.keys, xi.index)]
    width = len(polys[0]) if polys else 0
    per_coeff = [meets.dots((s, p[i]) for s, p in weighted) for i in range(width)]
    m = meets.rank
    return [
        (w, tuple(m * lhs[k] - w.dim * total for lhs, total in per_coeff), d * m * w.dim)
        for k, w in enumerate(meets.tests)
    ]


def _gieseker_verdict(meets: _MeetTable, margins) -> StabilityVerdict:
    """The verdict on the margins of _gieseker_margins.  They are compared for
    t >> 0 in integers, top coefficient first, over the common denominator;
    only the worst margin becomes a RatPoly."""
    note = None if meets.exhaustive else PARTIAL_NOTE
    if not margins:
        return _verdict("gieseker", None, None, -1, meets.exhaustive, note)
    common = math.lcm(*(den for _, _, den in margins))

    def large_t(margin):
        _, nums, den = margin
        return [n * (common // den) for n in reversed(nums)]

    worst_w, nums, den = max(margins, key=large_t)
    s = next(((n > 0) - (n < 0) for n in reversed(nums) if n), 0)
    worst = RatPoly.of([Fraction(n, den) for n in nums])
    return _verdict("gieseker", worst_w, worst, s, meets.exhaustive, note)


# ---------------------------------------------------------------------------
# weight systems and the GIT test

WeightKey = tuple[ConeRef, tuple[int, ...]]


class WeightSystem(Frozen):
    """Positive weights, one per key, on a family of the given rank."""

    _fields = ("ambient", "entries")
    ambient: int
    entries: tuple[tuple[WeightKey, int], ...]

    def __init__(self, ambient: int, entries: tuple[tuple[WeightKey, int], ...]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "entries", entries)
        for key, w in entries:
            if w <= 0:
                raise ValueError(f"weight at {key} is {w}; ample weight systems are positive")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ambient, self.entries) == (other.ambient, other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.ambient, self.entries))

    def items(self):
        return self.entries


def mu_weights(fam: DeltaFamily, fan: Fan, ample: Sequence) -> WeightSystem:
    """Flag weights gap_j(k) deg(D_j); zero-gap factors are left out.  With
    non-flag Grassmannian factors present (general torsion-free data) the
    flag weights are scaled by R with sum(n_alpha)/R < 1/M^2 and the extra
    factors get weight 1."""
    if fam.kind != KIND_PURE:
        _record(fam, fan).require_valid()
    return _mu_weights(fam, fan, ample)


def _mu_weights(fam: DeltaFamily, fan: Fan, ample: Sequence) -> WeightSystem:
    """mu_weights for a family the caller has validated on fan, read off the
    record of (fam, fan)."""
    if fam.kind == KIND_PURE:
        raise ValueError("no weight constructor is offered for pure kinds")
    rec = _record(fam, fan)
    deg = ample_degrees(ample, fan)
    m = fam.rank
    flags = rec.flag_data
    flag_entries: list[tuple[WeightKey, int]] = []
    for rf in flags.rays:
        for k in range(m - 1):
            if rf.gaps[k]:
                kappa = rf.gaps[k] * deg[rf.ray]
                if kappa.denominator != 1:
                    raise ValueError("non-integral weight; polarization must be integral")
                flag_entries.append((((rf.ray,), (rf.positions[k],)), int(kappa)))
    if not flag_entries:
        raise ValueError("all flag gaps are zero; no slope-stable objects with this shape")
    if rec.reflexive:
        return WeightSystem(m, tuple(flag_entries))
    extra_entries: list[tuple[WeightKey, int]] = []
    n_sum = 0
    for i, grid in fam.corners:
        for lam in grid.points():
            v = grid._entry(lam)
            free = sum(1 for k in range(grid.ndim()) if lam[k] < grid.hi[k])
            if 0 < v.dim < m and free >= 2:
                extra_entries.append(((grid.cone, lam), 1))
                n_sum += v.dim
    if not extra_entries:
        return WeightSystem(m, tuple(flag_entries))
    r_scale = m * m * n_sum + 1
    scaled = [(key, w * r_scale) for key, w in flag_entries]
    return WeightSystem(m, tuple(scaled + extra_entries))


def random_subspaces(ambient: int, count: int, rng: random.Random) -> list[SubspaceQ]:
    """count random proper nonzero subspaces; none for ambient < 2, which has none."""
    if ambient < 2:
        return []
    out = []
    while len(out) < count:
        dim = rng.randrange(1, ambient)
        rows = [[rng.randrange(-3, 4) for _ in range(ambient)] for _ in range(dim)]
        v = SubspaceQ.span(rows, ambient)
        if 0 < v.dim < ambient:
            out.append(v)
    return out


def git_test(fam: DeltaFamily, weights: WeightSystem, fan: Fan,
             n_random: int = 0, seed: int = 0) -> StabilityVerdict:
    """Weighted dimension inequality over the distinguished and sampled
    subspaces; properly stable iff strict for every test subspace.  With no
    samples, the meet table of the record of (fam, fan) serves; with
    samples, a table of its own is built and not kept."""
    m = fam.rank
    _check_ambient(weights.ambient, m)
    if not 0 <= n_random <= MAX_SAMPLES:
        raise ValueError(f"random test subspaces: {n_random} requested, "
                         f"the count must lie in [0, {MAX_SAMPLES}]")
    samples = random_subspaces(m, n_random, random.Random(seed)) if n_random else ()
    meets = _MeetTable(fam, fan, samples) if samples else _record(fam, fan).meets
    margins = _git_margins(meets, weights)
    note = None if meets.exhaustive else "distinguished-set verdict (rank >= 3)"
    return _classify("git", margins, meets.exhaustive, note)


def _check_ambient(ambient: int, m: int) -> None:
    if ambient != m:
        raise ValueError(f"weight system ambient {ambient} != family rank {m}")


def _git_margins(meets: _MeetTable, weights: WeightSystem) -> list[tuple[SubspaceQ, Fraction]]:
    """(W, sum_k w_k dim(E_k cap W) / dim W - sum_k w_k dim E_k / M) for each
    test subspace W; every weight key is checked against the family first."""
    lhs, total = meets.dots([(meets.slot(key), w) for key, w in weights.items()])
    rhs = Fraction(total, meets.rank)
    return [(w, Fraction(d, w.dim) - rhs) for w, d in zip(meets.tests, lhs)]


# ---------------------------------------------------------------------------
# face weight polynomials (Gieseker-matching weights)

class XiWeights(NamedTuple):
    """The face weights as D Xi in integers, for the least D > 0 that clears
    every denominator of the Xi (1 or 2 for an integral polarization)."""

    ambient: int
    keys: tuple[WeightKey, ...]
    denominator: int                    # D
    polys: tuple[tuple[int, ...], ...]  # coefficients of D Xi, low degree first, one width
    index: tuple[int, ...]              # keys[k] has the polynomial polys[index[k]]

    def _require_integral(self, r: int, vals: Sequence[int]) -> None:
        """Every weight Xi(r) must be an integer, from vals[i] = (D Xi)(r) for
        each distinct polynomial polys[i]; the error names the first key
        whose weight is not."""
        d = self.denominator
        for key, i in zip(self.keys, self.index):
            if vals[i] % d:
                raise ValueError(f"weight polynomial at {key} is not integer-valued at {r}")

    def _system_at(self, vals: Sequence[int]) -> WeightSystem:
        """The weight system from integral vals."""
        d = self.denominator
        return WeightSystem(self.ambient, tuple(
            (key, vals[i] // d) for key, i in zip(self.keys, self.index)))


def _horner(coeffs: Sequence[int], r: int) -> int:
    """An integer polynomial, low degree first, at r."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def xi_weights(chi: CharFunction, fan: Fan, ample: Sequence) -> XiWeights:
    """Face weight polynomials: for every cone of the fan and every lattice
    point of its cut-off box, a polynomial Xi(t) such that

        sum Xi_{nu,lam}(t) dim E^nu(lam)  =  P_E(t)

    exactly, for every torsion-free family with characteristic function chi.
    The weights read only the boxes of chi, so the identity also holds for
    every family on the same boxes, such as a subfamily E cap W.

    This is the summation-by-parts adjoint of bracket_dims.  Each cone nu,
    signed by s = (-1)^(2 - |nu|), adds to the weight of each face F of nu
    the alternating sum over the shifted corners lam + eps of F of the
    Riemann-Roch value phi(x) = deg{exp(-sum x_u V_u + tH) td}_2, with the
    coordinates of nu outside F held at cut = hi + 1.  That sum is
    (-1)^|F| times the forward difference of phi along F, and with
    q(x) = x.M.x - x.deg(-K), an integer,

        phi = 1 + q/2 + (H.td_1 - x.deg(H)) t + (H^2/2) t^2

    is quadratic in x, so each cone gives three closed-form terms:

      vertex       s phi(cut), once per cone;
      ray i, a     -s (M_ii (2a + 1) + 2 sum_{j != i} M_ij cut_j - deg_i(-K))
                   to 2 + q and -s deg_i(H) to x.deg(H), for a in lo..hi;
      face {i, j}  s 2 M_ij to 2 + q at every box point.

    So the weights of a maximal cone's interior are the constant V_i.V_j (1
    on a smooth fan), a ray weight is linear in lam, and there is one vertex
    weight.  No other cone weighs a maximal cone's box points, so those
    weights are written out cone by cone, in key order; only the vertex and
    ray weights are accumulated and sorted.  Each weight is three integer
    sums, taken with H' = eH integral (riemann_roch_degrees) in place of H,
    so that

        2 e^2 Xi = e^2 (2 + q) + e (H'.(-K) - 2 x.deg(H')) t + H'^2 t^2

    is an integer polynomial.  D Xi is that divided by the gcd of 2 e^2 and
    every coefficient, kept once per distinct polynomial; no Fraction is built.
    """
    if fan.rank != 2:
        raise ValueError("face weights implemented for surfaces only")
    rr = riemann_roch_degrees(ample, fan)
    deg_h, deg_ak = rr.h_int, rr.ak
    gmap = chi.corner_map()
    if set(gmap) != set(range(len(fan.max_cones))):
        raise ValueError("characteristic function must cover every maximal cone")
    for i, g in gmap.items():
        if g.value(g.hi) != chi.rank:
            raise ValueError(f"cone {i}: characteristic function does not saturate to the rank")
    mat = intersection_table(fan).matrix
    e, h_ak = rr.e, sum(deg_h)
    one = two_q = xh = 0  # the vertex: sums of 1, of 2 + q and of x.deg(H')
    rays: dict[WeightKey, list] = {}  # ray key -> [sum of 2 + q, of x.deg(H')]
    interior = []  # (key, 2 e^2 Xi) at the box points of the 2-cones, in key order
    faces = _Faces(chi, fan)
    for nu in fan.cones():
        # the bounds of restrict_to_face(chi, nu, fan), read off the grid that
        # holds nu, with no face built
        grid, positions = faces.source(nu)
        lo = [grid.lo[p] for p in positions]
        s = (-1) ** (fan.rank - len(nu))
        cut = [grid.hi[p] + 1 for p in positions]
        m_cut = [sum(mat[i][j] * y for j, y in zip(nu, cut)) for i in nu]  # (M cut)_i on nu
        one += s
        two_q += s * (2 + sum(x * (mx - deg_ak[i]) for x, mx, i in zip(cut, m_cut, nu)))
        xh += s * sum(x * deg_h[i] for x, i in zip(cut, nu))
        for u, i in enumerate(nu):
            m_ii = mat[i][i]
            rest = 2 * (m_cut[u] - m_ii * cut[u]) - deg_ak[i]
            for a in range(lo[u], cut[u]):
                acc = rays.setdefault(((i,), (a,)), [0, 0])
                acc[0] -= s * (m_ii * (2 * a + 1) + rest)
                acc[1] -= s * deg_h[i]
        if len(nu) == 2 and mat[nu[0]][nu[1]]:
            # a maximal cone (s = 1) alone weighs its box points, each by 2 M_ij
            # to 2 + q, so 2 e^2 Xi is the constant 2 e^2 M_ij
            coeffs = (2 * e * e * mat[nu[0]][nu[1]],)
            interior += [((nu, lam), coeffs)
                         for lam in itertools.product(*(range(a, b) for a, b in zip(lo, cut)))]
    keyed = []  # (key, 2 e^2 Xi without its zero top coefficients), Xi nonzero
    sums = [(((), ()), one, two_q, xh)] + [(key, 0, t, x) for key, (t, x) in sorted(rays.items())]
    for key, one, two_q, xh in sums:
        coeffs = [e * e * two_q, e * (one * h_ak - 2 * xh), one * rr.h_int_sq]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if coeffs:
            keyed.append((key, tuple(coeffs)))
    keyed += interior
    distinct: dict[tuple[int, ...], int] = {}
    index = tuple(distinct.setdefault(coeffs, len(distinct)) for _, coeffs in keyed)
    g = math.gcd(2 * e * e, *(c for coeffs in distinct for c in coeffs))
    width = max(map(len, distinct), default=0)
    polys = tuple(tuple(c // g for c in coeffs) + (0,) * (width - len(coeffs))
                  for coeffs in distinct)
    return XiWeights(chi.rank, tuple(key for key, _ in keyed), 2 * e * e // g, polys, index)


def choose_r(chi: CharFunction, fan: Fan, ample: Sequence,
             witnesses: Sequence[DeltaFamily]) -> tuple[int, WeightSystem]:
    """Smallest R in [1, R_MAX] with all face weights positive at R and the
    GIT verdict matching the Gieseker verdict on every witness family.

    A GIT margin is linear in the weights, so its value at the weights Xi(R)
    is the margin _gieseker_margins builds from Xi, evaluated at R; its sign
    is that of the integer N(R).  Each witness's meet table and Gieseker
    margins are read off its record; a witness whose characteristic function
    is chi reuses them as its margins at Xi, so when the held record is such
    a witness with Xi at this polarization, Xi is read off it too.  Every
    trial R then evaluates the integer polynomials D Xi and N by Horner's
    rule, with no Fraction, and checks that the weights are integers there.
    The weight system is built once, at the R returned."""
    last = getattr(_LAST, "record", None)
    held = None
    if last is not None and last.fan is fan and any(w is last.fam for w in witnesses):
        held = last.held(ample)
    xi = held[0] if held and last.chi == chi else xi_weights(chi, fan, ample)
    checks = []
    for w in witnesses:
        if w.kind == KIND_PURE:
            raise ValueError(TORSION_FREE_ONLY)
        rec = _record(w, fan)
        if rec.chi == chi:
            margins = target = rec.gieseker(ample, xi)[1]
        else:
            target = rec.gieseker(ample)[1]
            margins = _gieseker_margins(rec.meets, xi)
        checks.append((w.rank, [nums for _, nums, _ in margins],
                       _gieseker_verdict(rec.meets, target).verdict))
    for r in range(1, R_MAX + 1):
        vals = [_horner(p, r) for p in xi.polys]
        if any(v <= 0 for v in vals):
            continue  # some weight is nonpositive at R
        xi._require_integral(r, vals)
        if all(_git_verdict_at(xi.ambient, m, nums, r) == t for m, nums, t in checks):
            return r, xi._system_at(vals)
    raise RuntimeError(f"no certified R found in [1, {R_MAX}]")


def _git_verdict_at(ambient: int, m: int, numerators, r: int) -> str:
    """The GIT verdict at the weights Xi(r) from the margin numerators N."""
    _check_ambient(ambient, m)
    # no test subspace: stable
    return margin_verdict(max((_horner(nums, r) for nums in numerators), default=-1))
