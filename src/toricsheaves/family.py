"""Combinatorial sheaf data on smooth toric varieties.

A sheaf is stored per maximal cone as a grid of rational subspaces of k^M
indexed by lattice points of a bounding box, in the character coordinates
given by the dual basis of the cone's rays (a Klyachko-style multi-
filtration).  Evaluation outside the box follows two rules: below the box
in any coordinate the value is zero, above the box a coordinate clamps to
the top (saturation).  Directions in which the sheaf is genuinely bounded
(lower-dimensional support) are encoded by explicit zero slabs at the top
of the box, so the clamp pattern of the grid determines the support.

This module is the one face reader: _Faces resolves a cone to the grid
that holds it, and _Face reads the face there in place, by stride.
Reflexivity, restrict_to_face, the Chern brackets, the face weights and the
stability meet table read faces through them.  The gluing check reads each
pair's common face by the same stride arithmetic, with no _Face: one list
of values per grid, zero below the box and clamped above it, so nothing it
builds outlives the check.

A family file is decoded in integers.  The _RATIONAL pattern gates each
basis entry (an int, or a string p or p/q with q > 0), which is read as a
numerator and a denominator; each row is scaled by the lcm of its
denominators, so the integer kernel of subspace gets int rows and no
Fraction is built.  Every cone entry's box is read and counted before any
value is built.  Each box is then filled in one pass in box order.

The fill proves a grid monotone, or leaves it to validation.  A point's
value is its jump if it has one, else its join: the sum of the seeds at or
below it, a seed being a jump in the box or one below lo moved up onto lo.
The join grows along every axis, and every value lies in its own join,
since a jump is a seed at its point.  So when every jump in the box
contains `below` at its point, the sum of the joins one step down, each
value includes into the value one step up: into a join, since the join
there contains the join here; into a jump, since the join here is part of
`below` there.  The decoder checks this at each jump, and records a grid
that passes as monotone in its instance dict, as _face_of keeps faces;
validation then skips that grid's inclusion scan (_proved_monotone).  The
condition is sufficient, not necessary: a jump moved up from below lo onto
the point of a jump enlarges the join there but not the value, so the jump
one step up may fail it in a monotone grid.  Such a grid, and any grid
built in memory, is scanned.  Gluing, the box top and the other per-cone
checks run on every grid.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from dataclasses import dataclass, replace
from math import lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from .fan import APEX, ConeRef, Fan, _json_int, _json_of, cone_index
from .subspace import SubspaceQ, rref

# ---------------------------------------------------------------------------
# box helpers

def box_points(lo: Sequence[int], hi: Sequence[int]) -> Iterable[tuple[int, ...]]:
    return itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def _box_index(lo: Sequence[int], hi: Sequence[int], lam: Sequence[int]) -> int:
    idx = 0
    for a, b, x in zip(lo, hi, lam):
        idx = idx * (b - a + 1) + (x - a)
    return idx


def _strides(lo: Sequence[int], hi: Sequence[int]) -> tuple[int, ...]:
    """Index offset of one step up in each coordinate of the lo..hi box."""
    out = [1] * len(lo)
    for k in range(len(lo) - 1, 0, -1):
        out[k - 1] = out[k] * (hi[k] - lo[k] + 1)
    return tuple(out)


class _Grid:
    """A box of values for one cone: a subspace grid (CornerFamily) or its
    dimension grid (DimGrid).  Every grid operation is written once here; a
    subclass supplies only _make and _zero_value."""

    cone: ConeRef
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    values: tuple

    def _make(self, cone: ConeRef, lo, hi, values):
        raise NotImplementedError

    def _zero_value(self):
        raise NotImplementedError

    def _entry(self, lam):
        return self.values[_box_index(self.lo, self.hi, lam)]

    def value(self, lam: Sequence[int]):
        """The value at lam: zero if lam is below the box in some coordinate,
        else the entry at lam with every coordinate clamped to the top."""
        idx = 0
        for a, b, x in zip(self.lo, self.hi, lam):
            if x < a:
                return self._zero_value()
            idx = idx * (b - a + 1) + ((x if x < b else b) - a)
        return self.values[idx]

    def points(self):
        return box_points(self.lo, self.hi)

    def ndim(self) -> int:
        return len(self.cone)

    def face(self, positions: Sequence[int]):
        """Grid over the sub-box of the given free coordinates, all other
        coordinates clamped to the top (the limit toward infinity)."""
        positions = tuple(positions)
        if positions == tuple(range(self.ndim())):
            return self  # grids are frozen, so the whole box is its own face
        lo = tuple(self.lo[p] for p in positions)
        hi = tuple(self.hi[p] for p in positions)
        vals = []
        for lam in box_points(lo, hi):
            full = list(self.hi)
            for p, x in zip(positions, lam):
                full[p] = x
            vals.append(self._entry(tuple(full)))
        return self._make(tuple(self.cone[p] for p in positions), lo, hi, tuple(vals))

    def shift(self, k: Sequence[int]):
        return self._make(
            self.cone,
            tuple(a - b for a, b in zip(self.lo, k)),
            tuple(a - b for a, b in zip(self.hi, k)),
            self.values,
        )

    def trim(self):
        """Canonical minimal box: drop all-zero bottom slabs and clamp-redundant
        top slabs; evaluation is unchanged.  The values are read by index: a
        slab is the sub-box with one coordinate held, listed by stride, and the
        point one step down in coordinate k lies strides[k] before its own.

        One pass over the coordinates suffices.  A dropped slab is all zero
        or repeats the slab below it, so its points pass or fail every check
        of another coordinate exactly as the points kept beside them do, and
        no drop in one coordinate lets another coordinate drop more."""
        lo, hi = list(self.lo), list(self.hi)
        vals, zero, strides = self.values, self._zero_value(), _strides(self.lo, self.hi)

        def indices(a, b):  # the a..b sub-box, in box order
            out = [0]
            for base, s, x0, x1 in zip(self.lo, strides, a, b):
                out = [i + (x - base) * s for i in out for x in range(x0, x1 + 1)]
            return out

        def slab(k, at):
            return indices(lo[:k] + [at] + lo[k + 1:], hi[:k] + [at] + hi[k + 1:])

        for k, step in enumerate(strides):
            while hi[k] > lo[k] and all(vals[i] == vals[i - step] for i in slab(k, hi[k])):
                hi[k] -= 1
            while lo[k] < hi[k] and all(vals[i] == zero for i in slab(k, lo[k])):
                lo[k] += 1
        if (tuple(lo), tuple(hi)) == (self.lo, self.hi):
            return self  # grids are frozen, so a minimal box is its own trim
        return self._make(self.cone, tuple(lo), tuple(hi), tuple(vals[i] for i in indices(lo, hi)))

    def nonzero_points(self):
        zero = self._zero_value()
        return [lam for lam, v in zip(self.points(), self.values) if v != zero]


@dataclass(frozen=True)
class DimGrid(_Grid):
    """Integer dimension grid over a box, one per maximal cone of a
    characteristic function."""

    cone: ConeRef
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    values: tuple[int, ...]

    def _make(self, cone, lo, hi, values) -> "DimGrid":
        return DimGrid(cone, lo, hi, values)

    def _zero_value(self):
        return 0


@dataclass(frozen=True)
class CornerFamily(_Grid):
    """Subspace grid over a box for one cone; the maps along each axis are
    the inclusions (torsion-free kinds) or drop to zero where the support
    ends (pure kinds)."""

    cone: ConeRef
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    values: tuple[SubspaceQ, ...]
    ambient: int

    def _make(self, cone, lo, hi, values) -> "CornerFamily":
        return CornerFamily(cone, lo, hi, values, self.ambient)

    def _zero_value(self):
        return SubspaceQ.zero(self.ambient)

    def dims(self) -> DimGrid:
        """The dimension grid, kept once built like the faces of _face_of, so
        characteristic functions of one family share its grids and faces."""
        grid = self.__dict__.get("_dims")
        if grid is None:
            grid = self.__dict__["_dims"] = DimGrid(
                self.cone, self.lo, self.hi, tuple(v.dim for v in self.values))
        return grid

    def map_values(self, f) -> "CornerFamily":
        return self._make(self.cone, self.lo, self.hi, tuple(f(v) for v in self.values))

    def with_value(self, lam: Sequence[int], v: SubspaceQ) -> "CornerFamily":
        idx = _box_index(self.lo, self.hi, tuple(lam))
        vals = list(self.values)
        vals[idx] = v
        return self._make(self.cone, self.lo, self.hi, tuple(vals))

    def pad_top(self, delta: int) -> "CornerFamily":
        """Extend the box top by delta in every coordinate; the new grid
        points take the clamped values, so evaluation is unchanged."""
        hi = tuple(h + delta for h in self.hi)
        vals = tuple(self.value(lam) for lam in box_points(self.lo, hi))
        return self._make(self.cone, self.lo, hi, vals)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)


# ---------------------------------------------------------------------------
# characteristic functions

@dataclass(frozen=True)
class CharFunction:
    """Per maximal cone, the dimension function of a family."""

    rank: int
    corners: tuple[tuple[int, DimGrid], ...]

    def corner_map(self) -> dict[int, DimGrid]:
        return dict(self.corners)

    def empty_face(self, nu: ConeRef) -> DimGrid:
        """The zero grid on a face no cone of the data contains."""
        return DimGrid(nu, (0,) * len(nu), (0,) * len(nu), (0,))

    def trim(self) -> "CharFunction":
        return CharFunction(self.rank, tuple((i, g.trim()) for i, g in self.corners))

    def canonical(self) -> str:
        doc = {
            "rank": self.rank,
            "cones": [
                {
                    "index": i,
                    "cone": list(g.cone),
                    "lo": list(g.lo),
                    "hi": list(g.hi),
                    "dims": list(g.values),
                }
                for i, g in sorted(self.corners)
            ],
        }
        return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# ray filtrations and families

@dataclass(frozen=True)
class RayFiltration:
    """Increasing filtration along one ray: jumps (lambda, subspace) with
    strictly increasing lambdas and strictly increasing subspaces, the last
    one the full space."""

    ray: int
    jumps: tuple[tuple[int, SubspaceQ], ...]

    def __post_init__(self):
        if not self.jumps:
            raise ValueError(f"ray {self.ray}: empty filtration")
        amb = self.jumps[0][1].ambient
        prev = None
        for lam, v in self.jumps:
            if v.ambient != amb:
                raise ValueError(f"ray {self.ray}: mixed ambient dimensions")
            if prev is not None:
                if lam <= prev[0]:
                    raise ValueError(f"ray {self.ray}: jump positions not increasing")
                if not (v.contains(prev[1]) and v.dim > prev[1].dim):
                    raise ValueError(f"ray {self.ray}: jumps not strictly increasing")
            prev = (lam, v)
        if not self.jumps[-1][1].is_full():
            raise ValueError(f"ray {self.ray}: filtration never reaches the full space")

    @property
    def ambient(self) -> int:
        return self.jumps[0][1].ambient

    @property
    def first(self) -> int:
        return self.jumps[0][0]

    @property
    def last(self) -> int:
        return self.jumps[-1][0]


KIND_TORSION_FREE = "torsion-free"
KIND_REFLEXIVE = "reflexive"
KIND_PURE = "pure"


@dataclass(frozen=True)
class DeltaFamily:
    """Glued corner families over the maximal cones of a fan."""

    kind: str
    rank: int
    corners: tuple[tuple[int, CornerFamily], ...]
    support: tuple[ConeRef, ...] = (APEX,)

    def corner_map(self) -> dict[int, CornerFamily]:
        return dict(self.corners)

    def empty_face(self, nu: ConeRef) -> CornerFamily:
        """The zero grid on a face no cone of the data contains."""
        return CornerFamily(nu, (0,) * len(nu), (0,) * len(nu), (SubspaceQ.zero(self.rank),), self.rank)

    def map_corners(self, f) -> "DeltaFamily":
        return DeltaFamily(self.kind, self.rank, tuple((i, f(c)) for i, c in self.corners), self.support)


def reflexive_from_filtrations(filts: Sequence[RayFiltration], fan: Fan) -> DeltaFamily:
    """Build the family whose corner values are the intersections of the ray
    filtration values; this is the subspace grid of a reflexive sheaf."""
    if len(filts) != fan.n_rays():
        raise ValueError(f"need one filtration per ray ({fan.n_rays()}), got {len(filts)}")
    by_ray = {f.ray: f for f in filts}
    if set(by_ray) != set(range(fan.n_rays())):
        raise ValueError("filtration ray indices must be 0..N-1, one each")
    ambients = {f.ambient for f in filts}
    if len(ambients) != 1:
        raise ValueError(f"ambient-dimension mismatch across filtrations: {sorted(ambients)}")
    m = ambients.pop()
    corners = []
    for i, mc in enumerate(fan.max_cones):
        fs = [by_ray[j] for j in mc]
        lo = tuple(f.first for f in fs)
        hi = tuple(f.last for f in fs)
        # the box points in box order are the product of the rays' lo..hi
        vals = tuple(functools.reduce(SubspaceQ.intersect, meet)
                     for meet in itertools.product(*map(_ray_values, fs)))
        corners.append((i, CornerFamily(mc, lo, hi, vals, m)))
    return DeltaFamily(KIND_REFLEXIVE, m, tuple(corners))


def _ray_values(f: RayFiltration) -> list[SubspaceQ]:
    """The values of f at f.first .. f.last: each jump's subspace, held up to
    the next jump."""
    out = []
    for (pos, v), (nxt, _) in zip(f.jumps, f.jumps[1:]):
        out += [v] * (nxt - pos)
    out.append(f.jumps[-1][1])
    return out


# ---------------------------------------------------------------------------
# faces read in place

class _Face(NamedTuple):
    """A face of a grid read in place: the grid's values, (lo, hi, stride) in
    the grid per face coordinate, and the grid's zero; every other
    coordinate stays at the top of its box.  The same arithmetic reads any
    array in the grid's box order, such as a table of slots."""

    values: tuple
    axes: tuple[tuple[int, int, int], ...]
    zero: object

    def value(self, lam: Sequence[int]):
        """The value at lam, clamped to the top of the box: zero below it, and
        in a box with no points."""
        idx = len(self.values) - 1
        for x, (a, b, stride) in zip(lam, self.axes):
            if x < a:
                return self.zero
            if x < b:
                idx -= (b - x) * stride
        return self.values[idx] if idx >= 0 else self.zero

    def line(self) -> list:
        """The values of a face with one coordinate, lo to hi, as value reads
        them."""
        (a, b, stride), = self.axes
        top = len(self.values) - 1
        if top < 0:
            return [self.zero] * (b - a + 1)
        return [self.values[top - (b - x) * stride] for x in range(a, b + 1)]


def _face_of(grid: _Grid, positions: tuple[int, ...]) -> _Face:
    """grid.face(positions) read in place.  A repeated position reads the
    last of its coordinates, as the face grid does: the earlier ones get
    stride 0.  The grid keeps, once built, (lo, hi, stride) per coordinate,
    its zero and its faces by positions, in its instance dict as a cached
    property would; a grid is frozen, so they stay valid."""
    kept = grid.__dict__.get("_faces")
    if kept is None:
        kept = grid.__dict__["_faces"] = (
            tuple(zip(grid.lo, grid.hi, _strides(grid.lo, grid.hi))), grid._zero_value(), {})
    axes, zero, faces = kept
    face = faces.get(positions)
    if face is None:
        face = faces[positions] = _Face(grid.values, tuple(
            [(*axes[p][:2], 0) if p in positions[k + 1:] else axes[p]
             for k, p in enumerate(positions)]), zero)
    return face


class _Faces:
    """The faces of x, a family or a characteristic function, on a fan; the
    corner map and the fan's cone index are looked up once."""

    def __init__(self, x: DeltaFamily | CharFunction, fan: Fan):
        self._x, self._fan = x, fan
        self._cmap = x.corner_map()
        self._containers = cone_index(fan).containers

    def source(self, nu: ConeRef) -> tuple[_Grid, tuple[int, ...]]:
        """(grid, nu's positions in its cone) for the lowest-index maximal cone
        that contains nu and carries a grid; a nu that repeats or reorders
        rays gets each ray's position in its own order.  With no such grid,
        x.empty_face of the sorted rays; ValueError if they are no cone."""
        found = self._containers.get(nu)
        if found is None:  # not a cone as listed: read it through its set of rays
            rays = tuple(sorted(set(nu)))
            found = [(i, tuple(pos[rays.index(j)] for j in nu))
                     for i, pos in self._containers.get(rays, ())]
        for i, positions in found:
            grid = self._cmap.get(i)
            if grid is not None:
                return grid, positions
        nu = tuple(sorted(nu))
        if not self._fan.is_cone(nu):  # a grid that contains nu makes it a cone
            raise ValueError(f"{list(nu)} is not a cone of the fan")
        return self._x.empty_face(nu), tuple(range(len(nu)))

    def face(self, nu: ConeRef) -> _Face:
        """restrict_to_face(x, nu, fan) read in place, in nu's own order."""
        return _face_of(*self.source(nu))


# ---------------------------------------------------------------------------
# validation

def _gluing_report(fan: Fan, grids: dict[int, _Grid]) -> list[str]:
    """Each pair of grids must agree at every value of their common rays, each
    other coordinate at the top of its box, over the union of the two boxes
    on those rays, one step below it included.  Each grid's values there are
    read by stride as one list: every common ray but the last turns each
    index (None for a zero) into one per step along it, and the last reads
    each index's run (_run).  Lists that are equal agree; only lists that
    differ are searched for their first mismatch.  Two reads of one object
    need no comparison."""
    report = []
    reads = []  # per grid, in index order: (index, ray -> (lo, hi, stride), values, zero)
    for i, g in sorted(grids.items()):
        axes, stride = {}, 1
        for j, a, b in zip(reversed(g.cone), reversed(g.lo), reversed(g.hi)):
            axes[j] = (a, b, stride)
            stride *= b - a + 1
        reads.append((i, axes, g.values, g._zero_value()))
    for k, (ia, axes_a, vals_a, zero_a) in enumerate(reads):
        for ib, axes_b, vals_b, zero_b in reads[k + 1:]:
            common = sorted(axes_a.keys() & axes_b.keys())
            # the top corner of each box, or None (zero) for a box with no points
            tops_a = [len(vals_a) - 1 if vals_a else None]
            tops_b = [len(vals_b) - 1 if vals_b else None]
            ranges = []
            for j in common:
                (a, b, s), (c, d, u) = axes_a[j], axes_b[j]
                r = range(min(a, c) - 1, max(b, d) + 1)
                ranges.append(r)
                if len(ranges) < len(common):
                    down_a = [None if x < a else (b - x) * s if x < b else 0 for x in r]
                    down_b = [None if x < c else (d - x) * u if x < d else 0 for x in r]
                    tops_a = [None if t is None or e is None else t - e
                              for t in tops_a for e in down_a]
                    tops_b = [None if t is None or e is None else t - e
                              for t in tops_b for e in down_b]
            if common:
                va = _run(vals_a, zero_a, tops_a, axes_a[common[-1]], ranges[-1])
                vb = _run(vals_b, zero_b, tops_b, axes_b[common[-1]], ranges[-1])
            else:
                va = [zero_a if t is None else vals_a[t] for t in tops_a]
                vb = [zero_b if t is None else vals_b[t] for t in tops_b]
            if va != vb:
                at = next(at for at, (x, y) in enumerate(zip(va, vb)) if x is not y and x != y)
                lam = next(itertools.islice(itertools.product(*ranges), at, None))
                report.append(
                    f"gluing mismatch between cones {ia} and {ib} at "
                    f"common-ray values {dict(zip(common, lam))}"
                )
    return report


def _run(vals: Sequence, zero, tops: list, axis: tuple[int, int, int], r: range) -> list:
    """The values along one coordinate with the given (lo, hi, stride), at each
    x of r, from each index of tops (None for a zero): a run of zeros below
    the box, one strided slice of the values inside it and a run of the top
    value above it.  r starts below the box and ends at or above its top."""
    a, b, s = axis
    below, above = [zero] * (a - r.start), r.stop - 1 - b
    out = []
    for t in tops:
        if t is None:
            out += [zero] * len(r)
        else:
            out += below
            out += vals[t - (b - a) * s:t + 1:s]
            out += [vals[t]] * above
    return out


def _inclusion_breaks(grid: CornerFamily, drop_ok: bool):
    """Each (lam, k) where the value at lam does not include into the value
    one step up in direction k; with drop_ok, a step to zero is allowed.  A
    step off the box top clamps back onto lam, which includes into itself."""
    vals = grid.values
    steps = tuple(enumerate(zip(grid.hi, _strides(grid.lo, grid.hi))))
    for i, lam in enumerate(grid.points()):
        v = vals[i]
        for k, (top, stride) in steps:
            if lam[k] == top:
                continue
            w = vals[i + stride]
            if w is not v and not w.contains(v) and not (drop_ok and w.is_zero()):
                yield lam, k


def _cone_report(fam: DeltaFamily, fan: Fan, carrying: set[int], missing: str,
                 content: Callable[[int, CornerFamily], list[str]]) -> list[str]:
    """The report both validators share: data on exactly the maximal cones
    carrying (else just the line missing), then cone by cone in index order
    its rays, ambient and a non-empty box, with content(i, grid) checking
    each cone that passes, then the gluing.  A cone labelled with the wrong
    rays ends the report, since gluing reads the labels."""
    cmap = fam.corner_map()
    if set(cmap) != carrying:
        return [missing]
    report: list[str] = []
    for i, grid in sorted(cmap.items()):
        if grid.cone != fan.max_cones[i]:
            report.append(f"cone {i}: grid labelled with rays {grid.cone} != {fan.max_cones[i]}")
            return report
        if grid.ambient != fam.rank:
            report.append(f"cone {i}: ambient {grid.ambient} != rank {fam.rank}")
        if any(a > b for a, b in zip(grid.lo, grid.hi)):
            report.append(f"cone {i}: empty box {grid.lo}..{grid.hi}")
            continue
        report.extend(content(i, grid))
    report.extend(_gluing_report(fan, cmap))
    return report


def _limit_report(i: int, grid: CornerFamily, full: bool) -> list[str]:
    """One cone of a torsion-free family: monotone, with the value at the
    box top the full space (full) or only nonzero (a pure family supported
    on the whole surface).  A grid the decoder proved monotone is not
    scanned."""
    report = [] if _proved_monotone(grid) else [
        f"cone {i}: not monotone at {lam} direction {k}"
        for lam, k in _inclusion_breaks(grid, drop_ok=False)]
    top = grid._entry(grid.hi)
    if full and not top.is_full():
        report.append(f"cone {i}: value at the box top is not the full space")
    elif not full and top.is_zero():
        report.append(f"cone {i}: zero limit space")
    return report


def validate_torsion_free(fam: DeltaFamily, fan: Fan) -> list[str]:
    """Empty report iff the family is a valid framed torsion-free family:
    monotone, glued, and saturating to the full space on every cone."""
    return _cone_report(fam, fan, set(range(len(fan.max_cones))),
                        "torsion-free family must carry data on every maximal cone",
                        lambda i, grid: _limit_report(i, grid, True))


def require_torsion_free(fam: DeltaFamily, fan: Fan) -> None:
    """Raise ValueError naming the first problems unless fam is a valid
    torsion-free family."""
    bad = validate_torsion_free(fam, fan)
    if bad:
        raise ValueError("invalid family: " + "; ".join(bad[:3]))


def is_reflexive(fam: DeltaFamily, fan: Fan) -> bool:
    """True iff every corner value is the intersection of its axis limits."""
    require_torsion_free(fam, fan)
    return _corners_are_axis_meets(fam)


def _corners_are_axis_meets(fam: DeltaFamily) -> bool:
    """is_reflexive for a family already known to be valid torsion-free."""
    for _, grid in fam.corners:
        # axis limit k at x: the ray face of coordinate k at x
        axes = [_face_of(grid, (k,)).line() for k in range(grid.ndim())]
        full = SubspaceQ.full(grid.ambient)
        for v, lam in zip(grid.values, grid.points()):
            expect = full
            for axis, x, a in zip(axes, lam, grid.lo):
                expect = expect.intersect(axis[x - a])
            if v is not expect and v != expect:
                return False
    return True


def detect_support(corner: CornerFamily) -> set[ConeRef]:
    """Support cones read off from the clamp pattern: the minimal coordinate
    sets S such that the family survives to infinity outside S."""
    if corner.is_zero():
        raise ValueError("zero family has no support")
    r = corner.ndim()
    minimal: list[tuple[int, ...]] = []
    for size in range(r + 1):
        for T in itertools.combinations(range(r), size):
            if any(set(m) <= set(T) for m in minimal):
                continue
            if not corner.face(T).is_zero():
                minimal.append(T)
    return {tuple(sorted(corner.cone[p] for p in T)) for T in minimal}


def _pure_cone_report(i: int, grid: CornerFamily, patterns: list[tuple[int, ...]], s: int) -> list[str]:
    report: list[str] = []
    detected = detect_support(grid) if not grid.is_zero() else set()
    expected = {tuple(sorted(grid.cone[p] for p in T)) for T in patterns}
    if detected != expected:
        report.append(
            f"cone {i}: support pattern {sorted(detected)} does not match declared {sorted(expected)}"
        )
    if not _proved_monotone(grid):  # a monotone grid has no break, with drops or without
        for lam, k in _inclusion_breaks(grid, drop_ok=True):
            report.append(f"cone {i}: value at {lam} does not include into direction {k}")
    bounded = sorted(set(p for T in patterns for p in T))
    if not bounded:
        return report
    # per-coordinate bounds inferred from the top regions
    c_bound: dict[int, int] = {}
    for T in patterns:
        top = grid.face(T).nonzero_points()
        if not top:
            continue
        for pos, p in enumerate(T):
            best = max(lam[pos] for lam in top)
            c_bound[p] = max(c_bound.get(p, best), best)
    def in_region(lam):
        return any(all(lam[p] <= c_bound.get(p, lam[p]) for p in T) for T in patterns)

    for lam in grid.points():
        v = grid._entry(lam)
        if v.is_zero():
            continue
        if not in_region(lam):
            report.append(f"cone {i}: nonzero value outside the support region at {lam}")
            continue
        for k in range(grid.ndim()):
            nxt = list(lam)
            nxt[k] += 1
            if grid.value(nxt).is_zero() and in_region(nxt):
                report.append(f"cone {i}: value drops to zero inside the region at {lam} direction {k}")
        # injectivity into the next regions up (the boundary map check)
        iset = [p for p in bounded if p in c_bound and lam[p] <= c_bound[p]]
        if len(iset) >= s + 1:
            for J in itertools.combinations(iset, s + 1):
                ok = False
                for j in J:
                    walk = list(lam)
                    alive = True
                    while walk[j] <= c_bound[j]:
                        walk[j] += 1
                        if grid.value(walk).is_zero():
                            alive = False
                            break
                    if alive:
                        ok = True
                        break
                if not ok:
                    report.append(
                        f"cone {i}: boundary map not injective at {lam} for coordinates {J}"
                    )
    return report


def validate_pure(fam: DeltaFamily, fan: Fan) -> list[str]:
    """Validate a pure family with declared support cones of equal dimension."""
    if not fam.support:
        return ["pure family with empty support"]
    dims = {len(t) for t in fam.support}
    if len(dims) != 1:
        return [f"support cones of mixed dimensions {sorted(dims)}"]
    for t in fam.support:
        if not fan.is_cone(t):
            return [f"declared support {list(t)} is not a cone of the fan"]
    s = dims.pop()
    # the support star; with s == 0 it is every maximal cone
    carrying = {
        i
        for i, mc in enumerate(fan.max_cones)
        if any(set(t) <= set(mc) for t in fam.support)
    }
    missing = f"data on cones {sorted(fam.corner_map())} but the support star is {sorted(carrying)}"
    if s == 0:
        # support is the whole variety; the conditions collapse to the
        # torsion-free ones with a nonzero limit in place of the full space
        return _cone_report(fam, fan, carrying, missing,
                            lambda i, grid: _limit_report(i, grid, False))

    def patterns(i):
        mc = fan.max_cones[i]
        return [tuple(sorted(mc.index(j) for j in t)) for t in fam.support if set(t) <= set(mc)]

    return _cone_report(fam, fan, carrying, missing,
                        lambda i, grid: _pure_cone_report(i, grid, patterns(i), s))


def validate_family(fam: DeltaFamily, fan: Fan) -> list[str]:
    if fam.kind == KIND_PURE:
        return validate_pure(fam, fan)
    report = validate_torsion_free(fam, fan)
    if not report and fam.kind == KIND_REFLEXIVE and not _corners_are_axis_meets(fam):
        report.append("declared reflexive but some corner value is smaller than its axis limits")
    return report


# ---------------------------------------------------------------------------
# restriction, twisting, characteristic function, gauge

def restrict_to_face(x: DeltaFamily | CharFunction, nu: ConeRef, fan: Fan):
    """The family (or characteristic function) on the open chart of nu:
    finite coordinates along the rays of nu, all other coordinates sent to
    infinity (clamped)."""
    grid, positions = _Faces(x, fan).source(tuple(sorted(nu)))
    return grid.face(positions)


def cone_shift(kvec: Sequence[int], cone: ConeRef) -> tuple[int, ...]:
    return tuple(int(kvec[j]) for j in cone)


def tensor_line_bundle(x: DeltaFamily | CharFunction, kvec: Sequence[int]):
    """Twist by the equivariant line bundle with ray integers kvec: each
    corner grid shifts by the per-cone components of kvec."""
    return replace(x, corners=tuple(
        (i, grid.shift(cone_shift(kvec, grid.cone))) for i, grid in x.corners
    ))


def characteristic_function(fam: DeltaFamily) -> CharFunction:
    return CharFunction(fam.rank, tuple((i, grid.dims()) for i, grid in fam.corners))


def gauge_fix(x: DeltaFamily | CharFunction, fan: Fan):
    """Normalize by the unique trivial-class line-bundle twist that makes the
    maximal lower bounds on the designated cone all zero.

    The designated cone is the lowest-index maximal cone carrying nonzero
    data.  Returns (fixed, kvec) where kvec is the ray vector of the twist
    applied (a relation vector, so the divisor class is unchanged); a fixed
    characteristic function is also trimmed.
    """
    cmap = x.corner_map()
    for i in sorted(cmap):
        support = cmap[i].nonzero_points()
        if support:
            break
    else:
        raise ValueError("family is zero on every cone; nothing to gauge")
    grid = cmap[i]
    bounds = [min(lam[k] for lam in support) for k in range(grid.ndim())]
    # rays * u = bounds for the unimodular cone: RREF of the augmented matrix,
    # each of whose rows holds a multiple of its RREF row (pivot, ..., u_p)
    red = rref([list(fan.rays[j]) + [b] for j, b in zip(grid.cone, bounds)])
    pivots = [next(x for x in row if x) for row in red]
    if any(row[-1] % p for row, p in zip(red, pivots)):
        raise ValueError("non-integral solution; cone is not unimodular")
    u = [row[-1] // p for row, p in zip(red, pivots)]
    kvec = tuple(
        sum(ui * nj for ui, nj in zip(u, fan.rays[j])) for j in range(fan.n_rays())
    )
    fixed = tensor_line_bundle(x, kvec)
    return (fixed.trim() if isinstance(x, CharFunction) else fixed), kvec


def intersect_with_subspace(fam: DeltaFamily, w: SubspaceQ) -> DeltaFamily:
    """The subfamily with every corner value intersected with w."""
    if w.ambient != fam.rank:
        raise ValueError("subspace ambient does not match the family rank")
    return fam.map_corners(lambda g: g.map_values(lambda v: v.intersect(w)))


# ---------------------------------------------------------------------------
# serialization

def _box_joins(lo, hi, ambient: int, seed) -> list[SubspaceQ]:
    """The joins over the lo..hi box in box order, in one pass.  At the point
    of index i, `below` is the sum of the joins one step down in each
    coordinate inside the box; seed(i, below) returns the subspace seeded at
    i, or None, and the join at i is below plus the seed.  So the join at a
    point is the sum of every seed at a point at or below it.  Neighbours
    often share one join object: it is added once, and the grid keeps the
    sharing, which the gluing check and the meet table's slots test by
    identity before they compare values."""
    joins: list[SubspaceQ] = []
    zero = SubspaceQ.zero(ambient)
    # per point, the index offset of the step down in each coordinate, 0 at lo
    downs = itertools.product(*([s * (x > a) for x in range(a, b + 1)]
                                for a, b, s in zip(lo, hi, _strides(lo, hi))))
    for i, steps in enumerate(downs):
        below = zero
        for s in steps:
            if s:
                down = joins[i - s]
                if down is not below:
                    below = below.sum(down) if below.rows else down
        v = seed(i, below)
        joins.append(below if v is None else below.sum(v) if below.rows else v)
    return joins


def _grid_jumps(grid: CornerFamily) -> list[dict]:
    """Minimal explicit entries: a point is written iff the join of the
    already-written entries below it does not reproduce the value."""
    written: list[int] = []

    def seed(i, below):
        actual = grid.values[i]
        if below != actual:
            written.append(i)
            return actual
        return None

    _box_joins(grid.lo, grid.hi, grid.ambient, seed)
    points = list(grid.points())
    return [{"at": list(points[i]), "basis": grid.values[i].basis_str()} for i in written]


def family_to_json(fam: DeltaFamily) -> str:
    doc = {
        "kind": fam.kind,
        "rank": fam.rank,
        "support": [list(t) for t in fam.support],
        "cones": [
            {
                "index": i,
                "cone": list(g.cone),
                "lo": list(g.lo),
                "hi": list(g.hi),
                "jumps": _grid_jumps(g),
            }
            for i, g in fam.corners
        ],
    }
    return json.dumps(doc, sort_keys=True)


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # p or p/q with q > 0
# lattice points one cone's lo..hi box may hold; every point stores a subspace
MAX_BOX_POINTS = 10_000
# lattice points the boxes of all cone entries of one file may hold together
MAX_FAMILY_POINTS = 20_000


def _ints(x, what: str) -> tuple[int, ...]:
    """A JSON array of integers as a tuple: one type check per entry, and
    _json_int only to name the first entry that is not a JSON integer."""
    for v in _json_of(list, x, what):
        if type(v) is not int:
            return tuple(_json_int(y, what + " entry") for y in x)
    return tuple(x)


def _basis_row(row) -> list[int]:
    """A basis row as ints spanning the same line.  Each entry is an int (not
    a bool), taken as p/1, or a string p or p/q with q > 0, read as p and q;
    the row is scaled by the lcm of its q, so no Fraction is built."""
    nums, dens = [], []
    for x in _json_of(list, row, "basis row"):
        if type(x) is int:
            nums.append(x)
            dens.append(1)
        elif type(x) is str and _RATIONAL.fullmatch(x):
            p, _, q = x.partition("/")
            nums.append(int(p))
            dens.append(int(q) if q else 1)
        else:
            raise ValueError(
                f"basis entry {x!r} is not an integer or a rational string p/q with q > 0")
    den = lcm(*dens)
    return nums if den == 1 else [p * (den // q) for p, q in zip(nums, dens)]


def _proved_monotone(grid: CornerFamily) -> bool:
    """True if family_from_json proved grid monotone as it filled it; the
    record lives in the grid's instance dict, so a grid rebuilt from it
    (map_values, shift, trim) carries none."""
    return "_monotone" in grid.__dict__


def _grid_from_jumps(jumps, index: int, cone, lo, hi, m: int) -> CornerFamily:
    """One cone entry's grid, filled in one pass by _box_joins, and recorded
    as monotone in its instance dict when the fill proves it (see the module
    docstring).  Jumps and seeds are keyed by box index."""
    strides = _strides(lo, hi)
    ats: set[tuple[int, ...]] = set()
    explicit: dict[int, SubspaceQ] = {}  # the jumps in the box
    seeds: dict[int, SubspaceQ] = {}  # the sum of the jumps that act from each point
    for j in _json_of(list, jumps, "jumps"):
        _json_of(dict, j, "jump")
        for field in ("at", "basis"):
            if field not in j:
                raise ValueError(f"family jump missing field '{field}'")
        at = _ints(j["at"], "at")
        if len(at) != len(cone):
            raise ValueError(f"family cone {index}: jump at {list(at)} has {len(at)} "
                             f"entries for a cone of {len(cone)} rays")
        if at in ats:
            raise ValueError(f"family cone {index}: two jumps at {list(at)}")
        ats.add(at)
        # every entry of the jump is read before span checks any row's length
        v = SubspaceQ.span([_basis_row(row) for row in _json_of(list, j["basis"], "basis")], m)
        # a jump below lo acts from lo on; one above hi reaches no point of the box
        i, inside = 0, True
        for x, a, b, stride in zip(at, lo, hi, strides):
            if x > b:
                break
            if x < a:
                x, inside = a, False
            i += (x - a) * stride
        else:
            if inside:
                explicit[i] = v
            seeds[i] = seeds[i].sum(v) if i in seeds else v
    breaks = []

    def seed(i, below):
        v = explicit.get(i)
        if v is not None and not v.contains(below):
            breaks.append(i)
        return seeds.get(i)

    vals = _box_joins(lo, hi, m, seed)
    for i, v in explicit.items():
        vals[i] = v
    grid = CornerFamily(cone, lo, hi, tuple(vals), m)
    if not breaks:
        grid.__dict__["_monotone"] = True
    return grid


def family_from_json(text: str) -> DeltaFamily:
    """The family a file describes.  Every cone entry's box is read and
    counted before any value is built; each grid is then filled in one pass
    and recorded as monotone when the fill proves it (see the module
    docstring)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"family file is not valid JSON: {e}") from e
    _json_of(dict, doc, "family file")
    for field in ("kind", "rank", "cones"):
        if field not in doc:
            raise ValueError(f"family file missing field '{field}'")
    if doc["kind"] not in (KIND_TORSION_FREE, KIND_REFLEXIVE, KIND_PURE):
        raise ValueError(f"family kind {doc['kind']!r} is not one of "
                         f"{KIND_TORSION_FREE}, {KIND_REFLEXIVE}, {KIND_PURE}")
    m = _json_int(doc["rank"], "family rank")
    if m < 0:
        raise ValueError(f"family rank {m} is negative")

    entries = _json_of(list, doc["cones"], "cones")
    boxes = []
    seen: set[int] = set()
    total = 0
    for entry in entries:
        _json_of(dict, entry, "family cone entry")
        for field in ("index", "cone", "lo", "hi", "jumps"):
            if field not in entry:
                raise ValueError(f"family cone entry missing field '{field}'")
        index = _json_int(entry["index"], "cone index")
        if index in seen:
            raise ValueError(f"family cone {index}: two cone entries with this index")
        seen.add(index)
        cone, lo, hi = (_ints(entry[field], field) for field in ("cone", "lo", "hi"))
        if not len(cone) == len(lo) == len(hi):
            raise ValueError(f"family cone {index}: cone, lo and hi have lengths "
                             f"{len(cone)}, {len(lo)} and {len(hi)}; they must be equal")
        points = 1
        for a, b in zip(lo, hi):
            points *= max(0, b - a + 1)
        if points > MAX_BOX_POINTS:
            raise ValueError(f"family cone {index}: its lo..hi box has {points} points; "
                             f"at most {MAX_BOX_POINTS} are accepted")
        total += points
        boxes.append((index, cone, lo, hi))
    if total > MAX_FAMILY_POINTS:
        raise ValueError(f"family file: its cone boxes hold {total} points in all; "
                         f"at most {MAX_FAMILY_POINTS} are accepted")
    corners = tuple((index, _grid_from_jumps(entry["jumps"], index, cone, lo, hi, m))
                    for entry, (index, cone, lo, hi) in zip(entries, boxes))
    support = tuple(
        _ints(t, "support") for t in _json_of(list, doc.get("support", [[]]), "support list")
    )
    if doc["kind"] != KIND_PURE and support != (APEX,):
        raise ValueError(f"family support {[list(t) for t in support]} is not the apex [[]]: "
                         f"a {doc['kind']} family is supported on the whole variety")
    return DeltaFamily(doc["kind"], m, corners, support)
