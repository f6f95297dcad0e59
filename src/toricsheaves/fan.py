"""Smooth complete toric fans and their combinatorics.

A fan is stored as an ordered list of primitive ray generators plus the
maximal cones as ray-index sets.  Since every cone here is smooth (hence
simplicial), the full face lattice is derived on demand as the set of
subsets of maximal cones.  For surfaces (rank 2) the ray order is the
counterclockwise cyclic order and completeness is checked exactly via the
angular cover; in higher rank the facet-pairing criterion is used.
"""

from __future__ import annotations

import itertools
import json
import types
import weakref
from dataclasses import dataclass
from math import gcd
from typing import Iterable, NamedTuple, Sequence

ConeRef = tuple[int, ...]
APEX: ConeRef = ()


def _primitive(v: Sequence[int]) -> bool:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g == 1


def _det(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: O(n^3) integer steps, each division exact, every entry a
    minor of the matrix, so entries stay as small as the minors.  A 2 x 2
    matrix, the cone of a surface, is read off directly."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _cross2(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _angle_class(v: Sequence[int]) -> int:
    # 0 for the closed upper half starting at the positive x-axis, 1 below
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return 0
    return 1


def _ccw_before(u: Sequence[int], v: Sequence[int]) -> bool:
    """Strict angular order starting at direction (1, 0), going ccw."""
    hu, hv = _angle_class(u), _angle_class(v)
    if hu != hv:
        return hu < hv
    return _cross2(u, v) > 0


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[ConeRef, ...]

    @staticmethod
    def make(rank: int, rays: Iterable[Sequence[int]], max_cones: Iterable[Sequence[int]]) -> "Fan":
        rs = tuple(tuple(int(x) for x in r) for r in rays)
        mc = tuple(tuple(sorted(int(i) for i in c)) for c in max_cones)
        return Fan(rank, rs, mc)

    def n_rays(self) -> int:
        return len(self.rays)

    def cones(self) -> tuple[ConeRef, ...]:
        """All cones of the fan (as sorted ray-index tuples), apex included,
        by dimension and then lexicographically; read off the cone index."""
        return cone_index(self).cones

    def is_cone(self, ref: ConeRef) -> bool:
        s = set(ref)
        return any(s <= set(mc) for mc in self.max_cones)


class ConeIndex(NamedTuple):
    """The face lattice of a fan: its cones, and the maximal cones that
    contain each one."""

    cones: tuple[ConeRef, ...]
    # cone -> (i, the cone's positions in max_cones[i]) for each maximal cone
    # containing it, in index order; keyed in the order of cones, read-only
    containers: types.MappingProxyType[ConeRef, tuple[tuple[int, tuple[int, ...]], ...]]


# faces of a fan's maximal cones, each counted once per maximal cone that has
# it, that fan-check accepts: it lists the star size and the cone-count
# identity of every cone, and the stars are built in one pass over each
# cone's faces, so its work and its output grow with this count
MAX_LISTED_FACES = 2_048

# fan -> its cone index; an entry goes when the fan object that keys it is collected
_INDEXES: weakref.WeakKeyDictionary[Fan, ConeIndex] = weakref.WeakKeyDictionary()


def cone_index(fan: Fan) -> ConeIndex:
    """The cone index of fan, built on the first call for an equal fan and
    shared after that.  It asks nothing of the fan's validity or rank: the
    cones are the subsets of the maximal cones as listed."""
    index = _INDEXES.get(fan)
    if index is not None:
        return index
    found: dict[ConeRef, dict[int, tuple[int, ...]]] = {}
    for i, mc in enumerate(fan.max_cones):
        m = len(mc)
        for mask in range(1 << m):
            face = tuple(mc[k] for k in range(m) if mask >> k & 1)
            found.setdefault(face, {}).setdefault(i, tuple(mc.index(j) for j in face))
    cones = tuple(sorted(found, key=lambda c: (len(c), c)))
    containers = types.MappingProxyType({c: tuple(found[c].items()) for c in cones})
    index = _INDEXES[fan] = ConeIndex(cones, containers)
    return index


def validate_fan(fan: Fan) -> list[str]:
    """Check the smooth-complete-fan invariants; empty report means valid."""
    report: list[str] = []
    r, n = fan.rank, fan.n_rays()
    if r < 1:
        return [f"rank {r} not positive"]
    for i, ray in enumerate(fan.rays):
        if len(ray) != r:
            report.append(f"ray {i} has length {len(ray)} != rank {r}")
            return report
        if all(x == 0 for x in ray):
            report.append(f"ray {i} is zero")
        elif not _primitive(ray):
            report.append(f"ray {i} not primitive: {list(ray)}")
    if len(set(fan.rays)) != n:
        report.append("duplicate rays")
    used: set[int] = set()
    for ci, mc in enumerate(fan.max_cones):
        if len(mc) != r or len(set(mc)) != r:
            report.append(f"maximal cone {ci} does not have {r} distinct rays: {list(mc)}")
            continue
        if any(i < 0 or i >= n for i in mc):
            report.append(f"maximal cone {ci} has out-of-range ray index")
            continue
        used.update(mc)
        d = _det([fan.rays[i] for i in mc])
        if abs(d) != 1:
            report.append(f"maximal cone {ci} not smooth: |det| = {abs(d)}")
    if report:
        return report
    if len(set(fan.max_cones)) != len(fan.max_cones):
        report.append("duplicate maximal cones")
    missing = set(range(n)) - used
    if missing:
        report.append(f"rays not contained in any maximal cone: {sorted(missing)}")
    if report:
        return report

    if r == 2:
        report.extend(_validate_complete_surface(fan))
    else:
        report.extend(_validate_complete_general(fan))
    return report


def _validate_complete_surface(fan: Fan) -> list[str]:
    report: list[str] = []
    n = fan.n_rays()
    if n < 3:
        return [f"only {n} rays; a complete surface fan needs at least 3"]
    descents = 0
    for i in range(n):
        u, v = fan.rays[i], fan.rays[(i + 1) % n]
        if _cross2(u, v) <= 0:
            report.append(
                f"rays {i},{(i + 1) % n} not a counterclockwise step (cross = {_cross2(u, v)})"
            )
        if not _ccw_before(u, v):
            descents += 1
    if not report and descents != 1:
        report.append("rays not in a single counterclockwise cycle: not complete")
    expected = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    got = set(fan.max_cones)
    for c in sorted(expected - got):
        report.append(f"missing maximal cone {list(c)}: not complete")
    for c in sorted(got - expected):
        report.append(f"maximal cone {list(c)} is not a pair of angularly adjacent rays")
    return report


def _validate_complete_general(fan: Fan) -> list[str]:
    # facet pairing plus star connectivity; the geometric cover test is
    # implemented only for surfaces.
    report: list[str] = []
    facets: dict[ConeRef, list[int]] = {}
    for ci, mc in enumerate(fan.max_cones):
        for skip in range(len(mc)):
            f = tuple(x for k, x in enumerate(mc) if k != skip)
            facets.setdefault(f, []).append(ci)
    for f, owners in sorted(facets.items()):
        if len(owners) != 2:
            report.append(
                f"facet {list(f)} belongs to {len(owners)} maximal cones (needs 2): not complete"
            )
    if report:
        return report
    # stars must be connected through shared facets
    adj: dict[int, set[int]] = {i: set() for i in range(len(fan.max_cones))}
    for owners in facets.values():
        a, b = owners
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != len(fan.max_cones):
        report.append("maximal cones not connected through facets: not complete")
    return report


def star(fan: Fan, tau: ConeRef) -> list[ConeRef]:
    """All cones having tau as a face, tau included, in the order of
    fan.cones()."""
    tau = tuple(sorted(tau))
    found = _stars(fan).get(tuple(sorted(set(tau))))
    if found is None:
        raise ValueError(f"{list(tau)} is not a cone of the fan")
    return list(found)


def _stars(fan: Fan) -> dict[ConeRef, list[ConeRef]]:
    """Every cone's star, built in one pass over each cone's faces (a cone
    is in the star of each of its faces) on the first call for this fan
    object and kept in its instance dict, as _report is.  The cones are
    read in the order of fan.cones(), so each star is in that order."""
    stars = fan.__dict__.get("_stars")
    if stars is None:
        cones = fan.cones()
        stars = {c: [] for c in cones}
        for sigma in cones:
            for k in range(len(sigma) + 1):
                for tau in itertools.combinations(sigma, k):
                    stars[tau].append(sigma)
        fan.__dict__["_stars"] = stars
    return stars


def cone_count_identity(fan: Fan, tau: ConeRef) -> int:
    """Signed count of cones in the star of tau, by dimension.

    For a complete simplicial fan the value is 1 for every tau.
    """
    _require_valid(fan)
    tau = tuple(sorted(tau))
    s = len(tau)
    counts: dict[int, int] = {}
    for c in star(fan, tau):
        counts[len(c)] = counts.get(len(c), 0) + 1
    total = 0
    for a in range(fan.rank - s + 1):
        total += (-1) ** a * counts.get(s + a, 0)
    return (-1) ** (fan.rank - s) * total


def euler_characteristic(fan: Fan) -> int:
    """Topological Euler characteristic of the toric variety: the number of
    maximal cones of a smooth complete fan."""
    _require_valid(fan)
    return len(fan.max_cones)


def _report(fan: Fan) -> tuple[str, ...]:
    """validate_fan's report on fan, run on the first call for this fan
    object and kept in its instance dict, as a cached property would; a fan
    is frozen, so the report stays valid.  It is kept by object, not by
    equality: an equal fan decoded anew is validated anew."""
    report = fan.__dict__.get("_report")
    if report is None:
        report = fan.__dict__["_report"] = tuple(validate_fan(fan))
    return report


def _require_valid(fan: Fan) -> None:
    """Raise ValueError with the report unless fan is a valid smooth
    complete fan."""
    report = _report(fan)
    if report:
        raise ValueError("invalid fan: " + "; ".join(report))


# --- the corpus surfaces -------------------------------------------------

def projective_plane() -> Fan:
    return Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])


def p1_x_p1() -> Fan:
    return Fan.make(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )


def hirzebruch(a: int) -> Fan:
    return Fan.make(
        2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )



# --- serialization -------------------------------------------------------

def fan_to_json(fan: Fan) -> str:
    doc = {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }
    return json.dumps(doc, sort_keys=True)


def _json_int(x, what: str) -> int:
    """An integer field of an input file: a JSON integer, not a float, a
    string or a boolean."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError(f"{what} {x!r} is not a JSON integer")


def _json_of(kind: type, x, what: str):
    """A structural field of an input file: a JSON array (kind list) or a
    JSON object (kind dict)."""
    if not isinstance(x, kind):
        raise ValueError(f"{what} is not a JSON {'array' if kind is list else 'object'}")
    return x


def fan_from_json(text: str) -> Fan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"fan file is not valid JSON: {e}") from e
    _json_of(dict, doc, "fan file")
    for field in ("rank", "rays", "max_cones"):
        if field not in doc:
            raise ValueError(f"fan file missing field '{field}'")
    return Fan.make(
        _json_int(doc["rank"], "fan rank"),
        [
            [_json_int(x, "ray entry") for x in _json_of(list, r, "ray")]
            for r in _json_of(list, doc["rays"], "rays")
        ],
        [
            [_json_int(i, "maximal cone entry") for i in _json_of(list, c, "maximal cone")]
            for c in _json_of(list, doc["max_cones"], "max_cones")
        ],
    )
