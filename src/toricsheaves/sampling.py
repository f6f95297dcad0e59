"""Seeded random fans and families for property tests and fuzzing."""

from __future__ import annotations

import random
from math import gcd

from .family import (
    DeltaFamily,
    KIND_TORSION_FREE,
    RayFiltration,
    reflexive_from_filtrations,
)
from .fan import Fan, hirzebruch, p1_x_p1, projective_plane
from .subspace import SubspaceQ

_LINES = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1), (1, 3)]


def random_smooth_complete_fan(rng: random.Random, blowups: int = 2) -> Fan:
    """A smooth complete surface fan: a corpus fan refined by random stellar
    subdivisions (each inserted ray is the primitive sum of its neighbours)."""
    base = rng.choice([projective_plane(), p1_x_p1(), hirzebruch(rng.randrange(0, 3))])
    rays = list(base.rays)
    for _ in range(blowups):
        i = rng.randrange(len(rays))
        j = (i + 1) % len(rays)
        s = (rays[i][0] + rays[j][0], rays[i][1] + rays[j][1])
        g = gcd(abs(s[0]), abs(s[1]))
        rays.insert(i + 1, (s[0] // g, s[1] // g))
    n = len(rays)
    return Fan.make(2, rays, [(i, (i + 1) % n) for i in range(n)])


def random_filtration(ray: int, rank: int, rng: random.Random) -> RayFiltration:
    if rank > 2:
        raise ValueError("random families are generated for rank <= 2 only")
    base = rng.randrange(-2, 2)
    if rank == 1:
        return RayFiltration(ray, ((base, SubspaceQ.full(1)),))
    gap = rng.randrange(0, 3)
    if gap == 0:
        return RayFiltration(ray, ((base, SubspaceQ.full(rank)),))
    line = SubspaceQ.span([rng.choice(_LINES)], 2)
    return RayFiltration(ray, ((base, line), (base + gap, SubspaceQ.full(rank))))


def random_reflexive_family(fan: Fan, rank: int, rng: random.Random) -> DeltaFamily:
    filts = [random_filtration(j, rank, rng) for j in range(fan.n_rays())]
    return reflexive_from_filtrations(filts, fan)


def random_torsion_free_family(fan: Fan, rank: int, rng: random.Random) -> DeltaFamily:
    """Reflexive family with a few random interior cuts; cutting a value at
    an interior minimum keeps monotonicity and never touches the clamp rows."""
    fam = random_reflexive_family(fan, rank, rng)
    corners = {i: g.pad_top(1) for i, g in fam.corners}
    cuts = rng.randrange(0, 3)
    for _ in range(cuts):
        i = rng.choice(sorted(corners))
        grid = corners[i]
        lam = grid.lo
        v = grid._entry(lam)
        if v.is_zero():
            continue
        if v.dim == 1 or rng.random() < 0.5:
            new = SubspaceQ.zero(rank)
        else:
            new = SubspaceQ.span([v.rows[0]], rank)
        corners[i] = grid.with_value(lam, new)
    return DeltaFamily(KIND_TORSION_FREE, rank, tuple(sorted(corners.items())))


def random_families(fan: Fan, rank: int, count: int, seed: int) -> list[DeltaFamily]:
    """count seeded families; in rank 2 each is cut torsion-free with
    probability 1/2, and otherwise reflexive."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if rank >= 2 and rng.random() < 0.5:
            out.append(random_torsion_free_family(fan, rank, rng))
        else:
            out.append(random_reflexive_family(fan, rank, rng))
    return out
