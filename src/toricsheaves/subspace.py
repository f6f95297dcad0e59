"""Exact rational subspaces of Q^n in canonical form.

Every subspace is stored by its reduced row echelon (RREF) basis, each row
kept as its unique primitive integer multiple with a positive pivot: the
RREF row is ``row / row[pivot]``.  That scaling is a bijection between RREF
rows and primitive rows, so two equal subspaces have equal rows, and
equality and hashing are operations on tuples of ints.  All elimination is
fraction-free on Python ints (``rref``); ``Fraction`` is used only to clear
the denominators of rational input; ``basis_str`` prints the RREF entries
from the integer rows.  Nothing here ever touches floats.

Invariant: a SubspaceQ is only ever built by ``span``, ``zero``, ``full`` or
an elimination that yields canonical rows, so its rows are already the
canonical form.  The structural fast paths of ``intersect``, ``sum`` and
``contains`` rely on it: equal rows mean equal subspaces, a subspace of
equal dimension is contained only if it is equal, and an operand that is
zero or full, a line met with anything, or a line joined to a hyperplane
can be answered without a fresh elimination: the meet is the line or 0, the
join the hyperplane or the full space, by one ``contains_vector``.  Every
fast path returns exactly what the generic elimination (``_zassenhaus``,
``span``) would.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[int, ...]


def _int_row(row: Sequence, n: int) -> list[int]:
    """The row as ints spanning the same line: a row of ints as it is, any
    other row through Fraction and scaled by the lcm of its denominators."""
    if len(row) != n:
        raise ValueError(f"vector length {len(row)} != ambient {n}")
    if all(type(x) is int for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs]


def _pivot(row: Sequence[int]) -> int:
    return next(i for i, x in enumerate(row) if x)


def rref(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows.  Returns the
    nonzero rows of the reduced row echelon form, each as its primitive
    integer multiple with a positive pivot.  Every row an elimination step
    changes is divided by the gcd of its entries, so entries stay small."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    piv_row = 0
    for col in range(len(rows[0])):
        for r in range(piv_row, len(rows)):
            if rows[r][col]:
                break
        else:
            continue
        prow = rows[r]
        rows[r] = rows[piv_row]
        g = gcd(*prow)
        if prow[col] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
        rows[piv_row] = prow
        a = prow[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != piv_row:
                # a > 0, so a row that is already a pivot row keeps its pivot's sign
                row = [a * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        piv_row += 1
        if piv_row == len(rows):
            break
    return rows[:piv_row]


@dataclass(frozen=True)
class SubspaceQ:
    """A subspace of Q^ambient, canonically represented by its RREF basis
    with each row scaled to a primitive integer vector with positive pivot."""

    ambient: int
    rows: tuple[Vector, ...]

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient: int) -> "SubspaceQ":
        red = rref([_int_row(v, ambient) for v in vectors])
        return SubspaceQ(ambient, tuple(map(tuple, red)))

    @staticmethod
    def zero(ambient: int) -> "SubspaceQ":
        return SubspaceQ(ambient, ())

    @staticmethod
    def full(ambient: int) -> "SubspaceQ":
        zero = (0,) * ambient
        return SubspaceQ(ambient, tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def contains_vector(self, v: Sequence) -> bool:
        """Membership test by integer reduction against the canonical rows:
        the pivot entry of each row is cleared by v <- a v - v[p] row."""
        vec = _int_row(v, self.ambient)
        for row in self.rows:
            p = _pivot(row)
            f = vec[p]
            if f:
                a = row[p]
                vec = [a * x - f * y for x, y in zip(vec, row)]
        return not any(vec)

    def contains(self, other: "SubspaceQ") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if other.dim >= self.dim:
            return other.rows == self.rows
        if not other.rows or self.dim == self.ambient:
            return True
        return all(self.contains_vector(r) for r in other.rows)

    def sum(self, other: "SubspaceQ") -> "SubspaceQ":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if not other.rows or self.dim == self.ambient or self.rows == other.rows:
            return self
        if not self.rows or other.dim == other.ambient:
            return other
        if self.dim + other.dim == self.ambient and 1 in (self.dim, other.dim):
            line, hyper = (self, other) if self.dim == 1 else (other, self)
            # a hyperplane holds the line, or the two span everything
            if hyper.contains_vector(line.rows[0]):
                return hyper
            return SubspaceQ.full(self.ambient)
        return SubspaceQ(self.ambient, tuple(map(tuple, rref(self.rows + other.rows))))

    def intersect(self, other: "SubspaceQ") -> "SubspaceQ":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if not self.rows or other.dim == other.ambient or self.rows == other.rows:
            return self
        if not other.rows or self.dim == self.ambient:
            return other
        if self.dim == 1 or other.dim == 1:
            line, rest = (self, other) if self.dim == 1 else (other, self)
            # two distinct lines, or a line outside the other operand, meet in 0
            if rest.dim > 1 and rest.contains_vector(line.rows[0]):
                return line
            return SubspaceQ.zero(self.ambient)
        return _zassenhaus(self, other)

    def __repr__(self) -> str:
        return f"SubspaceQ({self.ambient}, dim={self.dim})"

    def basis_str(self) -> list[list[str]]:
        """The RREF basis as strings: each row divided by its pivot entry d,
        each entry x/d written in lowest terms as Fraction prints it, from
        x and d divided by their gcd."""
        out = []
        for row in self.rows:
            d = row[_pivot(row)]
            if d == 1:
                out.append(list(map(str, row)))
                continue
            strs = []
            for x in row:
                g = gcd(x, d)
                strs.append(str(x // g) if g == d else f"{x // g}/{d // g}")
            out.append(strs)
        return out


def _zassenhaus(a: SubspaceQ, b: SubspaceQ) -> SubspaceQ:
    """Generic intersection: reduce [[A A],[B 0]]; the rows with a zero left
    half span A cap B.  Their right halves are already canonical: they are
    primitive, their pivots are positive, and each is zero at the others'
    pivot columns."""
    n = a.ambient
    zero = (0,) * n
    red = rref([r + r for r in a.rows] + [r + zero for r in b.rows])
    return SubspaceQ(n, tuple(tuple(row[n:]) for row in red if not any(row[:n])))
