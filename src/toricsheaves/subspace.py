"""Exact rational subspaces of Q^n in canonical reduced row echelon form.

Every subspace is stored as the unique RREF basis of its row space, so two
equal subspaces compare equal (and hash equal) as plain tuples.  All
arithmetic is over fractions.Fraction; nothing here ever touches floats.

Invariant: a SubspaceQ is only ever built by ``span``, ``zero`` or ``full``,
so its rows are already the canonical RREF.  The structural fast paths of
``intersect``, ``sum`` and ``contains`` rely on it: equal rows mean equal
subspaces, a subspace of equal dimension is contained only if it is equal,
and an operand that is zero, full or a line can be answered without a
fresh elimination.  Every fast path returns exactly what the generic
elimination (``_zassenhaus``, ``span``) would.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _to_vec(row: Sequence, n: int) -> list[Fraction]:
    if len(row) != n:
        raise ValueError(f"vector length {len(row)} != ambient {n}")
    return [Fraction(x) for x in row]


def rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form; returns the nonzero rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    n = len(rows[0])
    piv_row = 0
    for col in range(n):
        pivot = None
        for r in range(piv_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[piv_row], rows[pivot] = rows[pivot], rows[piv_row]
        inv = Fraction(1) / rows[piv_row][col]
        rows[piv_row] = [x * inv for x in rows[piv_row]]
        for r in range(len(rows)):
            if r != piv_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv_row])]
        piv_row += 1
        if piv_row == len(rows):
            break
    return [r for r in rows[:piv_row] if any(x != 0 for x in r)]


@dataclass(frozen=True)
class SubspaceQ:
    """A subspace of Q^ambient, canonically represented by its RREF basis."""

    ambient: int
    rows: tuple[Vector, ...]

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient: int) -> "SubspaceQ":
        mat = [_to_vec(v, ambient) for v in vectors]
        red = rref(mat)
        return SubspaceQ(ambient, tuple(tuple(r) for r in red))

    @staticmethod
    def zero(ambient: int) -> "SubspaceQ":
        return SubspaceQ(ambient, ())

    @staticmethod
    def full(ambient: int) -> "SubspaceQ":
        rows = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(ambient))
            for i in range(ambient)
        )
        return SubspaceQ(ambient, rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def contains_vector(self, v: Sequence) -> bool:
        """Membership test by reduction against the RREF basis."""
        vec = _to_vec(v, self.ambient)
        for row in self.rows:
            col = next(i for i, x in enumerate(row) if x != 0)
            if vec[col] != 0:
                f = vec[col]
                vec = [a - f * b for a, b in zip(vec, row)]
        return all(x == 0 for x in vec)

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
        return SubspaceQ.span(list(self.rows) + list(other.rows), self.ambient)

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
        return [[str(x) for x in row] for row in self.rows]


def _zassenhaus(a: SubspaceQ, b: SubspaceQ) -> SubspaceQ:
    """Generic intersection: RREF of [[A A],[B 0]]; zero-left rows span A cap B."""
    n = a.ambient
    block: list[list[Fraction]] = []
    for r in a.rows:
        block.append(list(r) + list(r))
    zero = [Fraction(0)] * n
    for r in b.rows:
        block.append(list(r) + zero)
    red = rref(block)
    inter = [row[n:] for row in red if all(x == 0 for x in row[:n])]
    return SubspaceQ.span(inter, n)
