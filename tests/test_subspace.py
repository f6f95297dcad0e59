import random
from fractions import Fraction

import pytest

from toricsheaves.subspace import SubspaceQ, _zassenhaus


def random_subspace(rng, ambient, dim):
    rows = [[rng.randrange(-5, 6) for _ in range(ambient)] for _ in range(dim)]
    return SubspaceQ.span(rows, ambient)


def test_canonical_form_under_row_operations():
    # the same subspace presented by randomly rescaled / mixed bases must
    # produce bitwise identical canonical representations
    rng = random.Random(7)
    for _ in range(200):
        amb = rng.randrange(1, 5)
        dim = rng.randrange(0, amb + 1)
        v = random_subspace(rng, amb, dim)
        rows = [list(r) for r in v.rows]
        for _ in range(6):
            if not rows:
                break
            i = rng.randrange(len(rows))
            j = rng.randrange(len(rows))
            c = Fraction(rng.randrange(-3, 4))
            if i == j:
                if c != 0:
                    rows[i] = [c * x for x in rows[i]]
            else:
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        again = SubspaceQ.span(rows, amb)
        assert again == v


def test_zero_and_full():
    z = SubspaceQ.zero(3)
    f = SubspaceQ.full(3)
    assert z.dim == 0 and f.dim == 3
    assert f.contains(z) and f.contains(f)
    assert z.intersect(f) == z
    assert z.sum(f) == f


def test_intersection_and_sum_dimensions():
    rng = random.Random(11)
    for _ in range(150):
        amb = rng.randrange(1, 5)
        a = random_subspace(rng, amb, rng.randrange(0, amb + 1))
        b = random_subspace(rng, amb, rng.randrange(0, amb + 1))
        inter = a.intersect(b)
        total = a.sum(b)
        # modular law for dimensions
        assert inter.dim + total.dim == a.dim + b.dim
        assert a.contains(inter) and b.contains(inter)
        assert total.contains(a) and total.contains(b)


def test_two_lines_meet_in_zero():
    a = SubspaceQ.span([(1, 0)], 2)
    b = SubspaceQ.span([(0, 1)], 2)
    assert a.intersect(b).is_zero()
    assert a.sum(b).is_full()


def test_membership():
    v = SubspaceQ.span([(1, 2, 0), (0, 0, 1)], 3)
    assert v.contains_vector((2, 4, 5))
    assert not v.contains_vector((1, 0, 0))


def _combination(rng, v, count):
    """``count`` random rational combinations of the rows of v."""
    return [
        [sum((Fraction(rng.randrange(-4, 5)) * r[k] for r in v.rows), Fraction(0))
         for k in range(v.ambient)]
        for _ in range(count)
    ]


def _operand_pairs(rng, amb):
    """Random pairs plus the shapes the structural fast paths answer."""
    a = random_subspace(rng, amb, rng.randrange(0, amb + 1))
    b = random_subspace(rng, amb, rng.randrange(0, amb + 1))
    yield a, b
    yield a, SubspaceQ.zero(amb)
    yield SubspaceQ.full(amb), b
    yield a, SubspaceQ.span(_combination(rng, a, a.dim + 1), amb)  # equal or nested
    big = a.sum(b)
    yield SubspaceQ.span(_combination(rng, big, 2), amb), big  # nested, maybe equal
    yield a, SubspaceQ.span(_combination(rng, a, 1), amb)  # a line inside a, or zero
    yield random_subspace(rng, amb, 1), b  # a line, usually outside b
    yield random_subspace(rng, amb, 1), random_subspace(rng, amb, 1)


@pytest.mark.parametrize("amb", [1, 2, 3, 4, 5])
def test_fast_paths_equal_generic(amb):
    rng = random.Random(100 + amb)
    for _ in range(60):
        for a, b in _operand_pairs(rng, amb):
            for x, y in ((a, b), (b, a)):
                assert x.intersect(y) == _zassenhaus(x, y)
                assert x.sum(y) == SubspaceQ.span(list(x.rows) + list(y.rows), amb)
                assert x.contains(y) == all(x.contains_vector(r) for r in y.rows)


def test_fast_path_shapes_are_exercised():
    # across ambients 1-5 the forced operands reach every structural case
    seen = set()
    for amb in range(1, 6):
        rng = random.Random(100 + amb)
        for _ in range(60):
            for pair in _operand_pairs(rng, amb):
                for a, b in (pair, pair[::-1]):
                    if b.is_zero():
                        seen.add("zero")
                    if b.is_full():
                        seen.add("full")
                    if a == b and 0 < a.dim < amb:
                        seen.add("equal")
                    if a != b and a.contains(b) and 0 < b.dim < a.dim < amb:
                        seen.add("nested")
                    if 1 == b.dim < a.dim < amb:
                        seen.add("line inside" if a.contains(b) else "line outside")
    assert seen == {"zero", "full", "equal", "nested", "line inside", "line outside"}
