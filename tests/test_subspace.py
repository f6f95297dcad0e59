import math
import random
from fractions import Fraction

import pytest

from toricsheaves import stability, subspace
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
    hyper = random_subspace(rng, amb, amb - 1)
    yield random_subspace(rng, amb, 1), hyper  # a line, usually outside the hyperplane
    yield SubspaceQ.span(_combination(rng, hyper, 1), amb), hyper  # a line inside it, or zero


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
                    if 1 == b.dim and a.dim == amb - 1 and a != b:
                        seen.add("line in hyperplane" if a.contains(b) else "line and hyperplane")
    assert seen == {"zero", "full", "equal", "nested", "line inside", "line outside",
                    "line in hyperplane", "line and hyperplane"}


# --- the Fraction kernel, kept as the reference the integer kernel must match --

def ref_rref(rows):
    """Reduced row echelon form over Fraction; returns the nonzero rows."""
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


def ref_span(vectors):
    return tuple(tuple(r) for r in ref_rref([[Fraction(x) for x in v] for v in vectors]))


def ref_intersect(a, b, n):
    block = [list(r) + list(r) for r in a] + [list(r) + [Fraction(0)] * n for r in b]
    return ref_span([row[n:] for row in ref_rref(block) if all(x == 0 for x in row[:n])])


def ref_contains_vector(a, v):
    vec = [Fraction(x) for x in v]
    for row in a:
        col = next(i for i, x in enumerate(row) if x != 0)
        if vec[col] != 0:
            f = vec[col]
            vec = [x - f * y for x, y in zip(vec, row)]
    return all(x == 0 for x in vec)


def ref_strs(rows):
    return [[str(x) for x in row] for row in rows]


def ref_key(rows):
    return (len(rows), tuple(tuple(str(x) for x in row) for row in rows))


def _rational(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.randrange(-3, 4))
    if kind == 1:
        return Fraction(rng.choice((-1, 1)) * rng.randrange(2**64, 2**70))
    return Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6 + 1))


def _written(rng, x):
    """x as an int (when integral), a Fraction or a "p/q" string."""
    kind = rng.randrange(3)
    if kind == 0 and x.denominator == 1:
        return int(x)
    return x if kind == 1 else str(x)


def _vectors(rng, base, count):
    """count rational combinations of some of the base vectors, written
    entry by entry as ints, Fractions or strings; sometimes the zero vector."""
    n = len(base[0])
    out = []
    for _ in range(count):
        coeffs = [Fraction(rng.randrange(-3, 4)) for _ in base]
        vec = [sum((c * b[k] for c, b in zip(coeffs, base)), Fraction(0)) for k in range(n)]
        out.append([_written(rng, x) for x in vec])
    return out


def _input_pairs(rng, amb, count):
    """Spanning sets of two subspaces sharing some of a random basis, so that
    their intersections are often proper and nonzero."""
    for _ in range(count):
        base = [[_rational(rng) for _ in range(amb)] for _ in range(amb + 1)]
        shared = rng.sample(base, rng.randrange(0, amb + 1))
        a_base = shared + rng.sample(base, rng.randrange(0, 3)) or [[0] * amb]
        b_base = shared + rng.sample(base, rng.randrange(0, 3)) or [[0] * amb]
        yield (_vectors(rng, a_base, rng.randrange(0, amb + 2)),
               _vectors(rng, b_base, rng.randrange(0, amb + 2)),
               _vectors(rng, a_base, 2) + _vectors(rng, base, 2))


def assert_canonical(v):
    """Each row is a tuple of ints, primitive, with a positive pivot; pivots
    increase and every other row is zero at a row's pivot column."""
    pivots = []
    for row in v.rows:
        assert type(row) is tuple and len(row) == v.ambient
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
        p = next(i for i, x in enumerate(row) if x)
        assert row[p] > 0
        pivots.append(p)
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert all(row[p] == 0 for j, row in enumerate(v.rows) if j != i)


@pytest.mark.parametrize("amb", [1, 2, 3, 4, 5])
def test_kernel_matches_fraction_reference(amb):
    rng = random.Random(700 + amb)
    spans = []
    for a_vecs, b_vecs, probes in _input_pairs(rng, amb, 40):
        a, b = SubspaceQ.span(a_vecs, amb), SubspaceQ.span(b_vecs, amb)
        ra, rb = ref_span(a_vecs), ref_span(b_vecs)
        assert a.basis_str() == ref_strs(ra) and b.basis_str() == ref_strs(rb)
        for x, y, rx, ry in ((a, b, ra, rb), (b, a, rb, ra)):
            meet, join = x.intersect(y), x.sum(y)
            assert meet.basis_str() == ref_strs(ref_intersect(rx, ry, amb))
            assert join.basis_str() == ref_strs(ref_span(rx + ry))
            assert x.contains(y) == all(ref_contains_vector(rx, r) for r in ry)
            for v in (x, meet, join):
                assert_canonical(v)
        for vec in probes:
            assert a.contains_vector(vec) == ref_contains_vector(ra, vec)
        spans += [(a, ra), (b, rb)]
    assert {v.dim for v, _ in spans} == set(range(amb + 1))
    # stability's test-set order is the order of the reference's string key
    by_new = sorted(spans, key=lambda p: stability._subspace_key(p[0]))
    by_ref = sorted(spans, key=lambda p: ref_key(p[1]))
    assert [v.basis_str() for v, _ in by_new] == [ref_strs(r) for _, r in by_ref]


def test_integer_input_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    rng = random.Random(17)
    # the operands, including every structural shape, are built beforehand
    pairs = [(amb, p) for amb in range(1, 6) for _ in range(30) for p in _operand_pairs(rng, amb)]
    monkeypatch.setattr(subspace, "Fraction", no_fraction)
    for amb, (a, b) in pairs:
        for x, y in ((a, b), (b, a)):
            vecs = [[rng.randrange(-3, 4) for _ in range(amb)] for _ in range(amb)]
            results = [x.intersect(y), x.sum(y), SubspaceQ.span(vecs, amb)]
            x.contains(y)
            x.contains_vector(vecs[0])
            for v in results:
                assert all(type(e) is int for row in v.rows for e in row)


def test_basis_str_matches_fraction_and_builds_none(monkeypatch):
    """basis_str writes each RREF entry x/d from the integer rows as
    str(Fraction(x, d)) prints it, on random subspaces of Q^2 to Q^4 with
    negative entries and pivots other than 1, so stability._subspace_key
    sorts as the Fraction strings do; it builds no Fraction."""
    def fraction_strs(v):
        return [[str(Fraction(x, next(filter(None, row)))) for x in row] for row in v.rows]

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    rng = random.Random(197)
    vs = [random_subspace(rng, amb, rng.randrange(0, amb + 1))
          for amb in (2, 3, 4) for _ in range(150)]
    want = [(v.dim, fraction_strs(v)) for v in vs]
    monkeypatch.setattr(subspace, "Fraction", no_fraction)
    got = [stability._subspace_key(v) for v in vs]
    assert got == want
    assert min(x for v in vs for row in v.rows for x in row) < 0
    assert any(next(filter(None, row)) > 1 for v in vs for row in v.rows)
    assert any("/" in x for _, rows in want for row in rows for x in row)
