import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tiltkit.rational import (F0, F1, _echelon, add, dot, int_nullspace, int_row, int_rref,
                              int_scaled, mat, matvec, nullspace, rank, rref, solve, solve_affine,
                              sub, vec)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def fraction_rref(m):
    """Reference: Gauss-Jordan elimination in Fraction arithmetic."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), pivots


def fraction_nullspace(m):
    ncols = len(m[0])
    red, pivots = fraction_rref(m)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F0] * ncols
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def fraction_solve(m, b):
    ncols = len(m[0])
    red, pivots = fraction_rref(tuple(row + (bi,) for row, bi in zip(m, b)))
    if ncols in pivots:
        return None
    x = [F0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


@st.composite
def rational_matrices(draw):
    """Random rational matrices, some with appended multiples of their rows
    and some with zero rows, so rank deficiency is common."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(rationals, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        src = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(rationals)
        rows.append([k * x for x in src])
    for _ in range(draw(st.integers(0, 1))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return mat(draw(st.permutations(rows)))


@given(rational_matrices(), st.lists(rationals, min_size=6, max_size=6))
def test_elimination_matches_fraction_oracle(m, rhs):
    ncols = len(m[0])
    red, pivots = fraction_rref(m)
    assert rref(m) == (red, pivots)
    assert rank(m) == len(pivots)
    assert nullspace(m, ncols) == fraction_nullspace(m)
    ints, s = int_nullspace(m, ncols)
    assert s > 0 and all(type(x) is int for v in ints for x in v)
    assert [tuple(F(x, s) for x in v) for v in ints] == fraction_nullspace(m)
    b = vec(rhs[:len(m)])
    assert solve(m, b) == fraction_solve(m, b)
    for r in m:
        ir = int_row(r)
        assert all(type(x) is int for x in ir)
        if any(r):
            # a positive multiple of r with coprime integer entries
            k = next(x / y for x, y in zip(ir, r) if y)
            assert k > 0 and tuple(k * x for x in r) == ir
            assert math.gcd(*ir) == 1


def test_rref_identity():
    red, piv = rref(mat([[1, 0], [0, 1]]))
    assert piv == [0, 1]
    assert red == mat([[1, 0], [0, 1]])


def test_solve_and_nullspace():
    a = mat([[1, 2], [2, 4]])
    assert solve(a, vec([3, 6])) is not None
    assert solve(a, vec([3, 7])) is None
    ns = nullspace(a, 2)
    assert len(ns) == 1
    assert dot(a[0], ns[0]) == 0


def test_solve_affine_full_set():
    part, null = solve_affine(mat([[1, 1]]), vec([2]), 2)
    assert dot(vec([1, 1]), part) == 2
    assert len(null) == 1


def lcm_then_gcd(row):
    """Reference: the row as Fractions, times the lcm of their denominators,
    over the gcd of the ints that gives (zero rows stay zero)."""
    fs = [F(x) for x in row]
    d = math.lcm(*(x.denominator for x in fs))
    ints = [int(x * d) for x in fs]
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def test_primitive_scaling():
    for row, want in [
            (vec([F(2, 3), F(4, 3)]), (1, 2)),
            (vec([F(-1, 2), F(1, 2)]), (-1, 1)),
            ((6, -9, 0), (2, -3, 0)),  # ints: only divided by their gcd
            ((-4, -8), (-1, -2)),  # the factor is positive, so signs stay
            ((0, 0, 0), (0, 0, 0)),
            ((), ()),
            ((3, F(1, 2)), (6, 1)),  # mixed ints and Fractions
            (("1/6", "-2/3", 1), (1, -4, 6)),  # 'p/q' strings, read as `vec` reads them
            ((F(4), F(6)), (2, 3))]:  # Fractions with denominator 1
        got = int_row(row)
        assert got == want == lcm_then_gcd(row)
        assert all(type(x) is int for x in got)


exact_entries = st.one_of(st.integers(-12, 12), rationals, rationals.map(str))


@st.composite
def exact_rows(draw):
    """Rows of one length: ints, Fractions, 'p/q' strings and mixes of them,
    int rows with a common factor > 1, zero rows."""
    n = draw(st.integers(1, 4))
    ints = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    row = st.one_of(st.lists(exact_entries, min_size=n, max_size=n),
                    st.lists(rationals, min_size=n, max_size=n),
                    ints,
                    st.tuples(ints, st.integers(2, 6)).map(lambda r: [r[1] * x for x in r[0]]),
                    st.just([0] * n))
    return draw(st.lists(row, min_size=1, max_size=4))


@given(exact_rows())
@example([[0, 0], [6, -4], ["3/4", F(-1, 6)]])
def test_int_row_and_int_scaled_match_the_lcm_then_gcd_oracle(rows):
    for row in rows:
        got = int_row(row)
        assert got == lcm_then_gcd(row)
        assert all(type(x) is int for x in got)
    m = mat(rows)
    d, ints = int_scaled(m)
    assert d == math.lcm(*(x.denominator for row in m for x in row))
    assert ints == [[d * x for x in row] for row in m]
    assert all(type(x) is int for row in ints for x in row)


@given(st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(rationals, min_size=2, max_size=2))
def test_solve_roundtrip(rows, rhs):
    a = mat(rows)
    x = solve(a, vec(rhs))
    if x is not None:
        assert matvec(a, x) == vec(rhs)


def test_rank():
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(mat([[1, 0], [0, 1]])) == 2


@st.composite
def int_matrices(draw):
    """Int rows, some with a common factor, some repeated or zero."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    k = draw(st.integers(1, 3))
    return tuple(tuple(k * x for x in r) for r in draw(st.permutations(rows)))


@given(int_matrices())
def test_int_rows_eliminate_like_their_fraction_copies(m):
    ncols = len(m[0])
    fm = mat(m)
    assert all(type(x) is F for r in fm for x in r)
    assert rref(m) == rref(fm)
    assert rank(m) == rank(fm)
    assert nullspace(m, ncols) == nullspace(fm, ncols)
    assert int_nullspace(m, ncols) == int_nullspace(fm, ncols)


def full_echelon(m):
    """Reference: `_echelon` that makes each row primitive with `int_row`,
    finds pivots by a generator and runs over every column."""
    rows = [list(int_row(r)) for r in m]
    nrows = len(rows)
    pivots = []
    for c in range(len(rows[0]) if nrows else 0):
        r = len(pivots)
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                row = [prow[c] * x - f * y for x, y in zip(rows[i], prow)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return rows, pivots


@given(int_matrices())
@example(((2, 4), (1, 3), (3, 7), (0, 0), (5, -5)))  # tall
@example(((2, 4, 6, 8, 0), (1, 0, 3, 0, 5)))  # wide: the loop stops at column 2
@example(((0, 0, 0),))
@example(((0, 0), (0, 0)))
@example(((0, 0, 0), (6, 3, 9), (0, 0, 0)))
def test_echelon_matches_the_full_column_sweep(m):
    for rows in (m, mat(m)):
        want_rows, want_pivots = full_echelon(rows)
        assert _echelon(rows) == (want_rows, want_pivots)
        s = math.lcm(*(row[c] for row, c in zip(want_rows, want_pivots)))
        assert int_rref(rows)[1:] == (want_pivots, s)


def test_echelon_takes_primitive_int_rows_as_given():
    # a primitive int row enters unchanged, and int rows eliminate exactly
    # as their Fraction copies do
    for m in (((3, -5, 7),), ((1, 2, 3), (2, -1, 0), (3, 1, 3)), ((1, 2), (3, 4))):
        assert _echelon(m) == _echelon(mat(m))
    assert _echelon(((3, -5, 7),)) == ([[3, -5, 7]], [0])
    assert _echelon(((1, 2, 3), (2, -1, 0), (3, 1, 3)))[1] == [0, 1]


def test_add_and_sub_reject_vectors_of_different_lengths():
    # zip would silently drop the third entry
    for op in (add, sub):
        with pytest.raises(ValueError):
            op(vec((0, 0)), vec((0, 0, 99)))
