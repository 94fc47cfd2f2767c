import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from securegroupcast import (ColumnRanks, Field, FieldTooSmallError, FMatrix,
                             NoSolutionError, cauchy, hstack,
                             prefix_ranks, rank, rref, solve_right, vstack)
from securegroupcast.fmatrix import _eliminate, mask_columns

F2 = Field(2)
F5 = Field(5)
LARGE_P = 1099511627791   # (p - 1)^2 > 2^63 - 1


def M(field, rows):
    return FMatrix(field, np.array(rows, dtype=np.int64))


# -- rank ------------------------------------------------------------------

def test_rank_empty():
    assert rank(FMatrix.zeros(F2, 0, 0)) == 0


def test_rank_identity():
    assert rank(FMatrix.identity(F2, 3)) == 3


def test_rank_large_prime_rank_two_products():
    # a 3x2 times 2x4 product, built in Python integers, has rank 2 (almost
    # surely 2, never more); int64 products of these residues overflow
    rng = np.random.default_rng(5)
    field = Field(LARGE_P)
    for _ in range(200):
        u = [[int(v) for v in rng.integers(1, LARGE_P, 2)] for _ in range(3)]
        v = [[int(x) for x in rng.integers(1, LARGE_P, 4)] for _ in range(2)]
        prod = [[sum(u[i][t] * v[t][j] for t in range(2)) % LARGE_P for j in range(4)]
                for i in range(3)]
        m = FMatrix(field, prod)
        assert rank(m) == 2
        reduced, pivots = rref(m)
        assert len(pivots) == 2 and not reduced.array[2].any()


@pytest.mark.parametrize("p", [1048583, (1 << 31) - 1, LARGE_P])
def test_matmul_exact_on_both_sides_of_the_int64_bound(p):
    # all entries p - 1: a sum of n products reaches n (p - 1)^2, which
    # passes 2^63 - 1 at n = 3 for p = 2^31 - 1 and at n = 1 for LARGE_P
    field = Field(p)
    for n in range(1, 6):
        a = FMatrix(field, [[p - 1] * n] * 2)
        b = FMatrix(field, [[p - 1, p - 2]] * n)
        assert (a @ b).tolist() == [[n * (p - 1) * c % p for c in (p - 1, p - 2)]] * 2


def test_add_large_prime_does_not_wrap():
    # p > 2^62: (p - 1) + (p - 2) wraps in int64 if added before reducing
    p = (1 << 63) - 25
    field = Field(p)
    assert (FMatrix(field, [[p - 1]]) + FMatrix(field, [[p - 2]])).array[0, 0] == p - 3
    rng = np.random.default_rng(11)
    a, b = rng.integers(0, p, (2, 4, 5), dtype=np.int64)
    got = (FMatrix(field, a) + FMatrix(field, b)).tolist()
    assert got == [[(int(x) + int(y)) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def test_rank_equal_rows():
    assert rank(M(F2, [[1, 1], [1, 1]])) == 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]),
       st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_equals_transpose_rank(p, r, c, data):
    f = Field(p)
    entries = data.draw(st.lists(st.integers(0, p - 1),
                                 min_size=r * c, max_size=r * c))
    m = FMatrix(f, np.array(entries).reshape(r, c))
    assert rank(m) == rank(m.transpose())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 6),
       st.integers(0, 6), st.data())
def test_prefix_ranks_match_independent_ranks(p, r, c1, c2, data):
    f = Field(p)
    entries = data.draw(st.lists(st.integers(0, p - 1),
                                 min_size=r * (c1 + c2), max_size=r * (c1 + c2)))
    m = FMatrix(f, np.array(entries).reshape(r, c1 + c2))
    left = FMatrix(f, m.array[:, :c1])
    got = prefix_ranks(m, c1)
    assert got == (rank(left), rank(m))


# -- elimination against a Python-int reference ---------------------------------

def reference_rref(rows, cols, p):
    """Gauss-Jordan elimination on lists of Python ints: (reduced rows, pivots)."""
    a = [list(r) for r in rows]
    pivots = []
    for col in range(cols):
        lead = len(pivots)
        piv = next((i for i in range(lead, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[lead], a[piv] = a[piv], a[lead]
        inv = pow(a[lead][col], p - 2, p)
        a[lead] = [v * inv % p for v in a[lead]]
        for i in range(len(a)):
            if i != lead and a[i][col]:
                f = a[i][col]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[lead])]
        pivots.append(col)
    return a, pivots


def low_rank_rows(rng, p, rows, cols, r):
    """A rows x cols matrix of rank at most r, multiplied out in Python ints."""
    u = [[rng.randrange(p) for _ in range(r)] for _ in range(rows)]
    v = [[rng.randrange(p) for _ in range(cols)] for _ in range(r)]
    return [[sum(x * y for x, y in zip(ur, vc)) % p for vc in zip(*v)] if r else [0] * cols
            for ur in u]


def structured_rows(rng, p, rows, cols):
    """A matrix whose pivots skip work: nonzero multiples of unit columns,
    a scaled permutation, [Cauchy | I], an upper triangle U (columns
    nonzero only at and above the lead), or L @ U for a unit lower
    triangle L, whose rows are updated before they pivot, mostly on a 1;
    then rows are repeated, scaled, zeroed and shuffled."""
    def unit():
        return rng.choice([1, rng.randrange(1, p)])

    kind = rng.randrange(5)
    a = [[0] * cols for _ in range(rows)]
    if kind == 0 and rows:
        for j in range(cols):
            if rng.random() < 0.8:
                a[rng.randrange(rows)][j] = unit()
    elif kind == 1:
        for i, j in enumerate(rng.sample(range(cols), min(rows, cols))):
            a[i][j] = unit()
    elif kind == 2:
        # Cauchy needs rows + width <= p distinct points; with rows > p, I alone
        dense = cauchy(rows, min(cols, p - rows), Field(p)).tolist() if rows <= p else [[]] * rows
        a = [r + [int(i == j) for j in range(rows)] for i, r in enumerate(dense)]
    else:
        a = [[rng.randrange(p) if j > i else unit() if j == i and rng.random() < 0.8 else 0
              for j in range(cols)] for i in range(rows)]
        if kind == 4:
            lower = [[1 if j == i else rng.randrange(p) if j < i else 0 for j in range(rows)]
                     for i in range(rows)]
            a = [[sum(x * r[j] for x, r in zip(lrow, a)) % p for j in range(cols)]
                 for lrow in lower]
    for _ in range(rng.randint(0, 3) if a else 0):
        copy = [v * rng.randrange(p) % p for v in rng.choice(a)]
        a.insert(rng.randint(0, len(a)), copy)
    if rng.random() < 0.5:
        rng.shuffle(a)
    return a


# Elimination reduces mod p after INT64_MAX // (p - 1)^2 pending updates:
# p = 3037000493, the largest prime with (p - 1)^2 <= INT64_MAX, after
# every pivot; 1073741827 after 7, which 8 to 16 rows can pass; 268435459
# after 127, never reached here, so its entries grow to ~2^60 unreduced.
# A pivot row is scaled unreduced while pending <= INT64_MAX // (p - 1)^3,
# as its entries reach pending (p - 1)^2: p = 2097143, the largest prime
# with (p - 1)^3 <= INT64_MAX, after 1 pending update, 1321109 after 4,
# and 2097169, the next prime above 2097143, never; none of these three
# reaches its reduction budget (over 2 * 10^6 updates).
# These take rows x cols in [8, 16] x [8, 20], the others [0, 7] x [0, 7].
BUDGET_EDGE_PRIMES = (3037000493, 1073741827, 268435459, 2097143, 1321109, 2097169)


@pytest.mark.parametrize("p", [2, 3, 5, 173, LARGE_P, *BUDGET_EDGE_PRIMES])
def test_elimination_matches_python_int_reference(p):
    """Drawn low-rank matrices, then structured ones whose pivots skip the
    row update, the scaling or the swap."""
    rng = random.Random(p)
    field = Field(p)
    (lo_rows, hi_rows), (lo_cols, hi_cols) = (
        ((8, 16), (8, 20)) if p in BUDGET_EDGE_PRIMES else ((0, 7), (0, 7)))

    def check(entries, cols):
        m = FMatrix(field, np.array(entries, dtype=np.int64).reshape(len(entries), cols))
        reduced, pivots = reference_rref(entries, cols, p)
        got, got_pivots = rref(m)
        assert got.tolist() == reduced and list(got_pivots) == pivots
        for split in range(cols + 1):
            left = len(reference_rref([r[:split] for r in entries], split, p)[1])
            assert prefix_ranks(m, split) == (left, len(pivots))

    for _ in range(60):
        rows, cols = rng.randint(lo_rows, hi_rows), rng.randint(lo_cols, hi_cols)
        entries = low_rank_rows(rng, p, rows, cols, rng.randint(0, min(rows, cols)))
        for j in range(cols):
            if rng.random() < 0.2:
                for row in entries:
                    row[j] = 0
        check(entries, cols)
    for _ in range(60):
        rows, cols = rng.randint(lo_rows, hi_rows), rng.randint(lo_cols, hi_cols)
        entries = structured_rows(rng, p, rows, cols)
        check(entries, len(entries[0]) if entries else cols)


# -- ranks of column subsets of one matrix ------------------------------------

def mask(columns):
    """The column mask of a column list, bit j for column j."""
    return sum(1 << c for c in columns)


@given(st.integers(0, (1 << 200) - 1) | st.sets(st.integers(0, 4000)).map(mask))
def test_mask_columns_lists_the_set_bits(m):
    assert mask_columns(m) == [j for j in range(m.bit_length()) if m >> j & 1]


def dependent_rows(data, p):
    """Rows [I_k | X], their columns permuted, with combinations of them
    and zero rows shuffled in: rank k, more rows than that, and a nonzero
    column of X that is no pivot.  Combinations are taken in Python ints."""
    k, extra = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    x = [[data.draw(st.integers(1 if i == j == 0 else 0, p - 1)) for j in range(extra)]
         for i in range(k)]
    basis = [[int(i == j) for j in range(k)] + x[i] for i in range(k)]
    order = data.draw(st.permutations(range(k + extra)))
    basis = [[r[j] for j in order] for r in basis]
    combos = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k, max_size=k),
                                min_size=1, max_size=4))
    rows = basis + [[sum(c * r[j] for c, r in zip(cs, basis)) % p for j in range(k + extra)]
                    for cs in combos]
    rows += [[0] * (k + extra)] * data.draw(st.integers(0, 2))
    return np.array(data.draw(st.permutations(rows)), dtype=np.int64).reshape(-1, k + extra)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5, 173, 1073741827, LARGE_P]), st.integers(0, 5),
       st.integers(0, 7), st.booleans(), st.data())
def test_column_ranks_match_gathered_ranks(p, r, c, dependent, data):
    """All-zero rows and columns are interleaved with the drawn entries, so
    `support`, the mask of M's nonzero columns, is checked off the pivots.
    The `dependent` shape has more rows than its rank, and its left columns
    hold no pivot but some nonzero column, so no echelon row drops out."""
    f = Field(p)
    if dependent:
        a = dependent_rows(data, p)
    else:
        entries = data.draw(st.lists(st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1),
                                     min_size=r * c, max_size=r * c))
        a = np.array(entries, dtype=np.int64).reshape(r, c)
    a = np.insert(a, data.draw(st.lists(st.integers(0, a.shape[0]), max_size=3)), 0, axis=0)
    a = np.insert(a, data.draw(st.lists(st.integers(0, a.shape[1]), max_size=3)), 0, axis=1)
    m = FMatrix(f, a)
    if dependent:
        pivots = reference_rref(a.tolist(), m.cols, p)[1]
        free = [j for j in range(m.cols) if j not in pivots and a[:, j].any()]
        others = [j for j in range(m.cols) if j not in pivots and j != free[0]]
        left = [free[0]] + data.draw(st.lists(st.sampled_from(others), unique=True)
                                     if others else st.just([]))
        rest = [j for j in range(m.cols) if j not in left]
        right = data.draw(st.lists(st.sampled_from(rest), unique=True) if rest else st.just([]))
    else:
        cols = data.draw(st.permutations(range(m.cols)))
        cut = data.draw(st.integers(0, m.cols))
        end = data.draw(st.integers(cut, m.cols))
        left, right = list(cols[:cut]), list(cols[cut:end])
    column_ranks = ColumnRanks(m)
    assert column_ranks.ranks(mask(left), mask(right)) == (
        rank(FMatrix(f, a[:, left])), rank(FMatrix(f, a[:, left + right])))
    assert column_ranks.support == mask(np.flatnonzero(a.any(axis=0)).tolist())


@pytest.mark.parametrize("seed", range(12))
def test_gf2_column_ranks_wide_interleaved(seed):
    """The packed GF(2) rows of ColumnRanks span more than one 64-bit word
    here, and left and right columns interleave, so the left-first
    elimination must pivot on a left bit above a right one; `rank`
    eliminates each gathered block on its own."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 70), rng.randint(65, 130)
    entries = low_rank_rows(rng, 2, rows, cols, rng.randint(0, min(rows, cols)))
    m = FMatrix(F2, np.array(entries, dtype=np.int64).reshape(rows, cols))
    column_ranks = ColumnRanks(m)
    for _ in range(20):
        left, right = [], []
        for c in rng.sample(range(cols), cols):
            (left, right, [])[rng.randrange(3)].append(c)
        # a left column above a right one: left-first pivots differ from lowest-bit ones
        assert left and right and max(left) > min(right)
        assert column_ranks.ranks(mask(left), mask(right)) == (
            rank(FMatrix(F2, m.array[:, left])), rank(FMatrix(F2, m.array[:, left + right])))


def test_gf2_column_ranks_left_column_above_right():
    """The smallest case where the pivot rule matters: rows [1, 1] and
    [1, 0], left = column 1, right = column 0.  Left-first pivots read
    (1, 2); lowest-bit pivots would count both rows as left, (2, 2)."""
    assert ColumnRanks(FMatrix(F2, [[1, 1], [1, 0]])).ranks(0b10, 0b01) == (1, 2)


# -- rref / solve ------------------------------------------------------------

def test_rref_pivots_are_leading_ones():
    m = M(F5, [[2, 4, 1], [1, 2, 3], [3, 1, 0]])
    red, pivots = rref(m)
    for i, col in enumerate(pivots):
        assert red.array[i, col] == 1
        for r in range(red.rows):
            if r != i:
                assert red.array[r, col] == 0


def test_solve_right_identity():
    i2 = FMatrix.identity(F2, 2)
    assert solve_right(i2, i2) == i2


def test_solve_right_no_solution():
    a = M(F2, [[1], [0]])
    b = M(F2, [[0], [1]])
    with pytest.raises(NoSolutionError):
        solve_right(a, b)


def test_solve_right_underdetermined():
    a = M(F2, [[1, 1]])
    b = M(F2, [[1]])
    x = solve_right(a, b)
    assert a @ x == b


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.data())
def test_solve_right_recovers_consistent_systems(p, r, c, k, data):
    f = Field(p)
    a_entries = data.draw(st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c))
    x_entries = data.draw(st.lists(st.integers(0, p - 1), min_size=c * k, max_size=c * k))
    a = FMatrix(f, np.array(a_entries).reshape(r, c))
    x_true = FMatrix(f, np.array(x_entries).reshape(c, k))
    b = a @ x_true
    x = solve_right(a, b)
    assert a @ x == b


def random_bits(rng, rows, cols):
    """A 0/1 matrix that is dense, sparse, all zeros or has repeated rows."""
    kind = rng.randrange(4)
    if kind == 2:
        return np.zeros((rows, cols), dtype=np.int64)
    density = 0.5 if kind == 0 else 0.15
    a = (np.array([rng.random() for _ in range(rows * cols)]) < density).reshape(rows, cols)
    if kind == 3 and rows > 1:
        a[rng.randrange(rows)] = a[rng.randrange(rows)]
    return a.astype(np.int64)


def numpy_rref(a, p):
    """The reduced echelon form of the NumPy elimination loop, mod p."""
    work = a.copy()
    pivots = _eliminate(work, p, reduce=True)
    return work % p, pivots


def test_gf2_solve_right_matches_numpy_elimination():
    """solve_right over GF(2) against the NumPy loop's reduced form: the same
    solution (free variables zero) or no solution on both paths."""
    rng = random.Random(3)
    solved = refused = 0
    for _ in range(1000):
        r, c, k = rng.randint(1, 8), rng.randint(0, 8), rng.randint(1, 3)
        a = random_bits(rng, r, c)
        b = (a @ random_bits(rng, c, k)) % 2 if rng.random() < 0.5 else random_bits(rng, r, k)
        red, pivots = numpy_rref(np.concatenate([a, b], axis=1), 2)
        if any(col >= c for col in pivots):
            with pytest.raises(NoSolutionError):
                solve_right(FMatrix(F2, a), FMatrix(F2, b))
            refused += 1
            continue
        want = np.zeros((c, k), dtype=np.int64)
        for i, col in enumerate(pivots):
            want[col] = red[i, c:]
        assert np.array_equal(solve_right(FMatrix(F2, a), FMatrix(F2, b)).array, want)
        solved += 1
    assert solved > 200 and refused > 200


# -- stacking ------------------------------------------------------------------

def test_vstack_hstack_shapes():
    a = FMatrix.zeros(F2, 1, 2)
    b = FMatrix.zeros(F2, 2, 2)
    assert vstack([a, b]).rows == 3 and vstack([a, b]).cols == 2
    c = FMatrix.zeros(F2, 2, 1)
    d = FMatrix.zeros(F2, 2, 3)
    assert hstack([c, d]).cols == 4


def test_vstack_dimension_mismatch():
    with pytest.raises(ValueError):
        vstack([FMatrix.zeros(F2, 1, 2), FMatrix.zeros(F2, 1, 3)])


def test_mixed_fields_refused():
    with pytest.raises(ValueError):
        hstack([FMatrix.zeros(F2, 1, 1), FMatrix.zeros(F5, 1, 1)])
    with pytest.raises(ValueError):
        FMatrix.identity(F2, 2) @ FMatrix.identity(F5, 2)


# -- cauchy ------------------------------------------------------------------

def test_cauchy_1x1_gf3():
    # points a_0 = 0, b_0 = 1; entry = inv(0 - 1 mod 3) = inv(2) = 2
    got = cauchy(1, 1, Field(3))
    assert got.tolist() == [[2]]


def test_cauchy_2x2_gf5_all_submatrices_nonsingular():
    m = cauchy(2, 2, F5)
    for i, j in product(range(2), repeat=2):
        assert m.array[i, j] != 0
    assert rank(m) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 13, 173, LARGE_P])
def test_cauchy_matches_entry_definition(p):
    f = Field(p)
    for r, c in [(0, 0), (0, 2), (2, 0), (1, 1), (1, 4), (4, 1), (3, 5), (6, 6), (9, 4)]:
        if r + c > p:
            continue
        m = cauchy(r, c, f)
        assert (m.rows, m.cols) == (r, c)
        assert m.tolist() == [[pow((i - r - j) % p, p - 2, p) for j in range(c)]
                              for i in range(r)]


def test_cauchy_field_too_small():
    with pytest.raises(FieldTooSmallError):
        cauchy(3, 4, F5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_cauchy_mds_exhaustive(p):
    """Every square submatrix of a Cauchy matrix has full rank."""
    f = Field(p)
    for r in range(1, 5):
        for c in range(1, 5):
            if r + c > p:
                continue
            m = cauchy(r, c, f)
            for k in range(1, min(r, c) + 1):
                for rows in combinations(range(r), k):
                    for cols in combinations(range(c), k):
                        assert rank(FMatrix(f, m.array[np.ix_(rows, cols)])) == k


def test_matrices_are_immutable():
    m = FMatrix.identity(F2, 2)
    with pytest.raises(ValueError):
        m.array[0, 0] = 0
