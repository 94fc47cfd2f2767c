"""Dense matrices over GF(p): rank, echelon forms, linear solves,
column-space membership, and Cauchy matrix construction.

Matrices are immutable; numpy supplies storage and elementwise ops while
all arithmetic stays exact (integer residues mod p).  Gaussian elimination
uses first-nonzero pivoting, which is all that is needed at desk scale.
A packed-bitset fast path handles the p = 2 rank computations that
dominate scheme verification sweeps.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .gf import Field

INT64_MAX = int(np.iinfo(np.int64).max)


class NoSolutionError(ValueError):
    """The right-hand side lies outside the column space."""


class FieldTooSmallError(ValueError):
    """Not enough distinct evaluation points in GF(p) for a Cauchy matrix."""


class FMatrix:
    """An immutable rows x cols matrix with entries reduced mod p."""

    __slots__ = ("field", "_a")

    def __init__(self, field: Field, array):
        a = np.array(array, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"need a 2-D array, got shape {a.shape}")
        a %= field.p
        a.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError("FMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, n: int) -> "FMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[int]],
                  cols: int | None = None) -> "FMatrix":
        """Build from a list of rows; `cols` disambiguates zero-row shapes."""
        if len(rows) == 0:
            return cls.zeros(field, 0, 0 if cols is None else cols)
        return cls(field, np.array(rows, dtype=np.int64))

    # -- basic structure ------------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view of the entries."""
        return self._a

    def entry(self, i: int, j: int) -> int:
        return int(self._a[i, j])

    def row(self, i: int) -> tuple:
        return tuple(int(x) for x in self._a[i])

    def tolist(self) -> list:
        return [[int(x) for x in r] for r in self._a]

    def transpose(self) -> "FMatrix":
        return FMatrix(self.field, self._a.T)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "FMatrix":
        r = np.fromiter(row_idx, dtype=np.int64)
        c = np.fromiter(col_idx, dtype=np.int64)
        return FMatrix(self.field, self._a[np.ix_(r, c)] if r.size and c.size
                       else np.zeros((r.size, c.size), dtype=np.int64))

    def __eq__(self, other):
        return (isinstance(other, FMatrix) and other.field == self.field
                and other._a.shape == self._a.shape
                and bool(np.array_equal(other._a, self._a)))

    def __hash__(self):
        return hash((self.field, self._a.shape, self._a.tobytes()))

    def __repr__(self):
        return f"FMatrix(GF({self.field.p}), {self.rows}x{self.cols})"

    # -- arithmetic -----------------------------------------------------

    def _check_field(self, other: "FMatrix"):
        if other.field != self.field:
            raise ValueError(f"field mismatch: GF({self.field.p}) vs GF({other.field.p})")

    def __add__(self, other: "FMatrix") -> "FMatrix":
        self._check_field(other)
        if other._a.shape != self._a.shape:
            raise ValueError("shape mismatch in add")
        return FMatrix(self.field, (self._a + other._a) % self.field.p)

    def __sub__(self, other: "FMatrix") -> "FMatrix":
        self._check_field(other)
        if other._a.shape != self._a.shape:
            raise ValueError("shape mismatch in sub")
        return FMatrix(self.field, (self._a - other._a) % self.field.p)

    def __neg__(self) -> "FMatrix":
        return FMatrix(self.field, (-self._a) % self.field.p)

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        p = self.field.p
        # int64 products are safe while n * p^2 < 2^63; fall back to exact
        # Python integers for very large moduli.
        if p <= (1 << 20) or self.cols == 0:
            prod = (self._a @ other._a) % p
        else:
            prod = (self._a.astype(object) @ other._a.astype(object)) % p
        return FMatrix(self.field, prod.astype(np.int64) if prod.dtype == object else prod)

    def scale(self, c: int) -> "FMatrix":
        return FMatrix(self.field, (self._a * (c % self.field.p)) % self.field.p)


def hstack(parts: Sequence[FMatrix]) -> FMatrix:
    """Column-concatenate matrices with equal row counts."""
    if not parts:
        raise ValueError("hstack of nothing")
    field = parts[0].field
    rows = parts[0].rows
    for m in parts[1:]:
        if m.field != field:
            raise ValueError("field mismatch in hstack")
        if m.rows != rows:
            raise ValueError(f"row mismatch in hstack: {rows} vs {m.rows}")
    return FMatrix(field, np.concatenate([m.array for m in parts], axis=1))


def vstack(parts: Sequence[FMatrix]) -> FMatrix:
    """Row-concatenate matrices with equal column counts."""
    if not parts:
        raise ValueError("vstack of nothing")
    field = parts[0].field
    cols = parts[0].cols
    for m in parts[1:]:
        if m.field != field:
            raise ValueError("field mismatch in vstack")
        if m.cols != cols:
            raise ValueError(f"column mismatch in vstack: {cols} vs {m.cols}")
    return FMatrix(field, np.concatenate([m.array for m in parts], axis=0))


# -- elimination engines ------------------------------------------------

def _work_copy(arr: np.ndarray, p: int) -> np.ndarray:
    """A copy to eliminate on: int64 while a product of two residues fits,
    Python integers (object dtype) beyond that."""
    return arr.astype(object) if (p - 1) ** 2 > INT64_MAX else arr.copy()


def _prefix_ranks_gf2(arr: np.ndarray, split: int) -> tuple[int, int]:
    """(rank of the first `split` columns, rank of all) over GF(2).

    Rows are packed into Python ints (bit j = column j) and reduced
    left-to-right, so pivots in columns < split count the prefix rank.
    """
    rows, cols = arr.shape
    if rows == 0 or cols == 0:
        return 0, 0
    packed = []
    bits = np.packbits(arr.astype(np.uint8), axis=1, bitorder="little")
    for i in range(rows):
        packed.append(int.from_bytes(bits[i].tobytes(), "little"))
    pivots: dict[int, int] = {}  # pivot bit index -> row value
    prefix = total = 0
    for v in packed:
        while v:
            low = (v & -v).bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = v
                total += 1
                if low < split:
                    prefix += 1
                break
            v ^= piv
    return prefix, total


def _prefix_ranks_generic(arr: np.ndarray, p: int, split: int) -> tuple[int, int]:
    """Left-to-right elimination over GF(p); returns (prefix rank, rank)."""
    a = _work_copy(arr, p)
    rows, cols = a.shape
    lead = 0
    prefix = total = 0
    for col in range(cols):
        if lead >= rows:
            break
        piv = None
        for i in range(lead, rows):
            if a[i, col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != lead:
            a[[lead, piv]] = a[[piv, lead]]
        inv = pow(int(a[lead, col]), p - 2, p)
        a[lead] = a[lead] * inv % p
        below = a[lead + 1:, col] != 0
        if below.any():
            rows_b = a[lead + 1:][below]
            a[lead + 1:][below] = (rows_b - np.outer(rows_b[:, col], a[lead])) % p
        total += 1
        if col < split:
            prefix += 1
        lead += 1
    return prefix, total


def prefix_ranks(m: FMatrix, split: int) -> tuple[int, int]:
    """Rank of the left `split`-column block together with the full rank.

    One elimination pass serves both numbers because row operations
    preserve the rank of every column prefix.
    """
    if not 0 <= split <= m.cols:
        raise ValueError(f"split {split} outside [0, {m.cols}]")
    if m.field.p == 2:
        return _prefix_ranks_gf2(m.array, split)
    return _prefix_ranks_generic(m.array, m.field.p, split)


def rank(m: FMatrix) -> int:
    """Dimension of the row space (= column space) of m."""
    return prefix_ranks(m, m.cols)[1]


def rref(m: FMatrix) -> tuple[FMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    p = m.field.p
    a = _work_copy(m.array, p)
    rows, cols = a.shape
    pivots: list[int] = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        piv = None
        for i in range(lead, rows):
            if a[i, col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != lead:
            a[[lead, piv]] = a[[piv, lead]]
        inv = pow(int(a[lead, col]), p - 2, p)
        a[lead] = a[lead] * inv % p
        others = a[:, col] != 0
        others[lead] = False
        if others.any():
            rows_o = a[others]
            a[others] = (rows_o - np.outer(rows_o[:, col], a[lead])) % p
        pivots.append(col)
        lead += 1
    return FMatrix(m.field, a), tuple(pivots)


def solve_right(a: FMatrix, b: FMatrix) -> FMatrix:
    """Some X with A @ X = B, free variables set to zero.

    Raises NoSolutionError when any column of B lies outside the column
    space of A.
    """
    if a.field != b.field:
        raise ValueError("field mismatch in solve_right")
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: A has {a.rows}, B has {b.rows}")
    aug, pivots = rref(hstack([a, b]))
    n = a.cols
    if any(c >= n for c in pivots):
        raise NoSolutionError("B is not in the column space of A")
    x = np.zeros((n, b.cols), dtype=np.int64)
    red = aug.array
    for r, col in enumerate(pivots):
        x[col] = red[r, n:]
    return FMatrix(a.field, x)


def col_space_contains(b: FMatrix, a: FMatrix) -> bool:
    """True iff every column of A lies in the column space of B."""
    if a.field != b.field:
        raise ValueError("field mismatch in col_space_contains")
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: B has {b.rows}, A has {a.rows}")
    left, total = prefix_ranks(hstack([b, a]), b.cols)
    return left == total


def cauchy(rows: int, cols: int, field: Field) -> FMatrix:
    """Cauchy matrix M(i, j) = 1 / (a_i - b_j) over GF(p).

    Evaluation points are fixed as a_i = i and b_j = rows + j, so the
    construction is deterministic; rows + cols <= p guarantees all points
    are distinct.  Every square submatrix of the result is nonsingular,
    which is the MDS property the scheme builders rely on.
    """
    if rows < 0 or cols < 0:
        raise ValueError("negative dimensions")
    if rows + cols > field.p:
        raise FieldTooSmallError(
            f"need {rows + cols} distinct points but GF({field.p}) has only {field.p}")
    p = field.p
    a = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = pow((i - rows - j) % p, p - 2, p)
    return FMatrix(field, a)
