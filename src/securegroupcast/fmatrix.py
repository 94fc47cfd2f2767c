"""Dense matrices over GF(p): rank, echelon forms, linear solves and
Cauchy matrix construction.

Matrices are immutable; numpy supplies storage and elementwise ops while
all arithmetic stays exact (integer residues mod p).  One Gaussian
elimination loop with first-nonzero pivoting, which is all that is needed
at desk scale, serves ranks and reduced echelon forms.  It delays the
modular reduction (Dumas, Giorgi & Pernet, "Dense linear algebra over
word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 35(3),
2008): an update subtracts a product of two residues, at most (p - 1)^2,
so after t updates since the last reduction every entry lies in
[-t (p - 1)^2, p - 1], and int64 holds t = INT64_MAX // (p - 1)^2 of them.
Only what the next step reads is reduced before that: the pivot column,
whose zeros decide the pivot and whose entries are the row factors, and
the pivot row that an update reads, which is scaled unreduced while
t (p - 1)^3 fits in int64.  A pivot whose column holds no other
nonzero among the rows an update touches updates no row.  ColumnRanks
answers many column-subset rank queries on one matrix; the subsets and
the matrix's nonzero columns are column masks (an int, bit j for column
j) over every field.  Over GF(2) each query runs one left-first
elimination on the matrix's packed bitset rows, the one packed path.
Over GF(p) one reduced echelon form serves all queries, and a query
whose columns hold no pivot ranks the matrix's own columns.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, reduce
from operator import or_
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
        self._adopt(field, a)

    def _adopt(self, field: Field, a: np.ndarray):
        a.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_a", a)

    @classmethod
    def _reduced(cls, field: Field, a: np.ndarray) -> "FMatrix":
        """Wrap an int64 array whose entries already lie in [0, p), without
        a copy; the array is made read-only."""
        m = cls.__new__(cls)
        m._adopt(field, a)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("FMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FMatrix":
        return cls._reduced(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, n: int) -> "FMatrix":
        return cls._reduced(field, np.eye(n, dtype=np.int64))

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

    def tolist(self) -> list:
        return self._a.tolist()

    def transpose(self) -> "FMatrix":
        return FMatrix._reduced(self.field, self._a.T)

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
        # a - (p - b) lies in (-p, p), so it cannot wrap in int64 as a + b can
        return FMatrix._reduced(self.field, (self._a - (self.field.p - other._a)) % self.field.p)

    def __neg__(self) -> "FMatrix":
        return FMatrix._reduced(self.field, (-self._a) % self.field.p)

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        p, a, b = self.field.p, self._a, other._a
        # a sum of `cols` products of residues is exact in int64 while
        # cols * (p - 1)^2 fits; past that, exact Python integers
        if self.cols * (p - 1) ** 2 > INT64_MAX:
            a, b = a.astype(object), b.astype(object)
        return FMatrix._reduced(self.field, ((a @ b) % p).astype(np.int64, copy=False))


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
    return FMatrix._reduced(field, np.concatenate([m.array for m in parts], axis=1))


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
    return FMatrix._reduced(field, np.concatenate([m.array for m in parts], axis=0))


# -- elimination engines ------------------------------------------------

def _work_copy(arr: np.ndarray, p: int) -> np.ndarray:
    """A copy to eliminate on: int64 while a product of two residues fits,
    Python integers (object dtype) beyond that."""
    return arr.astype(object) if (p - 1) ** 2 > INT64_MAX else arr.copy()


def _eliminate(a: np.ndarray, p: int, reduce: bool) -> list[int]:
    """Gaussian elimination of `a` in place over GF(p); returns the pivot
    columns.

    Each column pivots on its first nonzero entry at or below the next
    free row.  Every pivot row is scaled to a leading 1 and cleared from the
    rows below it, and with `reduce` from the rows above it too, which
    leaves the reduced row echelon form up to reduction mod p.  The pivot
    row and the rows below it are zero left of the current column, so
    swaps and updates touch only columns col onwards.

    A pivot pays only for the work it has.  When no other row that
    updates touch is nonzero in the pivot column, no row is updated, and
    without `reduce` the pivot row, which nothing reads again, is not
    scaled either.  A pivot entry of 1 is not scaled.

    Reduction is delayed.  With every entry in [0, p) after a reduction,
    each update subtracts factor * row entry <= (p - 1)^2, so after
    `pending` updates an entry lies in [-pending (p - 1)^2, p - 1]; int64
    holds that for pending <= INT64_MAX // (p - 1)^2, and the rows that
    updates touch are reduced once `pending` reaches that budget.  The
    budget is 1, a reduction after every pivot, for p near 2^31.5 and for
    the object arrays of Python integers that larger p take.  A skipped
    update changes no entry and is not counted.
    Before then only what the step reads is reduced: the pivot column, so
    that a zero is a zero mod p and the factors are residues, and the
    pivot row that an update reads, so that the update multiplies two
    residues.  Scaling multiplies an entry by an inverse below p, so a
    pivot row is scaled unreduced while pending (p - 1)^3 fits in int64,
    and reduced first past that.  With `reduce` the pivot columns come out
    exact (a 1 and zeros); every other entry is left congruent to the
    echelon form, not reduced.
    """
    rows, cols = a.shape
    budget = max(1, INT64_MAX // (p - 1) ** 2)
    scale_budget = INT64_MAX // (p - 1) ** 3   # most pending updates to scale a row unreduced after
    pending = 0     # updates since the touched rows were last reduced
    pivots: list[int] = []
    lead = 0
    for col in range(cols):
        if lead == rows:
            break
        top = 0 if reduce else lead   # the first row that updates touch
        if pending:
            a[top:, col] %= p
        hits = a[top:, col].nonzero()[0].tolist()   # row - top of each nonzero
        at = bisect_left(hits, lead - top)
        if at == len(hits):
            continue
        piv = top + hits[at]
        if piv != lead:
            a[[lead, piv], col:] = a[[piv, lead], col:]
        update = len(hits) > 1   # another touched row is nonzero in this column
        row = a[lead, col:]
        if update or reduce:
            entry = int(row[0])
            if entry != 1:
                if pending > scale_budget:
                    row %= p
                row *= pow(entry, p - 2, p)
                row %= p
            elif pending and update:
                row %= p
        if update:
            if pending == budget:
                a[top:, col + 1:] %= p
                pending = 0
            if reduce:
                block = a[:, col:]
                factors = block[:, :1].copy()
                factors[lead] = 0   # the pivot row stays
            else:
                block = a[lead + 1:, col:]
                factors = block[:, :1]
            block -= factors * row
            pending += 1
        pivots.append(col)
        lead += 1
    return pivots


def pack_rows(arr: np.ndarray) -> list[int]:
    """Rows of a 0/1 (or boolean) matrix as Python ints, bit j = column j."""
    bits = np.packbits(arr, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in bits]


def unpack_rows(rows: Sequence[int], cols: int) -> np.ndarray:
    """The inverse of pack_rows: a len(rows) x cols uint8 matrix of 0/1."""
    nbytes = (cols + 7) // 8
    packed = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in rows), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(rows), nbytes), axis=1, count=cols,
                         bitorder="little")


def _gf2_prefix_ranks(rows: Iterable[int], left: int) -> tuple[int, int]:
    """(rank of the `left` bits, rank of all) of packed GF(2) rows.

    Elimination over the column order "left, then the rest": a row's pivot
    is its lowest bit in left if it has one, else its lowest bit.  Adding a
    basis row with the same pivot moves a row's pivot later in that order,
    so the pivots in left count the rank of the left bits.  A row's pivot
    lies in left exactly when the row meets left.
    """
    basis: dict[int, int] = {}   # pivot column -> row
    base = 0
    for v in rows:
        while v:
            u = v & left or v
            low = (u & -u).bit_length() - 1
            piv = basis.get(low)
            if piv is None:
                basis[low] = v
                base += bool(v & left)
                break
            v ^= piv
    return base, len(basis)


def prefix_ranks(m: FMatrix, split: int) -> tuple[int, int]:
    """Rank of the left `split`-column block together with the full rank.

    One elimination pass serves both numbers because row operations
    preserve the rank of every column prefix.
    """
    if not 0 <= split <= m.cols:
        raise ValueError(f"split {split} outside [0, {m.cols}]")
    p = m.field.p
    pivots = _eliminate(_work_copy(m.array, p), p, reduce=False)
    return bisect_left(pivots, split), len(pivots)


def rank(m: FMatrix) -> int:
    """Dimension of the row space (= column space) of m."""
    return prefix_ranks(m, m.cols)[1]


def rref(m: FMatrix) -> tuple[FMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    p = m.field.p
    a = _work_copy(m.array, p)
    pivots = _eliminate(a, p, reduce=True)
    a %= p
    return FMatrix._reduced(m.field, a.astype(np.int64, copy=False)), tuple(pivots)


def mask_columns(mask: int) -> list[int]:
    """The columns of a column mask (bit j = column j), ascending, read
    one run of ones at a time."""
    columns: list[int] = []
    while mask:
        low = mask & -mask
        carried = mask + low          # carries through the lowest run of ones
        high = carried & -carried     # the bit just above that run
        columns.extend(range(low.bit_length() - 1, high.bit_length() - 1))
        mask = carried ^ high         # the mask without that run
    return columns


class ColumnRanks:
    """Ranks of column subsets of one matrix M.  A column subset is a mask,
    an int with bit j set for column j, and `support` is the mask of M's
    nonzero columns.

    Over GF(2) each query runs one elimination on M's packed rows masked
    to left | right, taking the left columns first (`_gf2_prefix_ranks`).

    Over GF(p) one echelon form serves every query.  Row operations keep
    the rank of every column subset, so M is reduced once to its reduced
    row echelon form R with pivot columns P.  For columns S, let I be the
    pivot rows of the columns in S ∩ P: those columns of R are unit vectors
    on I and zero elsewhere, so rank(M[:, S]) = |I| + rank(R[not I, S minus
    P]).  `ranks` applies this to S = left and to S = left + right with the
    same I, and reads both residual ranks from one prefix-rank pass over a
    block gathered from the support.  When left holds no pivot, I is empty
    and R's rows span M's, so the block is gathered from M itself: the
    builders' M = [B | A] is mostly sparser than R, so its elimination
    skips more row updates.
    """

    def __init__(self, m: FMatrix):
        self.field = m.field
        self._packed = pack_rows(m.array != 0)   # M's nonzero pattern: over GF(2), M itself
        if m.field.p != 2:
            reduced, pivots = rref(m)
            self._matrix = m.array
            self._echelon = reduced.array[:len(pivots)]
            self._rows = [(1 << c, i) for i, c in enumerate(pivots)]   # (pivot bit, row index)
            self._pivots = sum(bit for bit, _ in self._rows)

    @cached_property
    def support(self) -> int:
        """The mask of M's nonzero columns: the OR of its packed nonzero rows."""
        return reduce(or_, self._packed, 0)

    def ranks(self, left: int, right: int) -> tuple[int, int]:
        """(rank of M[:, left], rank of M[:, left | right]) for disjoint
        column masks."""
        if self.field.p == 2:
            mask = left | right
            return _gf2_prefix_ranks([v & mask for v in self._packed], left)
        free = left & self.support & ~self._pivots
        columns = mask_columns(free) + mask_columns(right & self.support)
        if left & self._pivots:
            kept = self._echelon[[i for bit, i in self._rows if not left & bit]]
            block = kept[:, columns]
        else:
            block = self._matrix[:, columns]
        base, total = prefix_ranks(FMatrix._reduced(self.field, block), free.bit_count())
        held = (left & self._pivots).bit_count()
        return held + base, held + total


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
    return FMatrix._reduced(a.field, x)


def cauchy(rows: int, cols: int, field: Field) -> FMatrix:
    """Cauchy matrix M(i, j) = 1 / (a_i - b_j) over GF(p).

    Evaluation points are fixed as a_i = i and b_j = rows + j, so the
    construction is deterministic; rows + cols <= p guarantees all points
    are distinct.  Every square submatrix of the result is nonsingular,
    which is the MDS property the scheme builders rely on.  An entry
    depends only on i - j, so each of the rows + cols - 1 distinct
    inverses is computed once.
    """
    if rows < 0 or cols < 0:
        raise ValueError("negative dimensions")
    if rows + cols > field.p:
        raise FieldTooSmallError(
            f"need {rows + cols} distinct points but GF({field.p}) has only {field.p}")
    p = field.p
    # inverse of (i - rows - j) mod p, stored at i - j + cols - 1
    inverses = np.array([pow(d % p, p - 2, p) for d in range(-rows - cols + 1, 0)],
                        dtype=np.int64)
    return FMatrix._reduced(
        field, inverses[np.subtract.outer(np.arange(rows), np.arange(cols)) + cols - 1])
