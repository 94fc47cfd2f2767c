"""Shared synthesis machinery: budgeted key-column allocation, the matrix
cell budget and the single verification gate every builder passes.

Every builder constructs its scheme once.  The Cauchy builders (unicast,
multicast, symmetric) work over GF(least_prime_at_least(rows + cols)) of
the largest Cauchy matrix they draw, a field in which every square
submatrix of it is invertible, so each correctness and security rank is
provable; the GF(2) builders (2-of-4, aligned 2-of-5, region) stamp fixed
bit patterns as packed [B | A] rows, which gf2_matrices alone turns into
matrices.  build_verified checks the result all the same: a rejected
scheme is a builder bug and raises SynthesisError (exit 4).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..fmatrix import FMatrix, unpack_rows
from ..gf import Field
from ..keyspace import KeyConfig, invert_perm
from ..scheme import LinearScheme, verify

F2 = Field(2)


class SynthesisError(RuntimeError):
    """A builder's output failed verification."""


class UnsolvedSettingError(ValueError):
    """No capacity-achieving construction is known for this shape."""


# int64 cells per scheme matrix (2 GiB), synthesis's only size check: each
# builder checks the shapes of its A and B against it before it allocates
# either, and so does a scheme file's parse before it builds the scheme.
CELL_BUDGET = 1 << 28


class MatrixTooLargeError(ValueError):
    """A scheme's matrix would hold more than CELL_BUDGET cells."""


def check_cells(*shapes: tuple[int, int]) -> None:
    """Raise MatrixTooLargeError if a (rows, cols) shape passes CELL_BUDGET.
    A matrix with no rows counts as one row: its column masks still take a
    bit per column."""
    for rows, cols in shapes:
        if max(rows, 1) * cols > CELL_BUDGET:
            raise MatrixTooLargeError(
                f"the scheme needs a {rows} x {cols} matrix, more than the budget "
                f"of 2^{CELL_BUDGET.bit_length() - 1} int64 cells per matrix "
                f"(a matrix with no rows counts as one row)")


def gf2_matrices(rows: Sequence[int], d: int, cols: int) -> tuple[FMatrix, FMatrix]:
    """(A, B) over F2 of packed [B | A] rows: bit j is column j, B the first d of cols."""
    m = unpack_rows(rows, cols)
    return (FMatrix._reduced(F2, m[:, d:].astype(np.int64)),
            FMatrix._reduced(F2, m[:, :d].astype(np.int64)))


def empty_scheme(config: KeyConfig, builder: str, seed: int) -> LinearScheme:
    """The rate-0 scheme a builder returns when the capacity is 0."""
    return LinearScheme.empty(K=config.K, qualified=config.qualified,
                              meta={"builder": builder, "degenerate": True,
                                    "seed": seed, "escalations": 0})


def build_verified(scheme: LinearScheme) -> LinearScheme:
    """Return the scheme if the verifier accepts it; raise SynthesisError
    otherwise.

    Builders write the final meta themselves, `escalations` (always 0, as
    nothing is redrawn) and `seed` (which labels the file) included.
    """
    if not verify(scheme).ok:
        case = f" in case {scheme.meta['case']}" if "case" in scheme.meta else ""
        raise SynthesisError(
            f"{scheme.meta.get('builder')} output failed verification{case}")
    return scheme


def in_caller_labels(perm: Mapping[int, int], qualified: Iterable[int],
                     layout: Iterable[tuple[frozenset[int], int]]):
    """The qualified set and layout of a scheme built in the labels of
    perm (caller label -> builder label), written in the caller's."""
    back = invert_perm(perm)
    return (frozenset(back[k] for k in qualified),
            tuple((frozenset(back[k] for k in subset), width) for subset, width in layout))


class SegmentAllocator:
    """Hands out fresh key-symbol columns inside per-subset budget segments.

    The layout fixes one segment per key subset; take() returns the next
    unused global column of that subset and refuses to exceed the budget,
    which enforces the key-budget discipline mechanically.
    """

    def __init__(self, layout: Iterable[tuple[frozenset[int], int]]):
        self._start: dict[frozenset[int], int] = {}
        self._width: dict[frozenset[int], int] = {}
        self._used: dict[frozenset[int], int] = {}
        pos = 0
        for subset, width in layout:
            if subset in self._start:
                raise ValueError(f"duplicate segment for {sorted(subset)}")
            self._start[subset] = pos
            self._width[subset] = width
            self._used[subset] = 0
            pos += width
        self.total = pos

    def take(self, subset: frozenset[int], count: int = 1) -> list[int]:
        used = self._used[subset]
        if used + count > self._width[subset]:
            raise SynthesisError(
                f"key budget exceeded for subset {sorted(subset)}: "
                f"{used + count} > {self._width[subset]}")
        self._used[subset] = used + count
        base = self._start[subset] + used
        return list(range(base, base + count))

