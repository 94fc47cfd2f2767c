"""Scheme builder for symmetric key profiles (any N, K).

When every u-subset carries the same key size, keys of different
cardinality never need to be coded together: each cardinality u splits
further by how many qualified receivers i know the key.  For a fixed
group of qualified receivers I (|I| = i), the keys {s_U : U cap [1:N] = I,
|U| = u} form a private pool: everyone in I knows all of them while any
eavesdropper knows only those U containing it.  One transmit block

    X(u, I) = Vw_I @ W(u, i) + sum_U Vs_U @ s_U

with C(K-N-1, u-i) * L rows then delivers fresh message combinations to
exactly the receivers in I and drowns every eavesdropper in key symbols
it misses.  One plan row per (u, i) with content lists the keys of its
I-blocks.  Their Vw_I are stacked into one Cauchy matrix, which makes
any receiver's collected rows invertible; one Cauchy Vs, shared by the
I-blocks, makes any eavesdropper's unknown-key square submatrix
invertible.  The field is the least prime at or above the largest
rows + cols of these draws.  Summing the block sizes reproduces the
closed-form capacity sum C(K-2, u-1) L[u] and bandwidth sum
(C(K-1, u) - C(K-N-1, u)) L[u].
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from ..fmatrix import FMatrix, cauchy
from ..gf import Field, least_prime_at_least
from ..keyspace import KeyConfig, WrongShapeError, canonical_relabel, is_symmetric, mask_of
from ..scheme import LinearScheme
from ._common import (SegmentAllocator, build_verified, check_cells, empty_scheme,
                      in_caller_labels)


def symmetric(config: KeyConfig, seed: int = 0) -> LinearScheme:
    """Capacity- and bandwidth-optimal scheme for a symmetric profile."""
    flag, profile = is_symmetric(config)
    if not flag:
        raise WrongShapeError("symmetric needs one key size per subset cardinality")
    perm = canonical_relabel(config)
    K, N = config.K, config.N
    qualified = list(range(1, N + 1))
    eavesdroppers = list(range(N + 1, K + 1))

    # per (u, i) with content: u, i, key size ell, rows b of one I-block,
    # message width m, and each I-block's keys I | E in ascending mask order
    plan = [(u, i, ell, b, comb(N - 1, i - 1) * b,
             [sorted((frozenset(members + extra)
                      for extra in combinations(eavesdroppers, u - i)), key=mask_of)
              for members in combinations(qualified, i)])
            for u, ell in enumerate(profile, 1)
            for i in range(min(u, N), 0, -1)
            if (b := comb(K - N - 1, u - i) * ell)]
    if not plan:
        return empty_scheme(config, "symmetric", seed)

    layout = tuple((s, profile[len(s) - 1]) for s in sorted(
        (key for *_, blocks in plan for keys in blocks for key in keys), key=mask_of))
    alloc = SegmentAllocator(layout)
    lw = sum(m for *_, m, _ in plan)
    lx = sum(len(blocks) * b for *_, b, _, blocks in plan)
    check_cells((lx, lw), (lx, alloc.total))
    # the largest rows + cols of a group's stacked Vw and of its Vs
    field = Field(least_prime_at_least(max(
        max(len(blocks) * b + m, b + len(blocks[0]) * ell)
        for _, _, ell, b, m, blocks in plan)))
    a = np.zeros((lx, lw), dtype=np.int64)
    bmat = np.zeros((lx, alloc.total), dtype=np.int64)
    row = msg = 0
    for _, _, ell, b, m, blocks in plan:
        a[row:row + len(blocks) * b, msg:msg + m] = cauchy(len(blocks) * b, m, field).array
        vs = cauchy(b, len(blocks[0]) * ell, field).array
        for keys in blocks:
            for j, subset in enumerate(keys):
                bmat[row:row + b, alloc.take(subset, ell)] = vs[:, j * ell:(j + 1) * ell]
            row += b
        msg += m
    caller_qualified, layout = in_caller_labels(perm, qualified, layout)
    return build_verified(LinearScheme(
        field=field, L=1, K=K, qualified=caller_qualified, layout=layout,
        A=FMatrix._reduced(field, a), B=FMatrix._reduced(field, bmat),
        meta={"builder": "symmetric",
              "groups": [{"u": u, "i": i, "rate": m, "bandwidth": len(blocks) * b}
                         for u, i, _, b, m, blocks in plan],
              "escalations": 0, "seed": seed}))
