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
it misses.  Stacking the Vw_I of all I (same u, i) into one Cauchy matrix
makes any receiver's collected rows invertible; drawing the Vs blocks
from a Cauchy matrix makes any eavesdropper's unknown-key square
submatrix invertible.  Summing the block sizes reproduces the closed-form
capacity sum C(K-2, u-1) L[u] and bandwidth sum
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

    # One entry per (u, i) with actual content: each I-block's keys in
    # ascending mask order, the per-block row count b, the message width m.
    plan = []
    p_floor = 2
    for u in range(1, K + 1):
        ell = profile[u - 1]
        if ell == 0:
            continue
        for i in range(min(u, N), 0, -1):
            b = comb(K - N - 1, u - i) * ell
            m = comb(N - 1, i - 1) * b
            if b == 0:
                continue
            groups = list(combinations(qualified, i))
            blocks = [sorted((frozenset(members + extra)
                              for extra in combinations(eavesdroppers, u - i)), key=mask_of)
                      for members in groups]
            plan.append({"u": u, "i": i, "ell": ell, "b": b, "m": m,
                         "blocks": blocks})
            p_floor = max(p_floor,
                          len(groups) * b + m,              # stacked Vw
                          b + comb(K - N, u - i) * ell)      # per-block Vs
    if not plan:
        return empty_scheme(config, "symmetric", seed)

    lw = sum(g["m"] for g in plan)
    lx = sum(len(g["blocks"]) * g["b"] for g in plan)
    layout_subsets: list[frozenset[int]] = []
    for g in plan:
        for key_subsets in g["blocks"]:
            layout_subsets.extend(key_subsets)
    layout_subsets.sort(key=mask_of)
    layout = tuple((s, profile[len(s) - 1]) for s in layout_subsets)
    alloc = SegmentAllocator(layout)
    groups_meta = [{"u": g["u"], "i": g["i"], "rate": g["m"],
                    "bandwidth": len(g["blocks"]) * g["b"]} for g in plan]

    check_cells((lx, lw), (lx, alloc.total))
    field = Field(least_prime_at_least(p_floor))
    a = np.zeros((lx, lw), dtype=np.int64)
    bmat = np.zeros((lx, alloc.total), dtype=np.int64)
    row = msg = 0
    for g in plan:
        b, m, ell = g["b"], g["m"], g["ell"]
        vw = cauchy(len(g["blocks"]) * b, m, field)
        vs = cauchy(b, comb(K - N, g["u"] - g["i"]) * ell, field)
        for t, key_subsets in enumerate(g["blocks"]):
            a[row:row + b, msg:msg + m] = vw.array[t * b:(t + 1) * b]
            for j, subset in enumerate(key_subsets):
                bmat[row:row + b, alloc.take(subset, ell)] = \
                    vs.array[:, j * ell:(j + 1) * ell]
            row += b
        msg += m
    caller_qualified, layout = in_caller_labels(perm, qualified, layout)
    return build_verified(LinearScheme(
        field=field, L=1, K=K, qualified=caller_qualified, layout=layout,
        A=FMatrix._reduced(field, a), B=FMatrix._reduced(field, bmat),
        meta={"builder": "symmetric", "groups": groups_meta, "escalations": 0,
              "seed": seed}))
