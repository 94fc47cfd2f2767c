"""Scheme builders for a single eavesdropper (all other receivers qualified).

Dual of the unicast construction: instead of mixing key symbols, mix
message symbols.  Each key subset U not touching the eavesdropper gets a
transmit block X_U = V_U @ W + s_U, with the V_U stacked from one Cauchy
matrix.  Security is free (the eavesdropper's keys never appear) and any
qualified receiver collects at least L_W generic message combinations.

The plain builder is capacity-optimal at bandwidth sum-of-key-sizes; as
every key it uses lacks the eavesdropper, it builds in the caller's
labels.  For K = 4 the bandwidth-optimal variant trims redundancy: in
normalized labels, where receiver 1 has the smallest secure key entropy,
receiver 1's four blocks are kept whole and the {2}, {3}, {2,3} blocks
are truncated according to how the pair key compares with receiver 1's
private and pair keys; the scheme is written in the caller's labels.
"""

from __future__ import annotations

import numpy as np

from ..fmatrix import FMatrix, cauchy
from ..gf import Field, least_prime_at_least
from ..keyspace import KeyConfig, WrongShapeError, normalize_labels, set_of
from ..bounds import rate_converse
from ..scheme import LinearScheme
from ._common import SegmentAllocator, build_verified, empty_scheme, in_caller_labels


def multicast(config: KeyConfig, seed: int = 0) -> LinearScheme:
    """Capacity-achieving scheme for |qualified| = K - 1 (any K)."""
    if config.N != config.K - 1:
        raise WrongShapeError(
            f"multicast needs exactly one eavesdropper, got {config.K - config.N}")
    useful = [(m, size) for m, size in config.keys.items() if not m & ~config.qualified_mask]
    lw = rate_converse(config)
    if lw == 0:
        return empty_scheme(config, "multicast", seed)
    total = sum(size for _, size in useful)
    layout = tuple((set_of(m), size) for m, size in useful)

    field = Field(least_prime_at_least(lw + total))
    return build_verified(LinearScheme(
        field=field, L=1, K=config.K, qualified=config.qualified, layout=layout,
        A=cauchy(total, lw, field), B=FMatrix.identity(field, total),
        meta={"builder": "multicast", "escalations": 0, "seed": seed}))


def multicast_k4_bw(config: KeyConfig, seed: int = 0) -> LinearScheme:
    """Bandwidth-optimal capacity-achieving scheme for K = 4, one eavesdropper.

    After normalization receiver 1 attains the capacity and the blocks for
    its keys ({1}, {1,2}, {1,3}, {1,2,3}) are sent whole.  The remaining
    blocks depend on how the {2,3} key size compares with l1 + l13 and
    l1 + l12: the larger it is, the more of receivers 2/3's private keys
    can be dropped, down to sending nothing but a truncated {2,3} block.
    """
    norm, perm = normalize_labels(config, "multicast_k4")
    l1 = norm.key_size({1})
    l12 = norm.key_size({1, 2})
    l13 = norm.key_size({1, 3})
    l23 = norm.key_size({2, 3})
    l123 = norm.key_size({1, 2, 3})
    lw = rate_converse(config)
    if lw == 0:
        return empty_scheme(config, "multicast_k4_bw", seed)
    blocks: list[tuple[frozenset[int], int]] = [
        (frozenset({1}), l1), (frozenset({1, 2}), l12),
        (frozenset({1, 3}), l13), (frozenset({1, 2, 3}), l123)]
    if l23 >= l1 + l13:
        case = "pair23 covers both"
        blocks.append((frozenset({2, 3}), l1 + l13))
    elif l23 >= l1 + l12:
        case = "pair23 covers receiver 3"
        blocks.append((frozenset({2}), l1 + l13 - l23))
        blocks.append((frozenset({2, 3}), l23))
    else:
        case = "pair23 short"
        blocks.append((frozenset({2}), l1 + l13 - l23))
        blocks.append((frozenset({3}), l1 + l12 - l23))
        blocks.append((frozenset({2, 3}), l23))
    blocks = [(s, rows) for s, rows in blocks if rows > 0]
    lx = sum(rows for _, rows in blocks)
    layout = tuple((set_of(m), size) for m, size in norm.keys.items()
                   if not m & 0b1000)
    alloc = SegmentAllocator(layout)
    b = np.zeros((lx, alloc.total), dtype=np.int64)
    r = 0
    for subset, rows in blocks:
        for col in alloc.take(subset, rows):
            b[r, col] = 1
            r += 1
    field = Field(least_prime_at_least(lx + lw))
    qualified, layout = in_caller_labels(perm, {1, 2, 3}, layout)
    return build_verified(LinearScheme(
        field=field, L=1, K=4, qualified=qualified, layout=layout,
        A=cauchy(lx, lw, field), B=FMatrix(field, b),
        meta={"builder": "multicast_k4_bw", "case": case, "escalations": 0,
              "seed": seed}))
