"""Scheme builders for a single eavesdropper (all other receivers qualified).

Dual of the unicast construction: instead of mixing key symbols, mix
message symbols.  A builder chooses which key symbols to send, as an
ordered list of (key subset, count) pairs over keys that lack the
eavesdropper, and one assembly sends one row per chosen symbol: a Cauchy
row of the message padded by that symbol.  Security is free (the
eavesdropper's keys never appear) and a qualified receiver that holds the
pads of L_W rows decodes, as any L_W rows of a Cauchy matrix are
independent.  The bandwidth is the number of symbols sent.

The plain builder sends every key symbol the eavesdropper lacks and is
capacity-optimal at bandwidth sum-of-key-sizes.  For K = 4 the
bandwidth-optimal variant trims redundancy: in normalized labels, where
receiver 1 has the smallest secure key entropy, receiver 1's four keys
are sent whole and the {2}, {3}, {2,3} counts follow from how the pair
key compares with receiver 1's private and pair keys.  Both builders
write the scheme in the caller's labels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..fmatrix import FMatrix, cauchy
from ..gf import Field, least_prime_at_least
from ..keyspace import KeyConfig, WrongShapeError, normalize_labels, set_of
from ..bounds import rate_converse
from ..scheme import LinearScheme
from ._common import (SegmentAllocator, build_verified, check_cells, empty_scheme,
                      in_caller_labels)

Pairs = Sequence[tuple[frozenset[int], int]]


def _padded_cauchy(config: KeyConfig, layout: Pairs, sent: Pairs, lw: int,
                   meta: dict) -> LinearScheme:
    """One row per sent key symbol: B selects the symbol and
    A = cauchy(rows, lw) over GF(least prime >= rows + lw).  The layout
    and the sent (subset, count) pairs are in the caller's labels."""
    rows = sum(count for _, count in sent)
    alloc = SegmentAllocator(layout)
    check_cells((rows, alloc.total), (rows, lw))
    b = np.zeros((rows, alloc.total), dtype=np.int64)
    r = 0
    for subset, count in sent:
        b[np.arange(r, r + count), alloc.take(subset, count)] = 1
        r += count
    field = Field(least_prime_at_least(rows + lw))
    return build_verified(LinearScheme(
        field=field, L=1, K=config.K, qualified=config.qualified, layout=tuple(layout),
        A=cauchy(rows, lw, field), B=FMatrix._reduced(field, b), meta=meta))


def multicast(config: KeyConfig, seed: int = 0) -> LinearScheme:
    """Capacity-achieving scheme for |qualified| = K - 1 (any K)."""
    if config.N != config.K - 1:
        raise WrongShapeError(
            f"multicast needs exactly one eavesdropper, got {config.K - config.N}")
    lw = rate_converse(config)
    if lw == 0:
        return empty_scheme(config, "multicast", seed)
    layout = [(set_of(m), size) for m, size in config.keys.items()
              if not m & ~config.qualified_mask]
    return _padded_cauchy(config, layout, layout, lw,
                          {"builder": "multicast", "escalations": 0, "seed": seed})


def multicast_k4_bw(config: KeyConfig, seed: int = 0) -> LinearScheme:
    """Bandwidth-optimal capacity-achieving scheme for K = 4, one eavesdropper.

    After normalization receiver 1 attains the capacity and its keys
    ({1}, {1,2}, {1,3}, {1,2,3}) are sent whole.  Then l1 + l13 - l23
    symbols of {2}, l1 + l12 - l23 of {3} and min(l23, l1 + l13) of {2,3}
    are sent, counts <= 0 dropped: the larger the {2,3} key, the more of
    receivers 2/3's private keys it replaces.
    """
    perm = normalize_labels(config, "multicast_k4")
    norm = config.relabeled(perm)
    lw = rate_converse(config)
    if lw == 0:
        return empty_scheme(config, "multicast_k4_bw", seed)
    l1, l12, l13, l23 = (norm.key_size(s) for s in ({1}, {1, 2}, {1, 3}, {2, 3}))
    case = ("pair23 covers both" if l23 >= l1 + l13
            else "pair23 covers receiver 3" if l23 >= l1 + l12 else "pair23 short")
    layout = [(set_of(m), size) for m, size in norm.keys.items() if not m & 0b1000]
    trimmed = [(frozenset({2}), l1 + l13 - l23), (frozenset({3}), l1 + l12 - l23),
               (frozenset({2, 3}), min(l23, l1 + l13))]
    sent = ([(s, n) for s, n in layout if 1 in s]
            + [(s, n) for s, n in trimmed if n > 0])
    _, layout = in_caller_labels(perm, (), layout)
    _, sent = in_caller_labels(perm, (), sent)
    return _padded_cauchy(config, layout, sent, lw,
                          {"builder": "multicast_k4_bw", "case": case, "escalations": 0,
                           "seed": seed})
