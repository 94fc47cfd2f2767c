"""Vector-linear scheme for the aligned 2-of-5 topology.

Five receivers, qualified pair {1, 2}, five equal-size keys:
a = s{1}, b = s{123}, c = s{145}, d = s{24}, e = s{25}.  No one-shot
scheme reaches the capacity here; the base scheme codes over L = 3 key
blocks (so every key contributes 3 bits) and sends 5 message bits in 10
transmit bits, for rate 5/3 and bandwidth 10/3 per block.

Base transmit rows over GF(2) (key bit x_j = block j of key x):

    x1  = W1 + b1 + c1        x6  = W1 + b1 + d1
    x2  = W4 + b2 + c2        x7  = W2 + b3 + d2
    x3  = W2 + a1             x8  = W4 + b2 + e1
    x4  = W3 + a2             x9  = W3 + d3 + e2
    x5  = W5 + a3 + c3        x10 = W5 + b3 + e3

Receiver 1 decodes from rows 1-5 (knows a, b, c), receiver 2 from rows
6-10 (knows b, d, e).  Eavesdropper 3 knows only b, and every residual row
still carries a, c, d or e.  Eavesdropper 4 knows c, d; its residual view
repeats W1 + b1 in rows 1 and 6: the repeat is aligned, the same message
combination under the same noise, so the 10 rows span only 9 dimensions
and nothing leaks.  Eavesdropper 5 (knows c, e) aligns W4 + b2 in rows 2
and 8 the same way.  Larger key sizes take fresh-key copies of the base:
copy c of a base row, a packed [B | A] row, has its key bits shifted by 3c
and its message bit by 5c, and gf2_matrices assembles A and B as it does
for every GF(2) builder.  synthesize computes in these labels and writes
the scheme in the caller's.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..bounds import ALIGNED_2OF5_KEYS
from ..scheme import LinearScheme
from ._common import F2, build_verified, check_cells, gf2_matrices, in_caller_labels

# (message bit, [(key index, block)]) per transmit row; key indices follow
# the a..e order of ALIGNED_2OF5_KEYS and blocks run 0..2.
_BASE_ROWS: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (
    (0, ((1, 0), (2, 0))),   # W1 + b1 + c1
    (3, ((1, 1), (2, 1))),   # W4 + b2 + c2
    (1, ((0, 0),)),          # W2 + a1
    (2, ((0, 1),)),          # W3 + a2
    (4, ((0, 2), (2, 2))),   # W5 + a3 + c3
    (0, ((1, 0), (3, 0))),   # W1 + b1 + d1
    (1, ((1, 2), (3, 1))),   # W2 + b3 + d2
    (3, ((1, 1), (4, 0))),   # W4 + b2 + e1
    (2, ((3, 2), (4, 1))),   # W3 + d3 + e2
    (4, ((1, 2), (4, 2))),   # W5 + b3 + e3
)

BLOCKS_PER_COPY = 3
MSG_BITS_PER_COPY = 5
TX_BITS_PER_COPY = 10


def instance_2of5(key_size: int, seed: int = 0,
                  perm: Optional[Mapping[int, int]] = None) -> LinearScheme:
    """Verified scheme for the aligned topology with all five keys of
    `key_size`, for a caller whose labels perm maps into those of
    ALIGNED_2OF5_KEYS (the identity when None), written in the caller's
    labels.

    Emits key_size fresh-key copies of the base scheme: 5 * key_size
    message bits in 10 * key_size transmit bits over L = 3 blocks.
    """
    if key_size < 0:
        raise ValueError("key size must be nonnegative")
    if perm is None:
        perm = {k: k for k in range(1, 6)}
    width = BLOCKS_PER_COPY * key_size
    qualified, layout = in_caller_labels(perm, {1, 2}, [(s, width) for s in ALIGNED_2OF5_KEYS])
    meta = {"builder": "instance_2of5", "key_size": key_size, "seed": seed, "escalations": 0}
    if key_size == 0:
        return build_verified(LinearScheme.empty(5, qualified, L=BLOCKS_PER_COPY, meta=meta))
    d = len(ALIGNED_2OF5_KEYS) * width
    lw = MSG_BITS_PER_COPY * key_size
    lx = TX_BITS_PER_COPY * key_size
    check_cells((lx, lw), (lx, d))
    # copy 0 of each base row as (key bits, message bit) of [B | A]
    base = [(sum(1 << key_idx * width + block for key_idx, block in pads), 1 << d + msg)
            for msg, pads in _BASE_ROWS]
    rows = [keys << BLOCKS_PER_COPY * c | msg << MSG_BITS_PER_COPY * c
            for c in range(key_size) for keys, msg in base]
    a, b = gf2_matrices(rows, d, d + lw)
    return build_verified(LinearScheme(
        field=F2, L=BLOCKS_PER_COPY, K=5, qualified=qualified, layout=layout,
        A=a, B=b, meta=meta))
