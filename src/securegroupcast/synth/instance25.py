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
and 8 the same way.  Larger key sizes take fresh-key copies of the base.
synthesize computes in these labels and writes the scheme in the caller's.
"""

from __future__ import annotations

import numpy as np

from ..bounds import ALIGNED_2OF5_KEYS
from ..fmatrix import FMatrix
from ..gf import Field
from ..scheme import LinearScheme
from ._common import build_verified, check_cells, in_caller_labels

_F2 = Field(2)

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


def instance_2of5(key_size: int, seed: int = 0) -> LinearScheme:
    """Verified scheme for the aligned topology with all five keys of
    `key_size`, in the labels of ALIGNED_2OF5_KEYS.

    Emits key_size fresh-key copies of the base scheme: 5 * key_size
    message bits in 10 * key_size transmit bits over L = 3 blocks.
    """
    return _instance_2of5(key_size, seed, {k: k for k in range(1, 6)})


def _instance_2of5(ell: int, seed: int, perm: dict[int, int]) -> LinearScheme:
    """instance_2of5's scheme for a caller whose labels perm maps into
    those of ALIGNED_2OF5_KEYS, written in the caller's labels."""
    if ell < 0:
        raise ValueError("key size must be nonnegative")
    width = BLOCKS_PER_COPY * ell
    qualified, layout = in_caller_labels(perm, {1, 2}, [(s, width) for s in ALIGNED_2OF5_KEYS])
    meta = {"builder": "instance_2of5", "key_size": ell, "seed": seed, "escalations": 0}
    if ell == 0:
        return build_verified(LinearScheme.empty(5, qualified, L=BLOCKS_PER_COPY, meta=meta))
    lw = MSG_BITS_PER_COPY * ell
    lx = TX_BITS_PER_COPY * ell
    check_cells((lx, lw), (lx, len(ALIGNED_2OF5_KEYS) * width))
    a = np.zeros((lx, lw), dtype=np.int64)
    b = np.zeros((lx, len(ALIGNED_2OF5_KEYS) * width), dtype=np.int64)
    for copy in range(ell):
        r0 = TX_BITS_PER_COPY * copy
        m0 = MSG_BITS_PER_COPY * copy
        for r, (msg, pads) in enumerate(_BASE_ROWS):
            a[r0 + r, m0 + msg] = 1
            for key_idx, block in pads:
                b[r0 + r, key_idx * width + BLOCKS_PER_COPY * copy + block] = 1
    return build_verified(LinearScheme(
        field=_F2, L=BLOCKS_PER_COPY, K=5, qualified=qualified, layout=layout,
        A=FMatrix(_F2, a), B=FMatrix(_F2, b), meta=meta))
