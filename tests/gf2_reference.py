"""The aligned 2-of-5 and three-message region builders' assembly one
matrix cell at a time, as it was written before both stamped packed
[B | A] rows: dense int64 arrays filled index by index.  instance_2of5
and multimessage must return the same schemes, byte for byte; the tests
hold them to these references."""

import numpy as np

from securegroupcast import FMatrix, Field, LinearScheme
from securegroupcast.bounds import ALIGNED_2OF5_KEYS
from securegroupcast.synth._common import in_caller_labels
from securegroupcast.synth.instance25 import (_BASE_ROWS, BLOCKS_PER_COPY,
                                              MSG_BITS_PER_COPY, TX_BITS_PER_COPY)

F2 = Field(2)
OWNERS = (frozenset({1}), frozenset({2}), frozenset({1, 2}))


def instance_2of5_dense(ell, seed, perm):
    """The unverified aligned 2-of-5 scheme with keys of ell, for a caller
    whose labels perm maps into those of ALIGNED_2OF5_KEYS."""
    width = BLOCKS_PER_COPY * ell
    qualified, layout = in_caller_labels(perm, {1, 2}, [(s, width) for s in ALIGNED_2OF5_KEYS])
    meta = {"builder": "instance_2of5", "key_size": ell, "seed": seed, "escalations": 0}
    if ell == 0:
        return LinearScheme.empty(5, qualified, L=BLOCKS_PER_COPY, meta=meta)
    lw = MSG_BITS_PER_COPY * ell
    lx = TX_BITS_PER_COPY * ell
    a = np.zeros((lx, lw), dtype=np.int64)
    b = np.zeros((lx, len(ALIGNED_2OF5_KEYS) * width), dtype=np.int64)
    for copy in range(ell):
        r0 = TX_BITS_PER_COPY * copy
        m0 = MSG_BITS_PER_COPY * copy
        for r, (msg, pads) in enumerate(_BASE_ROWS):
            a[r0 + r, m0 + msg] = 1
            for key_idx, block in pads:
                b[r0 + r, key_idx * width + BLOCKS_PER_COPY * copy + block] = 1
    return LinearScheme(field=F2, L=BLOCKS_PER_COPY, K=5, qualified=qualified,
                        layout=layout, A=FMatrix(F2, a), B=FMatrix(F2, b), meta=meta)


def multimessage_dense(sizes, rates):
    """The region scheme of an achievable rate triple, [s1 | s2 | s12] and
    [W1 | W2 | W12] laid out as multimessage lays them out."""
    l1, l2, l12 = sizes
    r1, r2, r12 = rates
    w12, overflow = r1 + r2, max(0, r12 - l12)
    lx = r1 + r2 + r12 + overflow
    rows = ([(i, i) for i in range(r1)]
            + [(r1 + i, l1 + i) for i in range(r2)]
            + [(w12 + i, l1 + l2 + i) for i in range(min(r12, l12))]
            + [(w12 + l12 + i, r1 + i) for i in range(overflow)]
            + [(w12 + l12 + i, l1 + r2 + i) for i in range(overflow)])
    a = np.zeros((lx, r1 + r2 + r12), dtype=np.int64)
    b = np.zeros((lx, l1 + l2 + l12), dtype=np.int64)
    for row, (msg, key) in enumerate(rows):
        a[row, msg] = b[row, key] = 1
    return LinearScheme(field=F2, L=1, K=3, qualified=frozenset({1, 2}),
                        layout=tuple(zip(OWNERS, sizes)), A=FMatrix(F2, a),
                        B=FMatrix(F2, b), meta={"builder": "multimessage"},
                        messages=tuple(zip(OWNERS, rates)))


def assert_same_bytes(got, want):
    """Field, shapes, matrix bytes and dtypes, labels, layout, message
    blocks and meta (in order) all equal."""
    assert (got.p, got.L, got.K) == (want.p, want.L, want.K)
    for g, w in ((got.A.array, want.A.array), (got.B.array, want.B.array)):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
    assert (got.qualified, got.layout, got.messages) == (want.qualified, want.layout,
                                                         want.messages)
    assert list(got.meta.items()) == list(want.meta.items())
