"""Three-message groupcast to two receivers with one outside eavesdropper.

Receiver 1 holds keys (s1, s12) and must learn messages W1 and W12 but
nothing about W2; receiver 2 holds (s2, s12) and must learn W2 and W12 but
nothing about W1; receiver 3 holds nothing and must learn nothing at all.
With key sizes (L1, L2, L12), an integer rate triple (R1, R2, R12) is
achievable iff

    R1 + R12 <= L1 + L12        R1 <= L1
    R2 + R12 <= L2 + L12        R2 <= L2      (all rates >= 0)

and the minimum bandwidth is R1 + R2 + max(R12, 2*R12 - L12): once the
common message outgrows the common key, every extra common bit must be
one-time-padded separately for each receiver out of their private keys,
costing two transmit bits instead of one.

Schemes are bit-slicing over GF(2).  When R12 <= L12 each message rides
its own key prefix.  Otherwise the common overflow W12[L12:] is sent
twice, once under fresh s1 bits and once under fresh s2 bits.  Each is a
K = 3 LinearScheme with message blocks W1, W2, W12 owned by {1}, {2} and
{1, 2}, so the one verifier and the one oracle of `scheme` check it.
"""

from __future__ import annotations

from typing import Optional

from ..scheme import LinearScheme
from ._common import F2, check_cells, gf2_matrices

_OWNERS = (frozenset({1}), frozenset({2}), frozenset({1, 2}))


class InfeasibleRates(ValueError):
    """The rate triple lies outside the achievable region."""

    def __init__(self, inequality: str):
        super().__init__(f"rate region violated: {inequality}")
        self.inequality = inequality


def region_violation(sizes: tuple[int, int, int],
                     rates: tuple[int, int, int]) -> Optional[str]:
    """The first violated region inequality, or None when achievable."""
    l1, l2, l12 = sizes
    r1, r2, r12 = rates
    if min(r1, r2, r12) < 0:
        return "rates must be nonnegative"
    if r1 + r12 > l1 + l12:
        return "R1 + R12 <= L1 + L12"
    if r2 + r12 > l2 + l12:
        return "R2 + R12 <= L2 + L12"
    if r1 > l1:
        return "R1 <= L1"
    if r2 > l2:
        return "R2 <= L2"
    return None


def min_bandwidth(sizes: tuple[int, int, int], rates: tuple[int, int, int]) -> int:
    r1, r2, r12 = rates
    return r1 + r2 + max(r12, 2 * r12 - sizes[2])


def multimessage(sizes: tuple[int, int, int],
                 rates: tuple[int, int, int]) -> LinearScheme:
    """Build the bit-slicing scheme for an achievable integer rate triple.

    The key vector is laid out as [s1 | s2 | s12] with widths `sizes`, and
    the message vector as [W1 | W2 | W12] with widths `rates`.
    """
    violated = region_violation(sizes, rates)
    if violated is not None:
        raise InfeasibleRates(violated)
    l1, l2, l12 = sizes
    r1, r2, r12 = rates
    w12, overflow = r1 + r2, max(0, r12 - l12)   # first column of W12; common overflow
    d, lw = l1 + l2 + l12, r1 + r2 + r12   # widths of B and A
    lx = lw + overflow
    check_cells((lx, lw), (lx, d))
    # each transmitted bit is one message bit plus one key bit: (A column, B column)
    rows = ([(i, i) for i in range(r1)]                                   # W1[i] + s1[i]
            + [(r1 + i, l1 + i) for i in range(r2)]                       # W2[i] + s2[i]
            + [(w12 + i, l1 + l2 + i) for i in range(min(r12, l12))]      # W12[i] + s12[i]
            + [(w12 + l12 + i, r1 + i) for i in range(overflow)]          # under fresh s1 bits
            + [(w12 + l12 + i, l1 + r2 + i) for i in range(overflow)])    # and fresh s2 bits
    a, b = gf2_matrices([1 << d + msg | 1 << key for msg, key in rows], d, d + lw)
    return LinearScheme(field=F2, L=1, K=3, qualified=frozenset({1, 2}),
                        layout=tuple(zip(_OWNERS, sizes)), A=a, B=b,
                        meta={"builder": "multimessage"},
                        messages=tuple(zip(_OWNERS, rates)))
