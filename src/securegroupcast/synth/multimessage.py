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
twice, once under fresh s1 bits and once under fresh s2 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..fmatrix import ColumnRanks, FMatrix, hstack
from ..gf import Field
from ..scheme import TooLargeError, oracle_cap, view_groups

_F2 = Field(2)

MESSAGES = ("W1", "W2", "W12")


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


@dataclass(frozen=True)
class MultiMessageScheme:
    """X = A1 @ W1 + A2 @ W2 + A12 @ W12 + B @ S over GF(2).

    The key vector S is laid out as [s1 | s2 | s12] with widths `sizes`.
    """

    sizes: tuple[int, int, int]
    rates: tuple[int, int, int]
    A1: FMatrix
    A2: FMatrix
    A12: FMatrix
    B: FMatrix

    @property
    def L_X(self) -> int:
        return self.B.rows

    @property
    def bandwidth(self) -> int:
        return self.L_X

    def key_columns(self, receiver: int) -> list[int]:
        l1, l2, l12 = self.sizes
        if receiver == 1:
            return list(range(0, l1)) + list(range(l1 + l2, l1 + l2 + l12))
        if receiver == 2:
            return list(range(l1, l1 + l2 + l12))
        if receiver == 3:
            return []
        raise ValueError(f"no receiver {receiver}")


def multimessage(sizes: tuple[int, int, int],
                 rates: tuple[int, int, int]) -> MultiMessageScheme:
    """Build the bit-slicing scheme for an achievable integer rate triple."""
    violated = region_violation(sizes, rates)
    if violated is not None:
        raise InfeasibleRates(violated)
    l1, l2, l12 = sizes
    r1, r2, r12 = rates
    overflow = max(0, r12 - l12)
    lx = r1 + r2 + min(r12, l12) + 2 * overflow
    d = l1 + l2 + l12
    a1 = np.zeros((lx, r1), dtype=np.int64)
    a2 = np.zeros((lx, r2), dtype=np.int64)
    a12 = np.zeros((lx, r12), dtype=np.int64)
    b = np.zeros((lx, d), dtype=np.int64)
    row = 0
    for i in range(r1):                      # W1[i] + s1[i]
        a1[row, i] = 1
        b[row, i] = 1
        row += 1
    for i in range(r2):                      # W2[i] + s2[i]
        a2[row, i] = 1
        b[row, l1 + i] = 1
        row += 1
    for i in range(min(r12, l12)):           # W12[i] + s12[i]
        a12[row, i] = 1
        b[row, l1 + l2 + i] = 1
        row += 1
    for i in range(overflow):                # common overflow, padded twice
        a12[row, l12 + i] = 1
        b[row, r1 + i] = 1                   # fresh s1 bits
        row += 1
    for i in range(overflow):
        a12[row, l12 + i] = 1
        b[row, l1 + r2 + i] = 1              # fresh s2 bits
        row += 1
    return MultiMessageScheme(sizes=tuple(sizes), rates=tuple(rates),
                              A1=FMatrix(_F2, a1), A2=FMatrix(_F2, a2),
                              A12=FMatrix(_F2, a12), B=FMatrix(_F2, b))


@dataclass(frozen=True)
class MultiMessageReport:
    """Per-receiver decode verdicts and per-constraint leakage in symbols
    (algebraic) or bits (oracle); `secure` holds the exact zero-leakage
    verdicts."""

    correct: Mapping[int, bool]
    leakage: Mapping[str, float]
    secure: Mapping[str, bool]
    states: Optional[int] = None

    @property
    def ok(self) -> bool:
        return all(self.correct.values()) and all(self.secure.values())


def verify_multimessage(ms: MultiMessageScheme) -> MultiMessageReport:
    """Exact rank-based decode and leakage tests for all three constraints.

    Every test compares rank(M[:, noise]) with rank(M[:, noise + target])
    for column lists of one matrix M = [B | A1 | A2 | A12], all read off a
    single echelon form of M.
    """
    d, (r1, r2, r12) = ms.B.cols, ms.rates
    a1 = list(range(d, d + r1))
    a2 = list(range(d + r1, d + r1 + r2))
    a12 = list(range(d + r1 + r2, d + r1 + r2 + r12))
    m = ColumnRanks(hstack([ms.B, ms.A1, ms.A2, ms.A12]))

    def unknown(receiver):
        held = set(ms.key_columns(receiver))
        return [j for j in range(d) if j not in held]

    def gain(noise, target):
        base, total = m.ranks(noise, target)
        return total - base

    # Receiver 1 decodes (W1, W12) despite unknown W2 and s2; receiver 2
    # likewise (W2, W12).
    correct = {1: gain(a2 + unknown(1), a1 + a12) == r1 + r12,
               2: gain(a1 + unknown(2), a2 + a12) == r2 + r12}
    leakage = {"W2->1": gain(a1 + a12 + unknown(1), a2),
               "W1->2": gain(a2 + a12 + unknown(2), a1),
               "W1W2W12->3": gain(list(range(d)), a1 + a2 + a12)}
    return MultiMessageReport(correct=correct, leakage=leakage,
                              secure={key: v == 0 for key, v in leakage.items()})


def oracle_multimessage(ms: MultiMessageScheme,
                        cap: Optional[int] = None) -> MultiMessageReport:
    """Brute-force enumeration of the (W1, W2, W12, S) states.

    Counts what each receiver sees, over the state digits it does not hold
    (`view_groups`), and reports exact mutual information in bits for the
    three security constraints and exact decodability for the two
    qualified receivers.
    """
    if cap is None:
        cap = oracle_cap()
    r1, r2, r12 = ms.rates
    m = r1 + r2 + r12 + sum(ms.sizes)
    states = 1 << m
    if states > cap:
        raise TooLargeError(f"2^{m} states exceeds the oracle cap {cap}")
    # state digits W1, W12, W2, then s1, s2, s12: every message set below
    # is one run of digits
    x_forms = np.concatenate(
        [ms.A1.array, ms.A12.array, ms.A2.array, ms.B.array], axis=1)
    first_key = r1 + r12 + r2

    def groups(receiver, lo, hi):
        held = [first_key + c for c in ms.key_columns(receiver)]
        return view_groups(2, x_forms, held, lo, hi)

    correct = {
        1: groups(1, 0, r1 + r12).decodes(),
        2: groups(2, r1, r1 + r12 + r2).decodes(),
    }
    eavesdropping = {
        "W2->1": groups(1, r1 + r12, r1 + r12 + r2),
        "W1->2": groups(2, 0, r1),
        "W1W2W12->3": groups(3, 0, r1 + r12 + r2),
    }
    return MultiMessageReport(
        correct=correct,
        leakage={key: g.leakage_bits() for key, g in eavesdropping.items()},
        secure={key: g.independent() for key, g in eavesdropping.items()},
        states=states)
