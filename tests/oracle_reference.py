"""The counting oracle as it ran before it split a scheme into blocks: every
check counts one slice of the whole state space, all p^(L_W + D_used)
states with the receiver's held key digits fixed.  The block oracle must
return the same report; the tests hold it to this reference."""

import math

import numpy as np

from securegroupcast.fmatrix import mask_columns
from securegroupcast.scheme import OracleReport, TooLargeError, oracle_cap, view_groups


def whole_oracle_verify(scheme, cap=None):
    """oracle_verify with one whole-state check per receiver.  Its
    block_states is the most states any one of those checks stood for."""
    if cap is None:
        cap = oracle_cap()
    p = scheme.p
    b = scheme.B.array
    used = np.flatnonzero(b.any(axis=0)).tolist()
    m = scheme.L_W + len(used)
    if p ** m > cap:
        raise TooLargeError(f"p^(L_W + D_used) = {p}^{m} exceeds the oracle cap {cap}")
    x_forms = np.concatenate([scheme.A.array, b[:, used]], axis=1)
    largest = 0

    def groups(k, message):
        nonlocal largest
        unknown = scheme.column_masks(k)[0]
        held = [scheme.L_W + i for i, c in enumerate(used) if not unknown >> c & 1]
        if message:
            largest = max(largest, p ** (m - len(held)))
        return view_groups(p, x_forms, held, mask_columns(message >> scheme.D))

    correct, leakage, secure = {}, {}, {}
    for k in sorted(scheme.qualified):
        correct[k] = groups(k, scheme.column_masks(k)[1]).decodes()
    for e in sorted(scheme.eavesdroppers):
        view = groups(e, scheme.column_masks(e)[2])
        secure[e] = view.independent()
        leakage[e] = view.leakage_bits()
    return OracleReport(correct=correct, leakage_bits=leakage, secure=secure, states=p ** m,
                        block_states=largest)


def assert_same_report(got, want):
    """Equal verdicts, decode successes and state counts; leakage floats
    within 1e-12 bits, since the block oracle sums per-block leakages."""
    assert (got.correct, got.decode_success, got.secure, got.states) == (
        want.correct, want.decode_success, want.secure, want.states)
    assert got.leakage_bits.keys() == want.leakage_bits.keys()
    for e, bits in want.leakage_bits.items():
        assert math.isclose(got.leakage_bits[e], bits, rel_tol=0.0, abs_tol=1e-12), (e, bits)
    assert got.block_states <= want.block_states


def digit_blocks(x_forms):
    """(rows, digits) of each connected component of the nonzero pattern of
    x_forms, found by walking from digits to the rows nonzero on them and
    back, lowest digit first; a digit no row reaches is a block with no
    rows."""
    nonzero = x_forms != 0
    placed, out = set(), []
    for start in range(x_forms.shape[1]):
        if start in placed:
            continue
        digits, rows, frontier = {start}, set(), [start]
        while frontier:
            for i in np.flatnonzero(nonzero[:, frontier.pop()]).tolist():
                if i not in rows:
                    rows.add(i)
                    new = set(np.flatnonzero(nonzero[i]).tolist()) - digits
                    digits |= new
                    frontier += new
        placed |= digits
        out.append((sorted(rows), sorted(digits)))
    return out
