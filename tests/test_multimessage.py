import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from securegroupcast.fmatrix import FMatrix
from securegroupcast.gf import Field
from securegroupcast.synth import (InfeasibleRates, min_bandwidth, multimessage,
                                   oracle_multimessage, region_violation,
                                   verify_multimessage)
from securegroupcast.synth.multimessage import MultiMessageScheme

F2 = Field(2)


def test_boundary_tuple_case1():
    ms = multimessage((1, 1, 1), (1, 1, 1))
    assert ms.bandwidth == 3
    assert verify_multimessage(ms).ok
    assert oracle_multimessage(ms).ok


def test_infeasible_by_first_inequality():
    assert region_violation((1, 1, 1), (1, 1, 2)) == "R1 + R12 <= L1 + L12"
    with pytest.raises(InfeasibleRates) as err:
        multimessage((1, 1, 1), (1, 1, 2))
    assert err.value.inequality == "R1 + R12 <= L1 + L12"


def test_case2_bandwidth_and_oracle():
    # common message outgrows the common key: overflow bits ride twice
    sizes, rates = (2, 2, 1), (1, 1, 2)
    ms = multimessage(sizes, rates)
    assert ms.bandwidth == 1 + 1 + 2 * 2 - 1 == min_bandwidth(sizes, rates)
    rep = verify_multimessage(ms)
    assert rep.ok
    orep = oracle_multimessage(ms)
    assert orep.ok
    assert orep.states == 1 << (1 + 1 + 2 + 2 + 2 + 1)


def test_private_rate_caps():
    # large common key keeps the sum constraints slack, isolating the caps
    assert region_violation((1, 2, 5), (2, 0, 0)) == "R1 <= L1"
    assert region_violation((1, 2, 5), (0, 3, 0)) == "R2 <= L2"
    assert region_violation((1, 2, 0), (-1, 0, 0)) == "rates must be nonnegative"


def test_zero_rates_trivial_scheme():
    ms = multimessage((1, 1, 1), (0, 0, 0))
    assert ms.bandwidth == 0
    assert verify_multimessage(ms).ok


def test_case1_uses_no_private_overflow():
    ms = multimessage((3, 3, 3), (2, 1, 3))
    assert ms.bandwidth == 2 + 1 + 3
    assert verify_multimessage(ms).ok
    assert oracle_multimessage(ms).ok


def test_leakage_detected_on_sabotage():
    # sending W1 in the clear must show up in both verifiers
    import numpy as np
    from securegroupcast.fmatrix import FMatrix
    from securegroupcast.gf import Field
    from securegroupcast.synth.multimessage import MultiMessageScheme
    f2 = Field(2)
    bad = MultiMessageScheme(
        sizes=(1, 1, 1), rates=(1, 0, 0),
        A1=FMatrix(f2, np.array([[1]])), A2=FMatrix.zeros(f2, 1, 0),
        A12=FMatrix.zeros(f2, 1, 0), B=FMatrix.zeros(f2, 1, 3))
    rep = verify_multimessage(bad)
    assert rep.leakage["W1->2"] == 1
    assert rep.leakage["W1W2W12->3"] == 1
    orep = oracle_multimessage(bad)
    assert orep.leakage["W1->2"] == pytest.approx(1.0)


# -- oracle against a state-by-state reference --------------------------------

def reference_oracle(ms):
    """Decode verdicts and (independent, leakage bits) per constraint from
    every (W1, W2, W12, S) state, evaluated in Python integers."""
    r1, r2, r12 = ms.rates
    a = np.concatenate([ms.A1.array, ms.A2.array, ms.A12.array], axis=1).tolist()
    b = ms.B.array.tolist()
    queries = {  # name -> (receiver whose view, message digits of (w1, w2, w12))
        1: (1, lambda w1, w2, w12: w1 + w12), 2: (2, lambda w1, w2, w12: w2 + w12),
        "W2->1": (1, lambda w1, w2, w12: w2), "W1->2": (2, lambda w1, w2, w12: w1),
        "W1W2W12->3": (3, lambda w1, w2, w12: w1 + w2 + w12)}
    groups = {name: {} for name in queries}
    lw = r1 + r2 + r12
    for state in product(range(2), repeat=lw + ms.B.cols):
        w, s = state[:lw], state[lw:]
        x = tuple((sum(c * v for c, v in zip(ar, w)) + sum(c * v for c, v in zip(br, s))) % 2
                  for ar, br in zip(a, b))
        parts = w[:r1], w[r1:r1 + r2], w[r1 + r2:]
        for name, (receiver, message) in queries.items():
            view = x + tuple(s[c] for c in ms.key_columns(receiver))
            groups[name].setdefault(view, Counter())[message(*parts)] += 1
    out = {}
    n = 2 ** (lw + ms.B.cols)
    for name, (receiver, message) in queries.items():
        q = 2 ** len(message(*parts))
        g = groups[name].values()
        h_view = -sum(sum(c.values()) / n * math.log2(sum(c.values()) / n) for c in g)
        h_joint = -sum(v / n * math.log2(v / n) for c in g for v in c.values())
        out[name] = (all(len(c) == 1 for c in g),
                     all(len(c) == q and len(set(c.values())) == 1 for c in g),
                     math.log2(q) + h_view - h_joint)
    return out


def region_schemes():
    """Every achievable scheme of the region demo's key sizes (1, 1, 1)."""
    return [multimessage((1, 1, 1), rates)
            for rates in product(range(3), range(3), range(4))
            if region_violation((1, 1, 1), rates) is None]


def failing_schemes():
    """W1 in the clear, and a scheme whose receiver 1 misses W12."""
    clear = MultiMessageScheme(
        sizes=(1, 1, 1), rates=(1, 0, 0), A1=FMatrix(F2, [[1]]), A2=FMatrix.zeros(F2, 1, 0),
        A12=FMatrix.zeros(F2, 1, 0), B=FMatrix.zeros(F2, 1, 3))
    good = multimessage((1, 1, 1), (0, 1, 1))
    # pad W12 with s2, which receiver 1 lacks
    b = good.B.array.copy()
    b[1] = [0, 1, 0]
    blind = MultiMessageScheme(sizes=good.sizes, rates=good.rates, A1=good.A1,
                               A2=good.A2, A12=good.A12, B=FMatrix(F2, b))
    return [clear, blind]


@pytest.mark.parametrize("ms", region_schemes() + failing_schemes())
def test_oracle_matches_state_by_state_reference(ms):
    ref = reference_oracle(ms)
    orep = oracle_multimessage(ms)
    assert orep.correct == {k: ref[k][0] for k in (1, 2)}
    assert orep.secure == {name: ref[name][1] for name in orep.leakage}
    for name, bits in orep.leakage.items():
        assert abs(bits - ref[name][2]) < 1e-12
    alg = verify_multimessage(ms)
    assert alg.correct == orep.correct and alg.secure == orep.secure
    assert orep.ok == (all(orep.correct.values()) and all(orep.secure.values()))


def test_failing_schemes_fail():
    clear, blind = (oracle_multimessage(ms) for ms in failing_schemes())
    assert not clear.secure["W1->2"] and not clear.ok
    assert clear.correct == {1: True, 2: True}
    assert not blind.correct[1] and not blind.ok
