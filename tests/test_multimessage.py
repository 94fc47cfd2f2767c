import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from securegroupcast import (Field, FMatrix, LinearScheme, oracle_verify, simulate,
                             verify)
from securegroupcast.cli import scheme_to_obj
from securegroupcast.synth import (InfeasibleRates, min_bandwidth, multimessage,
                                   region_violation)
from gf2_reference import assert_same_bytes, multimessage_dense
from state_reference import message_columns, reference_oracle

F2 = Field(2)
OWNERS = (frozenset({1}), frozenset({2}), frozenset({1, 2}))


def region_scheme(sizes, rates, a, b):
    """A three-message scheme with key layout [s1 | s2 | s12] and message
    blocks [W1 | W2 | W12] of the given widths."""
    return LinearScheme(field=F2, L=1, K=3, qualified=frozenset({1, 2}),
                        layout=tuple(zip(OWNERS, sizes)), A=FMatrix(F2, a),
                        B=FMatrix(F2, b), messages=tuple(zip(OWNERS, rates)))


def widths(blocks):
    return tuple(w for _, w in blocks)


def test_boundary_tuple_case1():
    ms = multimessage((1, 1, 1), (1, 1, 1))
    assert ms.L_X == 3
    assert verify(ms).ok
    assert oracle_verify(ms).ok


def test_region_schemes_match_dense_reference():
    """The packed rows against the cell-by-cell assembly on every
    achievable triple with sizes <= 3 and rates <= 6."""
    built = 0
    for sizes in product(range(4), repeat=3):
        for rates in product(range(7), repeat=3):
            if region_violation(sizes, rates) is None:
                assert_same_bytes(multimessage(sizes, rates), multimessage_dense(sizes, rates))
                built += 1
    assert built == 1184


def test_infeasible_by_first_inequality():
    assert region_violation((1, 1, 1), (1, 1, 2)) == "R1 + R12 <= L1 + L12"
    with pytest.raises(InfeasibleRates) as err:
        multimessage((1, 1, 1), (1, 1, 2))
    assert err.value.inequality == "R1 + R12 <= L1 + L12"


def test_case2_bandwidth_and_oracle():
    # common message outgrows the common key: overflow bits ride twice
    sizes, rates = (2, 2, 1), (1, 1, 2)
    ms = multimessage(sizes, rates)
    assert ms.L_X == 1 + 1 + 2 * 2 - 1 == min_bandwidth(sizes, rates)
    rep = verify(ms)
    assert rep.ok
    orep = oracle_verify(ms)
    assert orep.ok
    assert orep.states == 1 << (1 + 1 + 2 + 2 + 2 + 1)   # every key column enters X


def test_private_rate_caps():
    # large common key keeps the sum constraints slack, isolating the caps
    assert region_violation((1, 2, 5), (2, 0, 0)) == "R1 <= L1"
    assert region_violation((1, 2, 5), (0, 3, 0)) == "R2 <= L2"
    assert region_violation((1, 2, 0), (-1, 0, 0)) == "rates must be nonnegative"


def test_zero_rates_trivial_scheme():
    ms = multimessage((1, 1, 1), (0, 0, 0))
    assert ms.L_X == 0
    assert verify(ms).ok


def test_case1_uses_no_private_overflow():
    ms = multimessage((3, 3, 3), (2, 1, 3))
    assert ms.L_X == 2 + 1 + 3
    assert verify(ms).ok
    assert oracle_verify(ms).ok


def test_sizes_and_rates_are_the_block_widths():
    ms = multimessage((3, 2, 1), (2, 1, 2))
    assert (ms.K, ms.qualified) == (3, frozenset({1, 2}))
    assert ms.layout == tuple(zip(OWNERS, (3, 2, 1)))
    assert ms.messages == tuple(zip(OWNERS, (2, 1, 2)))
    want = {1: ((0, 1, 3, 4), (2,)), 2: ((2, 3, 4), (0, 1)), 3: ((), (0, 1, 2, 3, 4))}
    for k, columns in want.items():
        assert message_columns(ms, k) == columns
        assert ms.column_masks(k)[1:] == tuple(sum(1 << (ms.D + c) for c in cols)
                                               for cols in columns)
    assert ms.eavesdroppers == frozenset({1, 2, 3})


def test_leakage_detected_on_sabotage():
    # sending W1 in the clear must show up in both verifiers
    bad = region_scheme((1, 1, 1), (1, 0, 0), [[1]], [[0, 0, 0]])
    rep = verify(bad)
    assert rep.leakage == {1: 0, 2: 1, 3: 1}
    orep = oracle_verify(bad)
    assert orep.leakage_bits[2] == pytest.approx(1.0)
    assert orep.leakage_bits[3] == pytest.approx(1.0)


def test_oracle_drops_unused_key_columns():
    # 3 of the 30 key columns enter X: 2^(3 + 3) states, not 2^33
    ms = multimessage((10, 10, 10), (1, 1, 1))
    orep = oracle_verify(ms)
    assert orep.states == 64 and orep.ok
    assert orep.decode_success == {1: 1.0, 2: 1.0}


def test_single_block_functions_refuse_message_blocks():
    ms = multimessage((1, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError, match="single-message"):
        scheme_to_obj(ms)


def test_message_blocks_must_cover_the_qualified_receivers():
    with pytest.raises(ValueError, match="cover exactly"):
        LinearScheme(field=F2, L=1, K=3, qualified=frozenset({1, 2}), layout=(),
                     A=FMatrix.zeros(F2, 0, 1), B=FMatrix.zeros(F2, 0, 0),
                     messages=((frozenset({1}), 1),))
    with pytest.raises(ValueError, match="widths must sum"):
        LinearScheme(field=F2, L=1, K=3, qualified=frozenset({1}), layout=(),
                     A=FMatrix.zeros(F2, 0, 1), B=FMatrix.zeros(F2, 0, 0),
                     messages=((frozenset({1}), 2),))
    with pytest.raises(ValueError, match="proper subset"):   # nobody is barred from anything
        LinearScheme(field=F2, L=1, K=2, qualified=frozenset({1, 2}), layout=(),
                     A=FMatrix.zeros(F2, 0, 1), B=FMatrix.zeros(F2, 0, 0),
                     messages=((frozenset({1, 2}), 1),))
    # every receiver decodes a block and is barred from another
    both = LinearScheme(field=F2, L=1, K=2, qualified=frozenset({1, 2}), layout=(),
                        A=FMatrix.identity(F2, 2), B=FMatrix.zeros(F2, 2, 0),
                        messages=((frozenset({1}), 1), (frozenset({2}), 1)))
    assert both.eavesdroppers == frozenset({1, 2})
    assert verify(both).leakage == {1: 1, 2: 1}


# -- one verifier, one oracle, one state-by-state reference --------------------

def region_schemes():
    """Every achievable scheme of the region demo's key sizes (1, 1, 1)."""
    return [multimessage((1, 1, 1), rates)
            for rates in product(range(3), range(3), range(4))
            if region_violation((1, 1, 1), rates) is None]


def failing_schemes():
    """W1 in the clear, and a scheme whose receiver 1 misses W12."""
    clear = region_scheme((1, 1, 1), (1, 0, 0), [[1]], [[0, 0, 0]])
    good = multimessage((1, 1, 1), (0, 1, 1))
    # pad W12 with s2, which receiver 1 lacks
    b = good.B.array.copy()
    b[1] = [0, 1, 0]
    blind = region_scheme(widths(good.layout), widths(good.messages), good.A.array, b)
    return [clear, blind]


def assert_matches_reference(scheme):
    """verify, oracle_verify and the state-by-state reference agree; the
    constructed decoder succeeds everywhere exactly where k decodes."""
    correct, success, leakage, secure = reference_oracle(scheme)
    alg, orep = verify(scheme), oracle_verify(scheme)
    assert orep.correct == alg.correct == correct
    assert orep.secure == secure == {e: v == 0 for e, v in alg.leakage.items()}
    assert orep.decode_success == success
    assert success == {k: 1.0 if c else 0.0 for k, c in correct.items()}
    for e, bits in leakage.items():
        assert abs(orep.leakage_bits[e] - bits) < 1e-12
        assert abs(alg.leakage[e] * math.log2(scheme.p) - bits) < 1e-9
    used = sum(1 for j in range(scheme.D) if scheme.B.array[:, j].any())
    assert orep.states == scheme.p ** (scheme.L_W + used)
    assert orep.ok == alg.ok == (all(correct.values()) and all(secure.values()))
    if alg.ok:
        simulate(scheme, seed=1)
    return alg


@pytest.mark.parametrize("ms", region_schemes() + failing_schemes())
def test_oracle_matches_state_by_state_reference(ms):
    assert_matches_reference(ms)


def test_failing_schemes_fail():
    clear, blind = (oracle_verify(ms) for ms in failing_schemes())
    assert not clear.secure[2] and not clear.ok
    assert clear.correct == {1: True, 2: True}
    assert not blind.correct[1] and not blind.ok


def block_scheme(rng, p):
    """A random scheme on K = 3 or 4 receivers with one to three message
    blocks and at most 729 states.  Half are one-time pads, each message
    symbol under a fresh key owned by its block's subset (so they verify),
    and half have random A and B."""
    field = Field(p)
    k = rng.randint(3, 4)
    members = frozenset(range(1, k + 1))
    cap = 3 if p == 3 else 4   # message symbols; as many key symbols again at most
    while True:
        blocks, lw = [], 0
        for _ in range(rng.randint(1, 3)):
            width = rng.randint(0, min(2, cap - lw))
            blocks.append((frozenset(rng.sample(sorted(members), rng.randint(1, k))), width))
            lw += width
        if any(subset != members for subset, _ in blocks):
            break
    qualified = frozenset().union(*(subset for subset, _ in blocks))
    owners = [subset for subset, w in blocks for _ in range(w)]
    if rng.random() < 0.5:
        layout = tuple((subset, 1) for subset in owners)
        a = np.eye(lw, dtype=np.int64)
        b = np.eye(lw, dtype=np.int64) * rng.randrange(1, p)
    else:
        d = rng.randint(0, 2 * cap - lw)
        layout = tuple((frozenset(rng.sample(sorted(members), rng.randint(1, k))), 1)
                       for _ in range(d))
        lx = rng.randint(0, 3)
        a = np.array([[rng.randrange(p) for _ in range(lw)] for _ in range(lx)],
                     dtype=np.int64).reshape(lx, lw)
        b = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(lx)],
                     dtype=np.int64).reshape(lx, d)
    return LinearScheme(field=field, L=1, K=k, qualified=qualified, layout=layout,
                        A=FMatrix(field, a), B=FMatrix(field, b), messages=tuple(blocks))


@pytest.mark.parametrize("p", [2, 3])
def test_random_block_layouts_match_reference(p):
    rng = random.Random(p * 104729)
    seen = Counter()
    for _ in range(60):
        scheme = block_scheme(rng, p)
        alg = assert_matches_reference(scheme)
        seen["blocks"] += len(scheme.messages) > 1
        seen["both roles"] += bool(scheme.qualified & scheme.eavesdroppers)
        seen["ok"] += alg.ok
        seen["leaks"] += any(alg.leakage.values())
        seen["undecodable"] += not all(alg.correct.values())
    assert all(seen[key] for key in ("blocks", "both roles", "ok", "leaks", "undecodable")), seen
