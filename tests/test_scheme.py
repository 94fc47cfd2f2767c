import copy
import json
import math
import operator
import pickle
import random
import time
from collections import Counter

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from securegroupcast import (DecodeFailureError, Field, FMatrix, KeyConfig, LinearScheme,
                             NotDecodableError, TooLargeError, decoder_for,
                             hstack, oracle_verify, prefix_ranks, rank, rref,
                             simulate, synthesize, verify, verify_correctness,
                             verify_security)
import securegroupcast.fmatrix as fmatrix_module
import securegroupcast.scheme as scheme_module
from securegroupcast.scheme import state_code, view_groups
from securegroupcast.synth import component_instance
from securegroupcast.synth.multimessage import multimessage
from oracle_reference import assert_same_report, digit_blocks, whole_oracle_verify
from state_reference import (group_by_view, key_columns, random_scheme, reference_oracle,
                             reference_verdicts)

F2 = Field(2)
F3 = Field(3)
LARGE_P = 1099511627791   # (p - 1)^2 > 2^63 - 1


def otp(field=F2, key_subset=frozenset({1})):
    """X = W + s with one key symbol owned by `key_subset`."""
    return LinearScheme(field=field, L=1, K=2, qualified=frozenset({1}),
                        layout=((key_subset, 1),),
                        A=FMatrix.identity(field, 1), B=FMatrix.identity(field, 1))


def no_key_scheme():
    """X = W broadcast in the clear."""
    return LinearScheme(field=F2, L=1, K=2, qualified=frozenset({1}),
                        layout=(), A=FMatrix.identity(F2, 1),
                        B=FMatrix.zeros(F2, 1, 0))


# -- layout ------------------------------------------------------------------

def test_known_columns_examples():
    scheme = LinearScheme(field=F2, L=1, K=3, qualified=frozenset({1}),
                          layout=((frozenset({1, 2}), 2), (frozenset({1}), 1)),
                          A=FMatrix.zeros(F2, 0, 0), B=FMatrix.zeros(F2, 0, 3))
    assert scheme.column_masks(1) == (0, 0, 0)
    assert scheme.column_masks(2) == (0b100, 0, 0)
    assert scheme.column_masks(3) == (0b111, 0, 0)
    for k in (0, -1, 4):    # the per-receiver table must not wrap or overrun
        with pytest.raises(ValueError, match="outside"):
            scheme.column_masks(k)


def test_column_masks_match_the_per_receiver_definition():
    """The one-pass masks against their definition, column by column:
    multi-message layouts with repeated subsets and zero widths."""
    rng = random.Random(23)
    for _ in range(500):
        k = rng.randint(2, 6)
        qualified = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k - 1)))

        def blocks(pool, n):
            return [(frozenset(rng.sample(pool, rng.randint(1, len(pool)))), rng.randint(0, 3))
                    for _ in range(n)]

        layout = blocks(range(1, k + 1), rng.randint(0, 6))
        layout += layout[:rng.randint(0, 2)]   # a subset given twice
        messages = blocks(sorted(qualified), rng.randint(0, 4)) + [(qualified, rng.randint(0, 2))]
        d, lw = sum(w for _, w in layout), sum(w for _, w in messages)
        scheme = LinearScheme(field=F2, L=1, K=k, qualified=qualified, layout=tuple(layout),
                              A=FMatrix.zeros(F2, 1, lw), B=FMatrix.zeros(F2, 1, d),
                              messages=tuple(messages))
        key_owner = [subset for subset, w in layout for _ in range(w)]
        message_owner = [subset for subset, w in messages for _ in range(w)]
        for r in range(1, k + 1):
            unknown = sum(1 << j for j, subset in enumerate(key_owner) if r not in subset)
            demanded = sum(1 << (d + j) for j, subset in enumerate(message_owner) if r in subset)
            forbidden = sum(1 << (d + j) for j, subset in enumerate(message_owner)
                            if r not in subset)
            assert scheme.column_masks(r) == (unknown, demanded, forbidden)


# -- algebraic verification --------------------------------------------------

def test_otp_receiver_with_key_decodes():
    assert verify_correctness(otp(), 1)


def test_otp_receiver_without_key_cannot_decode():
    scheme = LinearScheme(field=F2, L=1, K=2, qualified=frozenset({1}),
                          layout=((frozenset({2}), 1),),
                          A=FMatrix.identity(F2, 1), B=FMatrix.identity(F2, 1))
    assert not verify_correctness(scheme, 1)


def test_otp_ignorant_eavesdropper_learns_nothing():
    assert verify_security(otp(), 2) == 0


def test_otp_knowing_eavesdropper_learns_everything():
    leaky = otp(key_subset=frozenset({1, 2}))
    assert verify_security(leaky, 2) == 1


def test_clear_broadcast_leaks_whole_message():
    assert verify_security(no_key_scheme(), 2) == 1


def test_verify_report(ex3):
    from securegroupcast import synthesize
    rep = verify(synthesize(ex3))
    assert rep.ok
    assert set(rep.correct) == {1, 2}
    assert set(rep.leakage) == {3, 4}


def test_verify_report_is_shared_and_read_only(ex3):
    """Every caller of verify(scheme) gets the scheme's one report, so its
    mappings refuse changes, and the next call answers the same.  They
    stay dicts to json.dumps and ==."""
    from securegroupcast import synthesize
    scheme = synthesize(ex3)
    rep = verify(scheme)
    assert verify(scheme) is rep
    for mapping, key in ((rep.correct, 1), (rep.leakage, 3)):
        for mutate in (lambda: operator.setitem(mapping, key, 0),
                       lambda: operator.delitem(mapping, key),
                       lambda: operator.ior(mapping, {key: 0}),
                       lambda: mapping.update({key: 0}), lambda: mapping.pop(key),
                       lambda: mapping.setdefault(9, 0), mapping.popitem, mapping.clear):
            with pytest.raises(TypeError):
                mutate()
    again = verify(scheme)
    assert again.ok
    assert (again.correct, again.leakage) == ({1: True, 2: True}, {3: 0, 4: 0})
    assert json.loads(json.dumps([again.correct, again.leakage])) == [
        {"1": True, "2": True}, {"3": 0, "4": 0}]
    for twin in (copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
        assert twin == rep and twin.ok
        with pytest.raises(TypeError):
            twin.correct[1] = False


def test_gf2_verify_is_linear_in_unknown_width():
    """Receiver 1 lacks one key of 2,000,000 symbols that enters nothing
    (L_X = 0): its test masks are built per segment, not per column, and
    the oracle finds the used key columns in one pass over B, not one
    NumPy call per column."""
    scheme = LinearScheme(field=F2, L=1, K=2, qualified=frozenset({1}),
                          layout=((frozenset({2}), 2_000_000),),
                          A=FMatrix.zeros(F2, 0, 1), B=FMatrix.zeros(F2, 0, 2_000_000))
    start = time.perf_counter()
    assert verify(scheme).correct == {1: False}
    assert time.perf_counter() - start < 2.0
    start = time.perf_counter()
    oracle = oracle_verify(scheme)
    assert (oracle.states, oracle.correct) == (2, {1: False})
    assert time.perf_counter() - start < 2.0


def test_wrong_role_queries_rejected():
    s = otp()
    with pytest.raises(ValueError):
        verify_correctness(s, 2)
    with pytest.raises(ValueError):
        verify_security(s, 1)


# -- decoder ------------------------------------------------------------------

def test_decoder_one_time_pad():
    s = otp(field=F3)
    m = decoder_for(s, 1)
    # W = X - s for every (W, s)
    for w in range(3):
        for key in range(3):
            x = (w + key) % 3
            got = (m.array[0, 0] * x + m.array[0, 1] * key) % 3
            assert got == w


def test_decoder_picks_known_row():
    # X = (W + s1, W + s2); receiver 1 knows s1 only
    scheme = LinearScheme(
        field=F2, L=1, K=3, qualified=frozenset({1, 2}),
        layout=((frozenset({1}), 1), (frozenset({2}), 1)),
        A=FMatrix(F2, [[1], [1]]), B=FMatrix.identity(F2, 2))
    m = decoder_for(scheme, 1)
    for w in range(2):
        for s1 in range(2):
            for s2 in range(2):
                x = [(w + s1) % 2, (w + s2) % 2]
                got = (m.array[0, 0] * x[0] + m.array[0, 1] * x[1]
                       + m.array[0, 2] * s1) % 2
                assert got == w


def test_decoder_not_decodable():
    scheme = LinearScheme(field=F2, L=1, K=2, qualified=frozenset({1}),
                          layout=((frozenset({2}), 1),),
                          A=FMatrix.identity(F2, 1), B=FMatrix.identity(F2, 1))
    with pytest.raises(NotDecodableError):
        decoder_for(scheme, 1)


def test_decoder_lets_solver_faults_propagate(monkeypatch):
    # only "no solution" means "not decodable"; any other fault is a bug
    import securegroupcast.scheme as scheme_mod

    def broken(a, b):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(scheme_mod, "solve_right", broken)
    with pytest.raises(RuntimeError, match="solver fault"):
        decoder_for(otp(field=F3), 1)


# -- oracle ------------------------------------------------------------------

def test_oracle_one_time_pad():
    rep = oracle_verify(otp())
    assert rep.correct[1] is True
    assert rep.decode_success[1] == 1.0
    assert rep.leakage_bits[2] == 0.0


def test_oracle_clear_broadcast_leaks_one_bit():
    rep = oracle_verify(no_key_scheme())
    assert rep.leakage_bits[2] == pytest.approx(1.0, abs=1e-12)


def test_oracle_component_one():
    # X = W + s123 + s124: decodable by 1, 2; invisible to 3 and 4
    rep = oracle_verify(component_instance("Cmp1"))
    assert rep.states == 8
    assert rep.correct == {1: True, 2: True}
    assert rep.leakage_bits == {3: 0.0, 4: 0.0}


def test_oracle_refuses_oversized():
    big = LinearScheme(field=F2, L=1, K=2, qualified=frozenset({1}),
                       layout=((frozenset({1}), 30),),
                       A=FMatrix.zeros(F2, 30, 0),
                       B=FMatrix.identity(F2, 30))
    with pytest.raises(TooLargeError):
        oracle_verify(big)


def test_oracle_cap_env_override(monkeypatch):
    monkeypatch.setenv("SGC_ORACLE_CAP", "2")
    with pytest.raises(TooLargeError):
        oracle_verify(otp())
    monkeypatch.setenv("SGC_ORACLE_CAP", "1024")
    assert oracle_verify(otp()).ok
    monkeypatch.setenv("SGC_ORACLE_CAP", "1000")  # not a power of two
    with pytest.raises(ValueError):
        oracle_verify(otp())


def test_oracle_ignores_unused_key_columns():
    # same OTP plus a large never-used key: state space must not blow up
    scheme = LinearScheme(field=F2, L=1, K=2, qualified=frozenset({1}),
                          layout=((frozenset({1}), 1), (frozenset({2}), 40)),
                          A=FMatrix.identity(F2, 1),
                          B=FMatrix(F2, [[1] + [0] * 40]))
    rep = oracle_verify(scheme)
    assert rep.states == 4
    assert rep.ok


# -- oracle vs algebra --------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_agrees_with_algebra_on_random_schemes(p):
    rng = random.Random(p * 101)
    for _ in range(60):
        scheme = random_scheme(rng, p)
        alg = verify(scheme)
        orc = oracle_verify(scheme)
        for k in scheme.qualified:
            assert alg.correct[k] == orc.correct[k], scheme
        for e in scheme.eavesdroppers:
            assert abs(alg.leakage[e] * math.log2(p) - orc.leakage_bits[e]) < 1e-9


def test_leakage_monotone_in_eavesdropper_knowledge():
    """Moving a key segment into an eavesdropper's hands never lowers leakage."""
    rng = random.Random(424)
    for _ in range(40):
        scheme = random_scheme(rng, 2)
        if not scheme.layout:
            continue
        e = min(scheme.eavesdroppers)
        grown = []
        for subset, width in scheme.layout:
            grown.append((subset | {e}, width))
        richer = LinearScheme(field=scheme.field, L=scheme.L, K=scheme.K,
                              qualified=scheme.qualified, layout=tuple(grown),
                              A=scheme.A, B=scheme.B)
        assert verify_security(richer, e) >= verify_security(scheme, e)


# -- column-subset ranks against one elimination per receiver --------------------
#
# verify reads every receiver's (rank B_unk, rank [B_unk | A]) off the
# ColumnRanks of [B | A] (over GF(p), one echelon form); the direct way
# gathers [B_unk | A] and eliminates it.

ECHELON_PRIMES = [2, 3, 5, 173, LARGE_P]


def direct_ranks(scheme, k):
    unk = list(key_columns(scheme, k)[1])
    gathered = hstack([FMatrix(scheme.field, scheme.B.array[:, unk]), scheme.A])
    return prefix_ranks(gathered, len(unk))


def echelon_scheme(rng, p):
    """A random scheme whose B is often rank-deficient (a low-rank product,
    some zero columns) and whose A may or may not lie in B's column space."""
    field = Field(p)
    k = rng.randint(2, 5)
    qualified = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k - 1)))
    layout = tuple((frozenset(rng.sample(range(1, k + 1), rng.randint(1, k))), rng.randint(1, 3))
                   for _ in range(rng.randint(0, 4)))
    d = sum(w for _, w in layout)
    lx, lw = rng.randint(0, 6), rng.randint(0, 3)
    r = rng.randint(0, min(lx, d))
    u = [[rng.randrange(p) for _ in range(r)] for _ in range(lx)]
    v = [[rng.randrange(p) if rng.random() < 0.8 else 0 for _ in range(d)] for _ in range(r)]
    b = [[sum(x * y for x, y in zip(ur, vc)) % p for vc in zip(*v)] if r else [0] * d
         for ur in u]
    if rng.random() < 0.5:   # A inside the column space of B
        mix = [[rng.randrange(p) for _ in range(lw)] for _ in range(d)]
        a = [[sum(x * y for x, y in zip(br, mc)) % p for mc in zip(*mix)] if d else [0] * lw
             for br in b]
    else:
        a = [[rng.randrange(p) for _ in range(lw)] for _ in range(lx)]
    return LinearScheme(field=field, L=1, K=k, qualified=qualified, layout=layout,
                        A=FMatrix(field, np.array(a, dtype=np.int64).reshape(lx, lw)),
                        B=FMatrix(field, np.array(b, dtype=np.int64).reshape(lx, d)))


@pytest.mark.parametrize("p", ECHELON_PRIMES)
def test_shared_echelon_ranks_match_direct_ranks(p):
    rng = random.Random(p * 31)
    seen = Counter()
    for _ in range(120):
        scheme = echelon_scheme(rng, p)
        pivots = set(rref(hstack([scheme.B, scheme.A]))[1])
        for k in range(1, scheme.K + 1):
            unk = key_columns(scheme, k)[1]
            expect = direct_ranks(scheme, k)
            a_mask = ((1 << scheme.L_W) - 1) << scheme.D
            assert scheme.column_ranks.ranks(scheme.column_masks(k)[0], a_mask) == expect
            if k in scheme.qualified:
                assert verify_correctness(scheme, k) == (expect[1] - expect[0] == scheme.L_W)
            else:
                assert verify_security(scheme, k) == expect[1] - expect[0]
            seen["empty unknown set"] += not unk
            # a nonzero B whose pivots all lie in key columns k holds
            seen["unknown set without pivots"] += (bool(unk) and not pivots & set(unk)
                                                   and bool(scheme.B.array.any()))
        seen["rank-deficient B"] += rank(scheme.B) < min(scheme.L_X, scheme.D)
        seen["pivot inside A"] += any(c >= scheme.D for c in pivots)
        seen["L_W = 0"] += scheme.L_W == 0
    assert all(seen[key] >= 10 for key in (
        "empty unknown set", "unknown set without pivots", "rank-deficient B",
        "pivot inside A", "L_W = 0")), seen


@st.composite
def drawn_schemes(draw):
    p = draw(st.sampled_from(ECHELON_PRIMES))
    field = Field(p)
    k = draw(st.integers(2, 5))
    members = st.sampled_from(range(1, k + 1))
    qualified = draw(st.frozensets(members, min_size=1, max_size=k - 1))
    layout = tuple(draw(st.lists(st.tuples(st.frozensets(members, min_size=1), st.integers(1, 3)),
                                 max_size=4)))
    d = sum(w for _, w in layout)
    lx, lw = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    entry = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    a, b = (draw(st.lists(entry, min_size=lx * n, max_size=lx * n)) for n in (lw, d))
    return LinearScheme(field=field, L=1, K=k, qualified=qualified, layout=layout,
                        A=FMatrix(field, np.array(a, dtype=np.int64).reshape(lx, lw)),
                        B=FMatrix(field, np.array(b, dtype=np.int64).reshape(lx, d)))


@settings(max_examples=150, deadline=None)
@given(drawn_schemes())
def test_shared_echelon_ranks_match_direct_ranks_drawn(scheme):
    report = verify(scheme)
    for k in range(1, scheme.K + 1):
        base, total = direct_ranks(scheme, k)
        if k in scheme.qualified:
            assert report.correct[k] == (total - base == scheme.L_W)
        else:
            assert report.leakage[k] == total - base


# -- oracle against a state-by-state reference ----------------------------------
#
# The reference walks every (W, S) state, unused key columns included, and
# evaluates X, each receiver's view and the constructed decoder in Python
# integers.  It shares no code with the oracle.


def digits(s, p, m):
    return [s // p ** j % p for j in range(m)]


def form_values(forms, p, m):
    return [tuple(sum(c * d for c, d in zip(row, digits(s, p, m))) % p for row in forms)
            for s in range(p ** m)]


@pytest.mark.parametrize("p,m", [(2, 0), (2, 3), (2, 10), (3, 4), (3, 6), (5, 4), (7, 3)])
def test_state_code_matches_direct_evaluation(p, m):
    rng = random.Random(p * 1000 + m)
    w = 1 if p == 2 else (p - 1).bit_length() + 1
    for rows in (0, 1, 4, 31 // w, 31 // w + 1, 62 // w, 62 // w + 3, 2 * (62 // w) + 1):
        forms = np.array([[rng.randrange(p) if rng.random() < 0.8 else 0 for _ in range(m)]
                          for _ in range(rows)], dtype=np.int64).reshape(rows, m)
        code, bits = state_code(p, m, forms)
        values = form_values(forms.tolist(), p, m)
        got = code.tolist()
        assert len(got) == p ** m and all(0 <= c < 1 << bits for c in got)
        assert code.dtype == (np.int32 if rows * w <= 31 else np.int64)
        if rows * w <= 62:
            assert got == [sum(v << (i * w) for i, v in enumerate(vals)) for vals in values]
        else:
            # renumbered: still one code per distinct value tuple
            assert len(set(zip(got, values))) == len(set(got)) == len(set(values))
        assert [c == 0 for c in got] == [not any(vals) for vals in values]


def reference_groups(p, m, forms, lo, hi):
    def observe(state):
        return tuple(sum(c * d for c, d in zip(row, state)) % p for row in forms), state[lo:hi]

    return group_by_view(m, p, observe)


def spanned_forms(rng, p, m, rows, rank):
    """`rows` forms over m digits spanning at most `rank` dimensions, so that
    views range from blind to all-seeing.  No form is zero unless rank is 0,
    so a view keeps all `rows` forms."""
    def nonzero(draw_row):
        row = draw_row()
        while not any(row):
            row = draw_row()
        return row

    base = [nonzero(lambda: [rng.randrange(p) for _ in range(m)]) for _ in range(rank)]
    out = [nonzero(lambda: [sum(rng.randrange(p) * b[j] for b in base) % p for j in range(m)])
           if rank else [0] * m for _ in range(rows)]
    return np.array(out, dtype=np.int64).reshape(rows, m)


def both_routes(p, forms, held, message):
    """(NumPy route, small route) counts of one check, each called directly,
    whatever its state count."""
    message = list(message)
    noise = [j for j in range(forms.shape[1]) if j not in held and j not in message]
    return (scheme_module._numpy_groups(p, forms, message, noise),
            scheme_module._small_groups(p, forms, message, noise))


# (p, m, view form count, message digits lo..hi, joint code width): widths
# of exactly 31 bits (int32), 32 bits (int64) and past 62 (renumbered)
WIDTH_CASES = [
    (2, 8, 29, 1, 3, 31), (2, 8, 30, 1, 3, 32), (2, 8, 62, 0, 2, 64),
    (3, 6, 9, 1, 3, 31), (3, 6, 10, 2, 3, 32), (3, 6, 21, 0, 2, 67),
    (5, 5, 7, 0, 1, 31), (5, 5, 5, 0, 5, 32), (5, 5, 15, 1, 2, 63),
]


@pytest.mark.parametrize("p,m,rows,lo,hi,width", WIDTH_CASES)
def test_message_groups_across_code_widths(p, m, rows, lo, hi, width):
    w = 1 if p == 2 else (p - 1).bit_length() + 1
    msg_bits = (p ** (hi - lo) - 1).bit_length()
    assert w * rows + msg_bits == width
    rng = random.Random(width * 100 + p)
    seen = Counter()
    for rank in range(m + 1):
        forms = spanned_forms(rng, p, m, rows, rank)
        code, bits = state_code(p, m, forms, msg_bits)
        assert code.dtype == (np.int32 if width <= 31 else np.int64)
        assert bits <= 62 and not (code & ((1 << msg_bits) - 1)).any()
        values = form_values(forms.tolist(), p, m)
        assert len(set(zip(code.tolist(), values))) == len(set(code.tolist())) == len(set(values))
        if width <= 62:   # one slot per form: the same code as without the spare bits
            narrow, _ = state_code(p, m, forms)
            assert (code == narrow.astype(np.int64) << msg_bits).all()

        ref = reference_groups(p, m, forms.tolist(), lo, hi)
        want_decodes, want_independent, want_bits = reference_verdicts(ref, p ** (hi - lo))
        numpy_route, small_route = both_routes(p, forms, [], range(lo, hi))
        # a view drops zero forms, which only the blind rank-0 draw has
        assert numpy_route.step.dtype == (code.dtype if rank else np.int32)
        assert small_route.step is None
        for groups in (numpy_route, small_route):
            decodes, independent = groups.decodes(), groups.independent()
            assert (decodes, independent) == (want_decodes, want_independent)
            assert sorted(groups.view.tolist()) == sorted(sum(c.values()) for c in ref.values())
            assert sorted(groups.joint.tolist()) == sorted(v for c in ref.values()
                                                           for v in c.values())
            assert abs(groups.leakage_bits() - want_bits) < 1e-9
        seen[want_decodes, want_independent] += 1
    assert seen[True, False] and seen[False, True], seen


@st.composite
def view_and_message(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, {2: 9, 3: 5, 5: 4, 7: 3}[p]))
    lo = draw(st.integers(0, m))
    hi = draw(st.integers(lo, m))
    rows = draw(st.integers(0, 6))
    entry = st.sampled_from([0, 1]) | st.integers(0, p - 1)
    forms = draw(st.lists(entry, min_size=rows * m, max_size=rows * m))
    return p, m, np.array(forms, dtype=np.int64).reshape(rows, m), lo, hi


@settings(max_examples=150, deadline=None)
@given(view_and_message())
def test_group_counts_match_brute_force_grouping(case):
    p, m, forms, lo, hi = case
    ref = reference_groups(p, m, forms.tolist(), lo, hi)
    want_decodes, want_independent, want_bits = reference_verdicts(ref, p ** (hi - lo))
    for groups in (view_groups(p, forms, [], list(range(lo, hi))),
                   *both_routes(p, forms, [], range(lo, hi))):
        decodes = groups.decodes()        # from counts alone: no size array built yet
        assert "view" not in vars(groups) and "joint" not in vars(groups)
        assert decodes == (len(groups.joint) == len(groups.view))
        assert decodes == want_decodes
        assert groups.independent() == want_independent
        assert abs(groups.leakage_bits() - want_bits) < 1e-9


def enumerated_groups(p, forms, held, message):
    """view_groups' answer with every free state coded, message digits lowest."""
    free = list(message) + [j for j in range(forms.shape[1])
                            if j not in held and j not in message]
    live = forms[:, free][forms[:, free].any(axis=1)]
    q = p ** len(message)
    message_bits = (q - 1).bit_length()
    code, _ = state_code(p, len(free), live, message_bits)
    by_message = code.reshape(-1, q)
    by_message |= np.arange(q, dtype=code.dtype)
    return scheme_module.group_stats(code, message_bits, q)


@st.composite
def compressible_view(draw):
    """Forms, held digits and a message (in any digit order) whose live
    forms are fewer than the noise digits; some forms are nonzero only on
    held digits, so the view drops them."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, {2: 10, 3: 6, 5: 4, 7: 3}[p]))
    order = draw(st.permutations(range(m)))
    n_held = draw(st.integers(0, m - 1))
    n_message = draw(st.integers(0, m - 1 - n_held))
    held, message = order[:n_held], order[n_held:n_held + n_message]
    noise = order[n_held + n_message:]
    entry = st.sampled_from([0, 1]) | st.integers(0, p - 1)
    rows = []
    for _ in range(draw(st.integers(0, len(noise) - 1))):
        rows.append(draw(st.lists(entry, min_size=m, max_size=m)))
    for _ in range(draw(st.integers(0, 2)) if held else 0):
        rows.append([draw(entry) if j in held else 0 for j in range(m)])
    forms = np.array(draw(st.permutations(rows)), dtype=np.int64).reshape(len(rows), m)
    return p, forms, held, message


@settings(max_examples=200, deadline=None)
@given(compressible_view())
def test_message_shift_matches_enumeration(case):
    """With fewer live forms than noise digits, each distinct noise code is
    kept once, weighted by the count they share, and shifted by every
    message value; the group sizes and the leakage float equal those of
    coding every free state."""
    p, forms, held, message = case
    full = enumerated_groups(p, forms, held, message)
    assert full.weight == 1
    for groups in (view_groups(p, forms, held, message), *both_routes(p, forms, held, message)):
        assert groups.weight > 1   # the compressed rule ran
        decodes = groups.decodes()
        assert "view" not in vars(groups) and "joint" not in vars(groups)
        for name in ("view", "joint"):
            got, want = getattr(groups, name), getattr(full, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert (groups.msg_mask, groups.messages) == (full.msg_mask, full.messages)
        assert decodes == full.decodes()
        assert groups.independent() == full.independent()
        assert groups.leakage_bits() == full.leakage_bits()   # bit for bit

    def observe(state):
        return (tuple(sum(c * d for c, d in zip(row, state)) % p for row in forms.tolist())
                + tuple(state[j] for j in held), tuple(state[j] for j in message))

    ref = group_by_view(forms.shape[1], p, observe)
    want_decodes, want_independent, want_bits = reference_verdicts(ref, p ** len(message))
    assert (decodes, groups.independent()) == (want_decodes, want_independent)
    assert abs(groups.leakage_bits() - want_bits) < 1e-9
    # the reference's view holds the held digits, so each of the p^len(held)
    # slices repeats the view's group sizes
    assert sorted(groups.view.tolist() * p ** len(held)) == sorted(
        sum(c.values()) for c in ref.values())
    assert sorted(groups.joint.tolist() * p ** len(held)) == sorted(
        v for c in ref.values() for v in c.values())


def free_digits_within(p, states):
    """The most free digits whose p^digits states stay within `states`."""
    digits = 0
    while p ** (digits + 1) <= states:
        digits += 1
    return digits


@st.composite
def small_check(draw):
    """A check of at most SMALL_CHECK_STATES free states: 0-6 forms over
    held, message and noise digits in any order, each kind possibly
    absent."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    free = draw(st.integers(0, free_digits_within(p, scheme_module.SMALL_CHECK_STATES)))
    n_held = draw(st.integers(0, 3))
    n_message = draw(st.integers(0, free))
    order = draw(st.permutations(range(free + n_held)))
    rows = draw(st.integers(0, 6))
    entry = st.sampled_from([0, 1]) | st.integers(0, p - 1)
    forms = draw(st.lists(entry, min_size=rows * len(order), max_size=rows * len(order)))
    return (p, np.array(forms, dtype=np.int64).reshape(rows, len(order)),
            sorted(order[:n_held]), order[n_held:n_held + n_message])


ONES = np.ones((2, 3), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(small_check())
@example((3, np.zeros((0, 3), dtype=np.int64), [2], [0]))   # no forms
@example((5, ONES, [], [0, 1, 2]))                           # no noise digits
@example((2, ONES, [0], []))                                 # no message digits
@example((7, ONES, [0, 1, 2], []))                           # every digit held
@example((2, np.array([[1, 1, 1, 1], [1, 0, 0, 0]]), [], [0]))   # shifted noise codes decode
def test_small_route_matches_numpy_route(case):
    """Counted in Python integers or in NumPy, a check has the same weight,
    verdicts and group sizes in the same order, so the same leakage float;
    with at most 6 forms the NumPy code is never renumbered."""
    p, forms, held, message = case
    numpy_route, small_route = both_routes(p, forms, held, message)
    assert small_route.step is None and numpy_route.tally is None
    assert small_route.weight == numpy_route.weight
    assert (small_route.msg_mask, small_route.messages) == (numpy_route.msg_mask,
                                                            numpy_route.messages)
    assert small_route.decodes() == numpy_route.decodes()
    assert small_route.independent() == numpy_route.independent()
    # the verdict is decided once and kept, for leakage_bits() to read
    assert all("_independent" in vars(route) for route in (small_route, numpy_route))
    for name in ("view", "joint"):
        got, want = getattr(small_route, name), getattr(numpy_route, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert small_route.leakage_bits() == numpy_route.leakage_bits()   # bit for bit


def test_small_route_matches_renumbered_numpy_route(monkeypatch):
    """GF(5) checks with 16 live forms over 3 free digits and one held
    digit: the NumPy code would take 16 * 4 + 3 bits, past 62, so it is
    renumbered and its groups may come in another order.  Python integers
    need no renumbering; the two routes agree on the weight, the verdicts
    and the sizes, and on the leakage within 1e-12.  The forms combine
    either the unit vectors, so the view determines the message digit 0,
    or (1, 1, 0) and (0, 0, 1), so noise digit 1 hides it."""
    renumbered = []
    renumber = scheme_module._renumber

    def recording(code):
        renumbered.append(len(code))
        return renumber(code)

    monkeypatch.setattr(scheme_module, "_renumber", recording)
    rng = random.Random(516)
    seen = Counter()
    for basis in ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1, 0), (0, 0, 1)]) * 2:
        rows = []
        while len(rows) < 16:
            c = [rng.randrange(5) for _ in basis]
            row = [sum(a * v[j] for a, v in zip(c, basis)) % 5 for j in range(3)]
            if any(row):
                rows.append(row + [rng.randrange(5)])   # digit 3 is held
        renumbered.clear()
        numpy_route, small_route = both_routes(5, np.array(rows), [3], [0])
        assert renumbered
        assert small_route.weight == numpy_route.weight == 1
        assert small_route.decodes() == numpy_route.decodes()
        assert small_route.independent() == numpy_route.independent()
        for name in ("view", "joint"):
            got, want = getattr(small_route, name), getattr(numpy_route, name)
            assert sorted(got.tolist()) == sorted(want.tolist()), name
        assert abs(small_route.leakage_bits() - numpy_route.leakage_bits()) < 1e-12
        seen[small_route.decodes(), small_route.independent()] += 1
    assert seen == {(True, False): 2, (False, True): 2}, seen


def test_check_route_follows_its_state_count(monkeypatch):
    """A check of exactly SMALL_CHECK_STATES free states is counted in
    Python integers, one of p times as many in NumPy, whatever its held
    digits."""
    limit = scheme_module.SMALL_CHECK_STATES
    free = free_digits_within(2, limit)
    assert 2 ** free == limit
    taken = []
    for name in ("_small_groups", "_numpy_groups"):
        route = getattr(scheme_module, name)
        monkeypatch.setattr(scheme_module, name,
                            lambda *args, route=route, name=name: taken.append(name) or route(*args))
    rng = random.Random(256)
    for digits, want in ((free, "_small_groups"), (free + 1, "_numpy_groups")):
        forms = np.array([[rng.randrange(2) for _ in range(digits + 2)] for _ in range(3)])
        taken.clear()
        groups = view_groups(2, forms, [0, digits + 1], [1])
        assert taken == [want]
        assert (groups.step is None) == (want == "_small_groups")


def cross_check_scheme(rng, p):
    """A random scheme of at most 1024 states; some key columns unused."""
    field = Field(p)
    k = rng.randint(2, 4)
    qualified = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k - 1)))
    lw, lx = rng.randint(0, 2), rng.randint(0, 3)
    layout, d = [], 0
    for _ in range(rng.randint(0, 3)):
        width = rng.randint(1, 2)
        if p ** (lw + d + width) > 1024:
            break
        layout.append((frozenset(rng.sample(range(1, k + 1), rng.randint(1, k))), width))
        d += width
    a = [[rng.randrange(p) for _ in range(lw)] for _ in range(lx)]
    b = [[rng.randrange(p) for _ in range(d)] for _ in range(lx)]
    for j in range(d):
        if rng.random() < 0.2:
            for row in b:
                row[j] = 0
    return LinearScheme(field=field, L=1, K=k, qualified=qualified, layout=tuple(layout),
                        A=FMatrix(field, np.array(a, dtype=np.int64).reshape(lx, lw)),
                        B=FMatrix(field, np.array(b, dtype=np.int64).reshape(lx, d)))


def one_block_scheme(rng, p):
    """A scheme of at most 5^4 states whose one row of X is nonzero on
    every digit, so the oracle sees one block.  Receiver 3 holds no key, so
    its check has one live form against two or more noise digits: the
    message-shift rule's case."""
    field = Field(p)
    d = rng.randint(2, 3 if p < 7 else 2)
    layout = tuple((frozenset({1, 2} if rng.random() < 0.5 else {1}), 1) for _ in range(d))
    row = [rng.randrange(1, p) for _ in range(1 + d)]
    return LinearScheme(field=field, L=1, K=3, qualified=frozenset({1}), layout=layout,
                        A=FMatrix(field, np.array([row[:1]], dtype=np.int64)),
                        B=FMatrix(field, np.array([row[1:]], dtype=np.int64)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_oracle_matches_state_by_state_reference(p, monkeypatch):
    """The oracle's verdicts equal the reference's with each check's route
    set by its state count, which counts nearly all of these in Python
    integers, and again with every check counted in NumPy (a limit of 0
    states)."""
    for small_states in (scheme_module.SMALL_CHECK_STATES, 0):
        with monkeypatch.context() as patch:
            patch.setattr(scheme_module, "SMALL_CHECK_STATES", small_states)
            check_oracle_against_reference(p, patch)


def check_oracle_against_reference(p, monkeypatch):
    rng = random.Random(p * 7919)
    seen = Counter()

    def recording(*args):
        groups = view_groups(*args)
        seen["compressed check"] += groups.weight > 1
        return groups

    monkeypatch.setattr(scheme_module, "view_groups", recording)
    # the drawn schemes split into small blocks, where few checks have
    # fewer live forms than noise digits; the one-block draws have them
    for i in range(46):
        scheme = cross_check_scheme(rng, p) if i < 40 else one_block_scheme(rng, p)
        orc = oracle_verify(scheme)
        correct, success, leakage, secure = reference_oracle(scheme)
        used = sum(1 for j in range(scheme.D) if scheme.B.array[:, j].any())
        assert orc.states == p ** (scheme.L_W + used)
        assert orc.correct == correct
        assert orc.decode_success == success
        # the one place where decoder_for meets the counting verdict: the
        # reference evaluates the decoder on every state, and it must
        # succeed everywhere exactly where the brute force decodes
        assert success == {k: 1.0 if c else 0.0 for k, c in correct.items()}
        assert orc.secure == secure
        assert orc.leakage_bits.keys() == leakage.keys()
        for e, bits in leakage.items():
            assert abs(orc.leakage_bits[e] - bits) < 1e-12
        assert orc.ok == (all(correct.values()) and all(secure.values()))
        alg = verify(scheme)
        assert alg.correct == orc.correct
        assert {e: v == 0 for e, v in alg.leakage.items()} == orc.secure
        for e, symbols in alg.leakage.items():
            assert abs(symbols * math.log2(p) - orc.leakage_bits[e]) < 1e-9
        seen["no X"] += scheme.L_X == 0
        seen["no W"] += scheme.L_W == 0
        seen["unused key"] += used < scheme.D
        # a held key that enters X: its digits are sliced off k's view
        seen["held used key"] += any(scheme.B.array[:, c].any()
                                     for k in range(1, scheme.K + 1)
                                     for c in key_columns(scheme, k)[0])
        seen["leaks"] += not all(orc.secure.values())
        seen["undecodable"] += not all(orc.correct.values())
        seen["ok"] += orc.ok
    assert all(seen[key] for key in ("no X", "no W", "unused key", "held used key", "leaks",
                                     "undecodable", "ok", "compressed check")), seen


def test_oracle_enumerates_only_digits_a_receiver_does_not_hold(monkeypatch):
    """Each check is counted block by block, over the message digits and the
    used key digits its receiver does not hold in each block that holds
    some of its message digits, while `states` still counts them all.  A
    block check with fewer live X forms than noise digits codes the noise
    digits and the message digits in two separate calls, never both at
    once; any other codes all of them in one call.  A block with equal
    forms, held digits and message digits is coded once per call.  Each
    holds on both routes: with each check's route set by its state count,
    with every check in NumPy (a limit of 0 states) and with every check
    in Python integers."""
    for small_states in (scheme_module.SMALL_CHECK_STATES, 0, 1 << 30):
        with monkeypatch.context() as patch:
            patch.setattr(scheme_module, "SMALL_CHECK_STATES", small_states)
            check_enumerated_digits(small_states, patch)


def check_enumerated_digits(small_states, monkeypatch):
    rng = random.Random(2718)
    calls = []
    expand, expand_ints = scheme_module._expand, scheme_module._expand_ints

    def recording(p, m, forms, low=0, base=None):
        calls.append(("numpy", m, base is not None))
        return expand(p, m, forms, low, base)

    def recording_ints(p, columns, low=0, base=None, tagged=0):
        calls.append(("small", len(columns), base is not None))
        return expand_ints(p, columns, low, base, tagged)

    monkeypatch.setattr(scheme_module, "_expand", recording)
    monkeypatch.setattr(scheme_module, "_expand_ints", recording_ints)
    seen = Counter()
    for _ in range(80):
        scheme = cross_check_scheme(rng, rng.choice([2, 3, 5]))
        used = [j for j in range(scheme.D) if scheme.B.array[:, j].any()]
        x_forms = np.concatenate([scheme.A.array, scheme.B.array[:, used]], axis=1)
        calls.clear()
        rep = oracle_verify(scheme)
        assert rep.states == scheme.p ** (scheme.L_W + len(used))
        want, coded = [], set()
        for k in sorted(scheme.qualified) + sorted(scheme.eavesdroppers):
            # a single-message scheme's checks take all of W as the message
            held = {scheme.L_W + i for i, j in enumerate(used) if j in key_columns(scheme, k)[0]}
            for rows, digits in digit_blocks(x_forms):
                message = [i for i, j in enumerate(digits) if j < scheme.L_W]
                if not message:
                    continue
                kept = [i for i, j in enumerate(digits) if j in held]
                forms = x_forms[rows][:, digits]
                key = (forms.tobytes(), forms.shape, tuple(kept), tuple(message))
                if key in coded:
                    seen["coded once"] += 1
                    continue
                coded.add(key)
                noise = [i for i in range(len(digits)) if i not in kept and i not in message]
                route = ("small" if scheme.p ** (len(message) + len(noise)) <= small_states
                         else "numpy")
                live = np.count_nonzero(forms[:, message + noise].any(axis=1))
                if live < len(noise):
                    want += [(route, len(noise), False), (route, len(message), True)]
                    seen["compressed"] += 1
                else:
                    want.append((route, len(message) + len(noise), False))
                    seen["enumerated"] += 1
                seen[route] += 1
                seen["sliced"] += len(kept) > 0
        seen["split"] += len(digit_blocks(x_forms)) > 1
        assert calls == want, scheme
    assert all(seen[key] for key in ("compressed", "enumerated", "sliced", "split",
                                     "coded once")), seen
    assert seen["numpy"] if small_states < 1 << 30 else not seen["numpy"], seen
    assert seen["small"] if small_states else not seen["small"], seen


def test_oracle_runs_no_elimination(fig4, monkeypatch):
    """oracle_verify only counts: it builds no decoder and runs no GF(2) or
    GF(p) elimination, on fig4's GF(2) scheme, a GF(3) scheme of ex2's
    Cauchy builder and case (ex2's own has 11^9 states, past the cap) and
    drawn schemes, some undecodable.  The same wrappers see the decoders
    that simulate builds, whose elimination runs the one loop over every
    field, and the packed GF(2) elimination of a ColumnRanks query."""
    aligned = synthesize(fig4)
    multicast = synthesize(KeyConfig.of(4, [1, 2, 3], {(1,): 1, (1, 2): 1, (2, 3): 1}))
    assert (multicast.p, multicast.meta["builder"], multicast.meta["case"]) == (
        3, "multicast_k4_bw", "pair23 covers both")
    rng = random.Random(1414)
    schemes = [aligned, multicast] + [cross_check_scheme(rng, (2, 3, 5)[i % 3])
                                      for i in range(20)]
    calls = Counter()
    for module, name in ((fmatrix_module, "_eliminate"), (fmatrix_module, "_gf2_prefix_ranks"),
                         (scheme_module, "decoder_for")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    reports = [oracle_verify(scheme) for scheme in schemes]
    assert calls == Counter()
    assert reports[0].ok and reports[1].ok
    assert not all(all(r.correct.values()) for r in reports[2:]), "no undecodable draw"
    simulate(aligned, 0)
    simulate(multicast, 0)
    assert calls.keys() == {"_eliminate", "decoder_for"}, calls
    fmatrix_module.ColumnRanks(aligned.A).ranks(1, 2)
    assert calls.keys() == {"_eliminate", "_gf2_prefix_ranks", "decoder_for"}, calls


def test_secure_views_leak_exactly_zero_bits():
    """A secure eavesdropper reads exactly 0.0 bits in both oracles; a
    leaking one reads its leaked symbols times log2 p."""
    rng = random.Random(1618)
    seen = Counter()
    for _ in range(120):
        scheme = cross_check_scheme(rng, rng.choice([2, 3, 5, 7]))
        alg, orc = verify(scheme), oracle_verify(scheme)
        for e, symbols in alg.leakage.items():
            if orc.secure[e]:
                assert orc.leakage_bits[e] == 0.0 and symbols == 0
            else:
                assert abs(orc.leakage_bits[e] - symbols * math.log2(scheme.p)) < 1e-9
            seen[orc.secure[e]] += 1
    assert seen[True] and seen[False], seen
    for rates in ((1, 1, 1), (0, 0, 2), (1, 0, 1), (1, 1, 0)):
        ms = multimessage((1, 1, 1), rates)
        bits = oracle_verify(ms).leakage_bits
        assert all(v == 0.0 for v in bits.values()), bits
    # W1 in the clear: receiver 2 learns it, receiver 1 has nothing to learn
    owners = (frozenset({1}), frozenset({2}), frozenset({1, 2}))
    clear = LinearScheme(field=F2, L=1, K=3, qualified=frozenset({1, 2}),
                         layout=tuple((s, 0) for s in owners), A=FMatrix.identity(F2, 1),
                         B=FMatrix.zeros(F2, 1, 0), messages=tuple(zip(owners, (1, 0, 0))))
    rep = oracle_verify(clear)
    assert rep.secure[2] is False and abs(rep.leakage_bits[2] - 1.0) < 1e-9
    assert rep.leakage_bits[1] == 0.0


# -- the oracle by blocks against the whole-state oracle ----------------------------

EIGHT_SUBSETS = ((1,), (2,), (1, 3), (1, 4), (2, 3), (2, 4), (1, 2, 3), (1, 2, 4))


def two_of_four(sizes):
    """The synthesized 2-of-4 scheme with key sizes listed as EIGHT_SUBSETS."""
    return synthesize(KeyConfig.of(4, [1, 2], {s: n for s, n in zip(EIGHT_SUBSETS, sizes) if n}))


def sum_part(rng, p, k):
    """(qualified, layout, A, B) of a drawn single-message scheme of at
    most 64 states for K = k receivers, each message column zero with
    probability 1/4; or, a third of the time, a one-time pad W + c S whose key only
    the qualified receivers hold."""
    qualified = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k - 1)))
    if rng.random() < 1 / 3:
        return qualified, [qualified], np.ones((1, 1), dtype=np.int64), np.array(
            [[rng.randrange(1, p)]], dtype=np.int64)
    lw, lx = rng.randint(0, 2), rng.randint(0, 3)
    layout = []
    while len(layout) < 3 and p ** (lw + len(layout) + 1) <= 64 and rng.random() < 0.8:
        layout.append(frozenset(rng.sample(range(1, k + 1), rng.randint(1, k))))
    a = np.array([[rng.randrange(p) for _ in range(lw)] for _ in range(lx)],
                 dtype=np.int64).reshape(lx, lw)
    a[:, [rng.random() < 0.25 for _ in range(lw)]] = 0
    b = np.array([[rng.randrange(p) for _ in layout] for _ in range(lx)],
                 dtype=np.int64).reshape(lx, len(layout))
    return qualified, layout, a, b


def direct_sum(rng, p, k, parts):
    """The direct sum of `parts`: A and B block-diagonal, each part's message
    columns a block of its qualified set.  Then the rows, the key columns
    and the message columns are permuted, each column a width-1 block of
    the layout or the messages so that its owners move with it."""
    field = Field(p)
    lx = sum(a.shape[0] for _, _, a, _ in parts)
    a_sum = np.zeros((lx, sum(a.shape[1] for _, _, a, _ in parts)), dtype=np.int64)
    b_sum = np.zeros((lx, sum(b.shape[1] for _, _, _, b in parts)), dtype=np.int64)
    keys, owners, empty = [], [], []
    r = 0
    for qualified, layout, a, b in parts:
        a_sum[r:r + a.shape[0], len(owners):len(owners) + a.shape[1]] = a
        b_sum[r:r + b.shape[0], len(keys):len(keys) + b.shape[1]] = b
        r += a.shape[0]
        keys += layout
        owners += [qualified] * a.shape[1]
        if not a.shape[1]:
            empty.append(qualified)
    rows = rng.sample(range(lx), lx)
    key_order, message_order = rng.sample(range(len(keys)), len(keys)), rng.sample(
        range(len(owners)), len(owners))
    return LinearScheme(
        field=field, L=1, K=k, qualified=frozenset().union(*(q for q, _, _, _ in parts)),
        layout=tuple((keys[j], 1) for j in key_order),
        A=FMatrix(field, a_sum[rows][:, message_order]),
        B=FMatrix(field, b_sum[rows][:, key_order]),
        messages=tuple((owners[j], 1) for j in message_order) + tuple((q, 0) for q in empty))


def x_form_blocks(scheme):
    used = scheme.B.array.any(axis=0)
    return digit_blocks(np.concatenate([scheme.A.array, scheme.B.array[:, used]], axis=1))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_block_oracle_matches_whole_oracle_on_draws(p):
    rng = random.Random(p * 4409)
    for _ in range(60):
        scheme = cross_check_scheme(rng, p)
        assert_same_report(oracle_verify(scheme), whole_oracle_verify(scheme))


def test_block_oracle_matches_whole_oracle_on_synthesized_schemes(fig4, ex3):
    rng = random.Random(7)
    schemes = [synthesize(fig4), synthesize(ex3)]
    schemes += [two_of_four([rng.randint(0, 2) for _ in EIGHT_SUBSETS]) for _ in range(40)]
    for scheme in schemes:
        assert_same_report(oracle_verify(scheme), whole_oracle_verify(scheme))
    assert all(len(x_form_blocks(s)) > 1 for s in schemes[:2])


def test_block_oracle_matches_whole_oracle_on_direct_sums():
    """Direct sums of two or three drawn schemes, rows and columns permuted:
    leaking and undecodable blocks beside sound ones, and message columns
    that no row reaches."""
    rng = random.Random(9091)
    seen = Counter()
    for _ in range(150):
        p, k = rng.choice([2, 3, 5, 7]), rng.randint(2, 4)
        scheme = direct_sum(rng, p, k, [sum_part(rng, p, k) for _ in range(rng.randint(2, 3))])
        got = oracle_verify(scheme)
        assert_same_report(got, whole_oracle_verify(scheme))
        alg = verify(scheme)
        assert alg.correct == got.correct
        assert {e: v == 0 for e, v in alg.leakage.items()} == got.secure
        checked = [digits for _, digits in x_form_blocks(scheme)
                   if any(j < scheme.L_W for j in digits)]
        seen["several checked blocks"] += len(checked) > 1
        seen["leaks"] += len(checked) > 1 and not all(got.secure.values())
        seen["undecodable"] += len(checked) > 1 and not all(got.correct.values())
        seen["ok"] += len(checked) > 1 and got.ok
        seen["zero message column"] += not scheme.A.array.any(axis=0).all()
    assert all(seen[key] for key in ("several checked blocks", "leaks", "undecodable", "ok",
                                     "zero message column")), seen


def test_block_checks_stay_small(fig4, ex3):
    """fig4 and ex3 count at most 2^8 states per block check, and 2^20-state
    2-of-4 schemes (key sizes up to 4) at most 2^5."""
    for config in (fig4, ex3):
        rep = oracle_verify(synthesize(config))
        assert rep.ok and 0 < rep.block_states <= 1 << 8, rep.block_states
    rng = random.Random(20)
    found = 0
    while found < 3:
        scheme = two_of_four([rng.randint(0, 4) for _ in EIGHT_SUBSETS])
        if scheme.L_W and scheme.L_W + np.count_nonzero(scheme.B.array.any(axis=0)) == 20:
            rep = oracle_verify(scheme)
            assert rep.ok and rep.states == 1 << 20 and rep.block_states <= 1 << 5
            found += 1


# -- simulation -----------------------------------------------------------------

def test_simulate_decodes_and_is_deterministic(ex3):
    from securegroupcast import synthesize
    scheme = synthesize(ex3)
    t1 = simulate(scheme, seed=5)
    t2 = simulate(scheme, seed=5)
    assert t1 == t2
    assert all(w == t1.w for w in t1.decoded.values())
    t3 = simulate(scheme, seed=6)
    assert t3.w != t1.w or t3.s != t1.s


def test_simulate_empty_message():
    empty = LinearScheme.empty(K=3, qualified={1, 2})
    t = simulate(empty, seed=0)
    assert t.w == () and t.x == ()


def test_simulate_large_prime():
    # products of residues overflow int64 at this p
    field = Field(LARGE_P)
    a_, b_, c_ = LARGE_P - 2, LARGE_P // 3, LARGE_P // 5
    scheme = LinearScheme(
        field=field, L=1, K=2, qualified=frozenset({1}),
        layout=((frozenset({1}), 2),), A=FMatrix(field, [[1], [0]]),
        B=FMatrix(field, [[a_, c_ * a_ % LARGE_P], [b_, c_ * b_ % LARGE_P]]))
    assert verify(scheme).correct == {1: True}
    for seed in range(5):
        t = simulate(scheme, seed=seed)
        assert t.decoded[1] == t.w


def test_simulate_flags_broken_decoder(monkeypatch):
    scheme = otp()
    import securegroupcast.scheme as scheme_mod
    good = scheme_mod.decoder_for

    def corrupted(s, k):
        m = good(s, k)
        return FMatrix(s.field, (m.array + 1) % s.p)

    monkeypatch.setattr(scheme_mod, "decoder_for", corrupted)
    with pytest.raises(DecodeFailureError):
        scheme_mod.simulate(scheme, seed=0)


# -- rate bound implication -------------------------------------------------------

def test_verified_schemes_respect_rate_bound(ex1, ex2, ex3, ex4, fig4):
    """A verified scheme's rate never exceeds the conditional-entropy bound
    of the configuration it was built for."""
    from securegroupcast import rate_converse, synthesize
    for config in (ex1, ex2, ex3, ex4, fig4):
        scheme = synthesize(config)
        assert verify(scheme).ok
        assert scheme.rate <= rate_converse(config)
