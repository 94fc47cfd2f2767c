import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from paper_reference import paper_exact, symmetric_exact
from table_reference import spill, unpack
from securegroupcast import (KeyConfig, aligned_2of5_key_size, bw_converse,
                             canonical_relabel, entropy_of, exact_capacity,
                             invert_perm, mask_of, normalize_labels, rate_converse,
                             report, set_of)
from securegroupcast.bounds import (ALIGNED_2OF5, ALIGNED_2OF5_KEYS, GROUPCAST_2OF4,
                                    MULTICAST, SYMMETRIC, UNICAST, ZERO_RATE,
                                    BoundsReport, BwBound)


def held_by(config, k):
    """Receiver k's whole keys, as entropy_of's `given`."""
    return {m: size for m, size in config.keys.items() if m >> (k - 1) & 1}


# -- reference converses: the group-by-group loops, one entropy_of per term ------

def _rate_converse_loop(config):
    best = None
    for e in sorted(config.eavesdroppers):
        given = held_by(config, e)
        for q in sorted(config.qualified):
            h = entropy_of(config, {q}, given)
            if best is None or h < best:
                best = h
    return best


def _bw_converse_loop(config, rate):
    rate = Fraction(rate)
    best = Fraction(0)
    best_witness = None
    qmask = config.qualified_mask
    for e in sorted(config.eavesdroppers):
        given = held_by(config, e)
        sub = qmask
        while sub:
            members = set_of(sub)
            singles = sum(entropy_of(config, {q}, given) for q in members)
            joint = entropy_of(config, sub, given)
            value = len(members) * rate - (singles - joint)
            if value > best:
                best = value
                best_witness = (e, members)
            sub = (sub - 1) & qmask
    value = int(best) if best.denominator == 1 else best
    return BwBound(value=value, witness=best_witness)


def _penalty(config, e, group):
    """sum over keys U without e of max(|U cap Q| - 1, 0) * l_U."""
    q = sum(1 << (k - 1) for k in group)
    return sum(max((m & q).bit_count() - 1, 0) * size
               for m, size in config.keys.items() if not m >> (e - 1) & 1)


# -- rate converse ---------------------------------------------------------

def test_rate_converse_unicast_example(ex1):
    assert rate_converse(ex1) == 5  # min(6, 5, 6)


def test_rate_converse_2of4_example(ex3):
    assert rate_converse(ex3) == 5  # min(5, 5, 5, 5)


def test_rate_converse_zero_when_eavesdropper_knows_everything():
    config = KeyConfig.of(3, [1], {(1, 2): 4})
    assert rate_converse(config) == 0


# -- bandwidth converse ---------------------------------------------------------

def test_bw_converse_2of4_example(ex3):
    assert bw_converse(ex3, 5).value == 9


def test_bw_converse_symmetric_example(ex4):
    assert bw_converse(ex4, 6).value == 10


def test_bw_converse_zero_rate(ex3):
    assert bw_converse(ex3, 0) == BwBound(value=0, witness=None)


def test_bw_converse_multicast_example(ex2):
    assert bw_converse(ex2, 3).value == 6


def test_bw_converse_fig4(fig4):
    assert bw_converse(fig4, Fraction(5, 3)).value == Fraction(10, 3)


def test_bw_converse_at_least_rate_for_positive_rate(ex1, ex2, ex3, ex4, fig4):
    for config in (ex1, ex2, ex3, ex4, fig4):
        r = rate_converse(config)
        if r > 0:
            assert bw_converse(config, r).value >= r


def test_bw_converse_private_keys_full_group_wins():
    # No key reaches two qualified receivers, so no group pays a penalty.
    config = KeyConfig.of(5, [1, 2, 4], {(1,): 2, (2,): 3, (4,): 2, (3, 5): 7})
    rate = rate_converse(config)
    got = bw_converse(config, rate)
    assert rate == 2 and got.value == 6
    assert got.witness == (3, frozenset({1, 2, 4}))
    assert got == _bw_converse_loop(config, rate)


def test_bw_converse_witness_tie_order():
    # Every group of one eavesdropper ties with the first eavesdropper's;
    # the witness is the first maximizer: e ascending, Q descending.
    config = KeyConfig.of(4, [1, 2], {(1,): 1, (2,): 1})
    got = bw_converse(config, 1)
    assert got.value == 2
    assert got.witness == (3, frozenset({1, 2}))
    assert got == _bw_converse_loop(config, 1)


@st.composite
def configs_and_rates(draw):
    k = draw(st.integers(2, 8))
    qualified = draw(st.sets(st.integers(1, k), min_size=1, max_size=k - 1))
    qmask = sum(1 << (q - 1) for q in qualified)
    full = (1 << k) - 1
    if draw(st.booleans()):
        masks = st.integers(1, full)
    else:
        # private keys: at most one qualified holder, so larger groups win
        masks = st.tuples(st.sampled_from([0] + [1 << (q - 1) for q in qualified]),
                          st.integers(0, full & ~qmask)).map(sum).filter(bool)
    sizes = st.one_of(st.integers(0, 3), st.integers(0, 10**30), st.just(10**30))
    keys = draw(st.dictionaries(masks, sizes, max_size=12))
    config = KeyConfig.of(k, qualified, keys)
    upper = rate_converse(config)
    rate = draw(st.one_of(
        st.just(0), st.just(upper), st.integers(0, 6),
        st.fractions(0, 10, max_denominator=7),
        st.fractions(0, 10**30, max_denominator=3)))
    return config, rate


@settings(max_examples=400, deadline=None)
@given(configs_and_rates())
def test_converses_match_reference_loops(case):
    config, rate = case
    assert rate_converse(config) == _rate_converse_loop(config)
    assert bw_converse(config, rate) == _bw_converse_loop(config, rate)


def test_converses_match_reference_loops_where_larger_groups_win():
    rng = random.Random(2007)
    larger, huge = 0, 0
    for _ in range(300):
        k = rng.randint(3, 8)
        qualified = rng.sample(range(1, k + 1), rng.randint(2, k - 1))
        scale = rng.choice([1, 10**30])
        keys = {}
        for m in rng.sample(range(1, 1 << k), min(rng.randint(1, 10), (1 << k) - 1)):
            if rng.random() < 0.6 and len(set_of(m) & set(qualified)) > 1:
                continue  # lean towards keys private to one qualified receiver
            keys[m] = rng.randint(1, 3) * scale
        config = KeyConfig.of(k, qualified, keys)
        rate = rng.choice([rate_converse(config),
                           Fraction(rng.randint(1, 9), rng.randint(1, 4)) * scale])
        assert rate_converse(config) == _rate_converse_loop(config)
        got = bw_converse(config, rate)
        assert got == _bw_converse_loop(config, rate)
        if got.witness is not None and len(got.witness[1]) > 1:
            larger += 1
            huge += scale > 1
    assert larger > 100 and huge > 30


# -- the packed eavesdropper table: edge cases ---------------------------------------

def _assert_packed_table_exact(config, rates=(1, Fraction(5, 3))):
    """Every slot of the packed table against entropy_of, and the converses
    against the reference loops at the rate converse and `rates`."""
    qualified = sorted(config.qualified)
    qmask = config.qualified_mask
    assert spill(config) == 0
    tables = unpack(config)
    assert [e for e, _, _ in tables] == sorted(config.eavesdroppers)
    for e, f, a in tables:
        given = held_by(config, e)
        assert a == tuple(entropy_of(config, {q}, given) for q in qualified)
        reach = entropy_of(config, qmask, given)
        for s, fs in enumerate(f):   # the keys e lacks with no qualified holder outside s
            inside = mask_of(q for i, q in enumerate(qualified) if s >> i & 1)
            assert fs == reach - entropy_of(config, qmask & ~inside, given)
    upper = rate_converse(config)
    assert upper == _rate_converse_loop(config)
    for rate in {upper, *rates}:
        assert bw_converse(config, rate) == _bw_converse_loop(config, rate)


def _huge_key_lacked_by(e, small):
    """K = 5, qualified {1, 2}: a key of 10^30 symbols that every receiver
    but e holds, beside `small` keys of 1 symbol."""
    return KeyConfig.of(5, [1, 2], {frozenset(range(1, 6)) - {e}: 10**30,
                                    **{subset: 1 for subset in small}})


@pytest.mark.parametrize("e", [3, 4, 5])
def test_packed_table_huge_slot_beside_small_ones(e):
    """Eavesdropper e's slot reaches N * 10^30 in bw_converse (its one
    penalty-bearing key covers the qualified pair) while the other slots
    hold single symbols, with the huge key alone and among small keys."""
    _assert_packed_table_exact(_huge_key_lacked_by(e, []), rates=(1, 10**30))
    small = [(1,), (2, 3), (1, 2, 4), (2, 5), (1, 3, 4)]
    _assert_packed_table_exact(_huge_key_lacked_by(e, small), rates=(1, 10**30))


def test_packed_table_mixes_one_and_huge_sizes():
    rng = random.Random(30)
    for _ in range(150):
        k = rng.randint(3, 7)
        qualified = rng.sample(range(1, k + 1), rng.randint(1, k - 1))
        keys = {m: rng.choice([1, 1, 2, 10**30])
                for m in rng.sample(range(1, 1 << k), rng.randint(1, 7))}
        _assert_packed_table_exact(KeyConfig.of(k, qualified, keys),
                                   rates=(1, 10**30, Fraction(10**30, 3)))


def test_packed_table_key_every_eavesdropper_lacks():
    config = KeyConfig.of(5, [1, 2], {(1, 2): 3, (1,): 1, (2, 4): 2})
    assert [a for _, _, a in unpack(config)] == [(4, 5), (4, 3), (4, 5)]
    _assert_packed_table_exact(config)


def test_packed_table_keys_no_qualified_receiver_holds():
    config = KeyConfig.of(5, [1, 2], {(3,): 10**30, (4, 5): 7, (3, 4, 5): 1,
                                      (1, 3): 2, (2, 4): 1})
    assert [f[-1] for _, f, _ in unpack(config)] == [1, 2, 3]
    _assert_packed_table_exact(config)
    only_outside = KeyConfig.of(4, [1], {(2,): 5, (3, 4): 10**30})
    assert all(f == (0, 0) and a == (0,) for _, f, a in unpack(only_outside))
    _assert_packed_table_exact(only_outside)


@pytest.mark.parametrize("qualified", [list(range(1, 12)), [5]],
                         ids=["one_eavesdropper", "eleven_eavesdroppers"])
def test_packed_table_one_and_eleven_eavesdroppers(qualified):
    rng = random.Random(len(qualified))
    for scale in (1, 10**30):
        keys = {m: rng.randint(1, 3) * scale for m in rng.sample(range(1, 1 << 12), 40)}
        config = KeyConfig.of(12, qualified, keys)
        assert len(unpack(config)) == 12 - len(qualified)
        _assert_packed_table_exact(config, rates=(Fraction(5, 3) * scale,))


def test_report_k20_n10():
    rng = random.Random(20)
    qualified = list(range(1, 11))
    masks = rng.sample(range(1, 1 << 20), 2011)
    config = KeyConfig.of(20, qualified, {m: rng.randint(1, 3) for m in masks})
    rep = report(config)
    assert rep.rate_upper == _rate_converse_loop(config)
    assert rep.exact is None
    got = bw_converse(config, rep.rate_upper)
    assert got.value == rep.bw_lower >= rep.rate_upper
    e, group = got.witness
    assert got.value == len(group) * rep.rate_upper - _penalty(config, e, group)
    for _ in range(50):  # no sampled group beats the witness
        e = rng.choice(sorted(config.eavesdroppers))
        group = rng.sample(qualified, rng.randint(1, 10))
        assert len(group) * rep.rate_upper - _penalty(config, e, group) <= got.value


# -- full reports against the reference loops -----------------------------------------

def _fresh(config):
    """An equal config whose cached tables have not been built."""
    return KeyConfig.of(config.K, config.qualified_mask, dict(config.keys))


def _report_from_loops(config):
    """report() assembled from the reference loops, on an untouched copy."""
    upper = _rate_converse_loop(config)
    exact = exact_capacity(_fresh(config))
    bw = _bw_converse_loop(config, exact.C if exact is not None else upper)
    return BoundsReport(rate_upper=upper, bw_lower=bw.value, exact=exact,
                        gap=exact is not None and exact.C < upper)


@st.composite
def report_configs(draw):
    kind = draw(st.sampled_from(["drawn", "aligned", "blind"]))
    if kind == "aligned":   # the aligned 2-of-5 topology: C = 5l/3, a Fraction
        ell = draw(st.one_of(st.integers(1, 4), st.just(10**30)))
        perm = draw(st.permutations(range(1, 6)))
        base = KeyConfig.of(5, [1, 2], {(1,): ell, (1, 2, 3): ell, (1, 4, 5): ell,
                                        (2, 4): ell, (2, 5): ell})
        return base.relabeled(dict(zip(range(1, 6), perm)))
    config, _ = draw(configs_and_rates())
    if kind == "blind":     # receiver K holds every key: rate 0
        config = KeyConfig.of(config.K + 1, config.qualified_mask,
                              {m | 1 << config.K: s for m, s in config.keys.items()})
    return config


@settings(max_examples=300, deadline=None)
@given(report_configs())
def test_report_matches_reference_loops(config):
    assert report(config) == _report_from_loops(config)


def test_report_matches_reference_loops_seeded(fig4):
    rng = random.Random(4409)
    seen = {"fraction": 0, "zero": 0, "huge": 0, "larger group": 0}
    configs = [fig4, fig4.scaled(10**30), fig4.relabeled({1: 2, 2: 1, 3: 5, 4: 3, 5: 4})]
    for _ in range(150):
        k = rng.randint(3, 8)
        qualified = rng.sample(range(1, k + 1), rng.randint(1, k - 1))
        qmask = sum(1 << (q - 1) for q in qualified)
        scale = rng.choice([1, 10**30])
        private = rng.random() < 0.5
        keys = {}
        for m in rng.sample(range(1, 1 << k), min(rng.randint(0, 12), (1 << k) - 1)):
            if private and (m & qmask).bit_count() > 1:
                continue
            keys[m] = rng.randint(1, 3) * scale
        config = KeyConfig.of(k, qualified, keys)
        configs.append(config)
        if rng.random() < 0.2:   # one eavesdropper learns every key: rate 0
            e = rng.choice(sorted(config.eavesdroppers))
            configs.append(KeyConfig.of(k, qualified,
                                        {m | 1 << (e - 1): s for m, s in keys.items()}))
    for config in configs:
        got = report(config)
        assert got == _report_from_loops(config)
        seen["fraction"] += isinstance(got.bw_lower, Fraction)
        seen["zero"] += got.rate_upper == 0
        seen["huge"] += got.rate_upper >= 10**30
        seen["larger group"] += got.bw_lower > got.rate_upper
    assert min(seen.values()) >= 3, seen


def test_call_order_does_not_change_answers(ex1, ex2, ex3, ex4, fig4):
    """The cached tables give every call order the answers of fresh configs."""
    from itertools import permutations
    rng = random.Random(91)
    configs = [ex1, ex2, ex3, ex4, fig4] + [random_config(rng, 6) for _ in range(6)]
    calls = {
        "rate": rate_converse,
        "bw": lambda c: bw_converse(c, rate_converse(_fresh(c))),
        "bw_half": lambda c: bw_converse(c, Fraction(1, 2)),
        "exact": exact_capacity,
        "report": report,
    }
    for config in configs:
        expected = {name: call(_fresh(config)) for name, call in calls.items()}
        for order in list(permutations(calls))[::6]:
            once = _fresh(config)
            for name in order:
                assert calls[name](once) == expected[name], (config, order, name)
            for name in order:   # and again, from the warm cache
                assert calls[name](once) == expected[name], (config, order, name)


# -- exact capacity dispatch -------------------------------------------------------

def test_exact_unicast(ex1):
    got = exact_capacity(ex1)
    assert (got.setting, got.C, got.beta_star) == ("unicast", 5, 5)


def test_exact_multicast_k4(ex2):
    got = exact_capacity(ex2)
    assert (got.setting, got.C, got.beta_star) == ("multicast", 3, 6)


def test_exact_2of4(ex3):
    got = exact_capacity(ex3)
    assert (got.setting, got.C, got.beta_star) == ("groupcast_2of4", 5, 9)


def test_exact_symmetric(ex4):
    got = exact_capacity(ex4)
    assert (got.setting, got.C, got.beta_star) == ("symmetric", 6, 10)


def test_exact_aligned_2of5(fig4):
    got = exact_capacity(fig4)
    assert got.setting == "aligned_2of5"
    assert got.C == Fraction(5, 3)
    assert got.beta_star == Fraction(10, 3)


def test_exact_aligned_2of5_scaled(fig4):
    got = exact_capacity(fig4.scaled(3))
    assert got.C == 5 and got.beta_star == 10  # integral at key size 3


def test_aligned_2of5_detector_on_relabelings(fig4):
    for perm in [{1: 2, 2: 1, 3: 4, 4: 5, 5: 3}, {1: 1, 2: 2, 3: 5, 4: 3, 5: 4}]:
        detected = aligned_2of5_key_size(fig4.relabeled(perm))
        assert detected is not None and detected[0] == 1


def test_aligned_2of5_detector_rejects_near_misses(fig4):
    # unequal sizes
    cfg = KeyConfig.of(5, [1, 2], {(1,): 2, (1, 2, 3): 1, (1, 4, 5): 1,
                                   (2, 4): 1, (2, 5): 1})
    assert aligned_2of5_key_size(cfg) is None
    # wrong subset structure
    cfg = KeyConfig.of(5, [1, 2], {(1,): 1, (1, 2, 3): 1, (1, 4, 5): 1,
                                   (2, 4): 1, (3, 5): 1})
    assert aligned_2of5_key_size(cfg) is None


def _aligned_2of5_by_search(config):
    """Reference: relabel canonically, then try both orders of the qualified
    pair and all six of the eavesdroppers; the first relabeling that names
    the five keys wins."""
    sizes = set(config.keys.values())
    if config.K != 5 or config.N != 2 or len(config.keys) != 5 or len(sizes) != 1:
        return None
    perm0 = canonical_relabel(config)
    base = config.relabeled(perm0)
    for q_order in ((1, 2), (2, 1)):
        for e_order in permutations((3, 4, 5)):
            extra = dict(zip(range(1, 6), q_order + e_order))
            if set(base.relabeled(extra).keys) == set(map(mask_of, ALIGNED_2OF5_KEYS)):
                return sizes.pop(), {old: extra[perm0[old]] for old in perm0}
    return None


def _aligned_2of5_near_miss(rng):
    """The aligned topology under a random relabeling, mostly with one defect:
    a receiver moved in or out of one key, one size off, or the wrong
    qualified pair."""
    perm = dict(zip(range(1, 6), rng.sample(range(1, 6), 5)))
    masks = [mask_of(perm[k] for k in subset) for subset in ALIGNED_2OF5_KEYS]
    sizes = [rng.randint(1, 3)] * 5
    qualified = [perm[1], perm[2]]
    defect = rng.randrange(8)
    if defect < 4:
        masks[rng.randrange(5)] ^= 1 << rng.randrange(5)
    elif defect == 4:
        sizes[rng.randrange(5)] += 1
    elif defect < 7:
        qualified = rng.sample(range(1, 6), 2)
    return KeyConfig.of(5, qualified, {m: size for m, size in zip(masks, sizes) if m})


def test_aligned_2of5_labels_match_search(fig4):
    for ell in (1, 3):
        for perm in permutations(range(1, 6)):
            config = fig4.scaled(ell).relabeled(dict(zip(range(1, 6), perm)))
            got = aligned_2of5_key_size(config)
            assert got is not None and got == _aligned_2of5_by_search(config)
    rng = random.Random(25)
    matches = 0
    for _ in range(5000):
        config = _aligned_2of5_near_miss(rng)
        got = aligned_2of5_key_size(config)
        assert got == _aligned_2of5_by_search(config)
        matches += got is not None
    assert 0 < matches < 5000


def test_exact_none_for_open_shapes():
    config = KeyConfig.of(5, [1, 2], {(1,): 1, (1, 2, 3): 2, (2, 4): 1})
    assert exact_capacity(config) is None


def test_exact_zero_rate_for_unrecognized_shape():
    # K = 5, N = 3: not one of the proven shapes, but eavesdropper 5 holds
    # every key of receiver 2, so the rate converse is 0
    config = KeyConfig.of(5, [1, 2, 4], {(1,): 2, (5,): 1, (1, 3, 5): 1,
                                         (1, 2, 4, 5): 1})
    got = exact_capacity(config)
    assert (got.setting, got.C, got.beta_star) == ("zero_rate", 0, 0)
    rep = report(config)
    assert (rep.rate_upper, rep.bw_lower, rep.gap) == (0, 0, False)


def test_exact_zero_rate_comes_after_the_proven_shapes():
    solved = {
        "unicast": KeyConfig.of(3, [1], {(1, 2): 1}),
        "multicast": KeyConfig.of(3, [1, 2], {(1, 2, 3): 4}),
        "groupcast_2of4": KeyConfig.of(4, [1, 2], {(1, 2, 3, 4): 2}),
        "symmetric": KeyConfig.of(5, [1, 2], {}),
    }
    for setting, config in solved.items():
        got = exact_capacity(config)
        assert (got.setting, got.C, got.beta_star) == (setting, 0, 0)


def test_exact_none_only_when_rate_positive():
    rng = random.Random(12)
    seen = {"zero_rate": 0, None: 0}
    for _ in range(300):
        k = rng.randint(5, 6)
        keys = {m: rng.randint(1, 3) for m in rng.sample(range(1, 1 << k), rng.randint(2, 6))}
        config = KeyConfig(k, rng.choice([m for m in range(1, 1 << k)
                                          if 2 <= m.bit_count() <= k - 2]), keys)
        exact = exact_capacity(config)
        setting = None if exact is None else exact.setting
        if setting in seen:
            seen[setting] += 1
            assert (rate_converse(config) == 0) == (setting == "zero_rate")
    assert min(seen.values()) >= 5, seen


def test_multicast_beta_unknown_for_k5_unequal():
    config = KeyConfig.of(5, [1, 2, 3, 4], {(1,): 1, (2,): 2, (1, 2): 1})
    got = exact_capacity(config)
    assert got.setting == "multicast"
    assert got.beta_star is None


def test_multicast_beta_equal_conditional_entropies():
    config = KeyConfig.of(5, [1, 2, 3, 4], {(1, 2): 1, (3, 4): 1, (1, 3): 1,
                                            (2, 4): 1, (1, 4): 1, (2, 3): 1})
    got = exact_capacity(config)
    assert got.setting == "multicast"
    assert got.C == 3
    assert got.beta_star == 6  # all secure keys counted once


def test_multicast_k4_formula_matches_sum_when_equal():
    # equal conditional entropies force l2 = l1 + l13 - l23, l3 = l1 + l12 - l23
    config = KeyConfig.of(4, [1, 2, 3], {(1,): 2, (2,): 2, (3,): 1, (1, 2): 1,
                                         (1, 3): 2, (2, 3): 2, (1, 2, 3): 1})
    got = exact_capacity(config)
    assert got.beta_star == 2 + 2 + 1 + 1 + 2 + 2 + 1


@pytest.mark.parametrize("K, qualified, keys, setting", [
    (4, [2, 3], {(2,): 1, (3,): 2, (1, 2): 2, (2, 4): 3, (1, 3): 1, (3, 4): 2,
                 (1, 2, 3): 1, (2, 3, 4): 2}, GROUPCAST_2OF4),
    (5, [2, 4], {(2,): 1, (1, 2, 4): 1, (2, 3, 5): 1, (3, 4): 1, (4, 5): 1}, ALIGNED_2OF5),
], ids=["2of4", "aligned_2of5"])
def test_report_and_synthesize_recognize_the_setting_once(monkeypatch, K, qualified, keys,
                                                          setting):
    """exact_capacity keeps its answer on the config: report and
    synthesize share one recognition, and an equal config is recognized
    on its own."""
    import securegroupcast.bounds as bounds_module
    from securegroupcast import synthesize
    calls = []
    original = bounds_module._recognize

    def counting(config):
        calls.append(config)
        return original(config)
    monkeypatch.setattr(bounds_module, "_recognize", counting)
    config = KeyConfig.of(K, qualified, keys)
    rep = report(config)
    scheme = synthesize(config)
    assert [c is config for c in calls] == [True]
    assert rep.exact is exact_capacity(config)
    assert rep.exact.setting == setting and scheme.rate == rep.exact.C
    twin = KeyConfig.of(K, qualified, keys)
    assert exact_capacity(twin) == rep.exact and len(calls) == 2


# -- gap diagnostics -------------------------------------------------------------------

def test_gap_flagged_on_aligned_topology(fig4):
    rep = report(fig4)
    assert rep.gap
    assert rep.rate_upper == 2
    assert rep.exact.C == Fraction(5, 3)


def test_no_gap_on_unicast(ex1):
    rep = report(ex1)
    assert not rep.gap


def test_no_gap_all_zero_keys():
    config = KeyConfig.of(3, [1], {})
    rep = report(config)
    assert not rep.gap and rep.exact.C == 0


def test_report_fields(ex3):
    rep = report(ex3)
    assert rep.rate_upper == 5
    assert rep.bw_lower == 9
    assert rep.exact.C == 5
    assert not rep.gap


def _counting_bw_converse(monkeypatch):
    """Patch bounds.bw_converse to record each rate it runs at."""
    import securegroupcast.bounds as bounds_module
    real = bounds_module.bw_converse
    rates = []

    def counting(config, rate):
        rates.append(rate)
        return real(config, rate)

    monkeypatch.setattr(bounds_module, "bw_converse", counting)
    return rates


def test_report_runs_bw_converse_once(ex2, monkeypatch):
    """beta* is the bandwidth converse at C, and report reads bw_lower
    off it: at K = 4 with unequal H(z_q | z_4) (ex2) and at K = 3 with
    equal H(z_q | z_3) alike."""
    rates = _counting_bw_converse(monkeypatch)
    assert len(set(unpack(ex2)[0][2])) > 1
    rep = report(ex2)
    assert rates == [rep.exact.C]
    assert rep.bw_lower == rep.exact.beta_star == bw_converse(ex2, rep.exact.C).value
    rates.clear()
    equal = KeyConfig.of(3, [1, 2], {(1,): 2, (2,): 2, (1, 2): 1, (2, 3): 1, (1, 3): 3})
    assert len(set(unpack(equal)[0][2])) == 1
    rep = report(equal)
    assert (rep.exact.setting, rep.exact.C, rep.exact.beta_star) == (MULTICAST, 3, 5)
    assert rates == [rep.exact.C]
    assert rep.bw_lower == rep.exact.beta_star


@pytest.mark.parametrize("K, qualified, keys, setting", [
    (4, [1], {(1, 2): 4, (1, 3): 2, (1, 4): 1, (1, 3, 4): 3}, UNICAST),
    (4, [1, 2, 3], {(1,): 1, (1, 3): 2, (2, 3): 3}, MULTICAST),
    (5, [1, 2, 3, 4], {(1,): 2, (2,): 3, (3,): 2, (1, 2, 4): 1, (3, 4, 5): 1}, MULTICAST),
    (4, [1, 3], {(1,): 1, (3,): 1, (1, 3): 1, (2, 3): 1, (1, 3, 4): 1}, GROUPCAST_2OF4),
    (5, [2, 4], {(2,): 1, (1, 2, 4): 1, (2, 3, 5): 1, (3, 4): 1, (4, 5): 1}, ALIGNED_2OF5),
    (5, [1, 2], {(k,): 1 for k in range(1, 6)}, SYMMETRIC),
    (5, [1, 2], {(3, 4): 2}, ZERO_RATE),
], ids=["unicast", "k4", "k5_unknown", "2of4", "aligned_2of5", "symmetric", "zero_rate"])
def test_bounds_report_then_synthesize_runs_bw_converse_once(monkeypatch, K, qualified,
                                                            keys, setting):
    """sgc bounds then sgc synth on one config, in the 2-of-4 sweep's
    order, compute the bandwidth converse once: beta* is read inside the
    memoized exact_capacity, and where it is unknown only report needs
    the converse at C."""
    from securegroupcast import cli, synthesize
    obj = {"K": K, "qualified": qualified,
           "keys": [{"subset": list(s), "symbols": n} for s, n in keys.items()]}
    rates = _counting_bw_converse(monkeypatch)
    config = cli.config_from_obj(obj)
    out = cli.bounds_report_obj(config)
    scheme = synthesize(config)
    assert out["setting"] == setting and scheme.rate == exact_capacity(config).C
    assert rates == [exact_capacity(config).C]


def test_synthesize_skips_bw_converse_where_beta_star_is_unknown(monkeypatch):
    """One eavesdropper at K = 5 with unequal H(z_q | z_e): beta* is
    unknown, so synthesize holds the scheme to C alone and never runs the
    bandwidth converse."""
    from securegroupcast import synthesize
    rates = _counting_bw_converse(monkeypatch)
    config = KeyConfig.of(5, [1, 2, 3, 4], {(1,): 2, (2,): 3, (3,): 2, (1, 2, 4): 1,
                                            (3, 4, 5): 1})
    scheme = synthesize(config)
    assert exact_capacity(config).beta_star is None and scheme.rate == 1
    assert rates == []


# -- the paper's closed forms (tests/paper_reference.py) ---------------------------------

def _requalified(config, qualified):
    return KeyConfig.from_masks(config.K, mask_of(qualified), config.keys.items())


def _assert_meets_paper(config, setting):
    exact = exact_capacity(config)
    assert exact is not None and exact.setting == setting, config
    assert (exact.C, exact.beta_star) == paper_exact(config, setting), config


def test_exact_capacity_meets_the_paper_on_every_small_2of4_config():
    """All 32,768 configs with qualified {1, 2} and sizes 0..1 on the 15
    subsets of [1..4]."""
    for bits in range(1 << 15):
        config = KeyConfig.from_masks(4, 0b11, [(m, bits >> (m - 1) & 1) for m in range(1, 16)])
        _assert_meets_paper(config, GROUPCAST_2OF4)


def test_exact_capacity_meets_the_paper_on_symmetric_profiles():
    """Symmetric profiles at K = 3..8 and any N: the paper's symmetric
    C and beta* hold in whichever setting is recognized first."""
    rng = random.Random(91)
    seen = set()
    for k in range(3, 9):
        for _ in range(30):
            profile = [rng.randint(0, 3) for _ in range(k)]
            qualified = rng.sample(range(1, k + 1), rng.randint(1, k - 1))
            config = KeyConfig.of(k, qualified, {m: profile[m.bit_count() - 1]
                                                 for m in range(1, 1 << k)})
            exact = exact_capacity(config)
            seen.add(exact.setting)
            assert (exact.C, exact.beta_star) == symmetric_exact(config), config
            _assert_meets_paper(config, exact.setting)
    assert {UNICAST, MULTICAST, GROUPCAST_2OF4, SYMMETRIC} <= seen


def test_exact_capacity_meets_the_paper_on_aligned_2of5_relabelings(fig4):
    for ell in range(1, 7):
        for perm in permutations(range(1, 6)):
            config = fig4.scaled(ell).relabeled(dict(zip(range(1, 6), perm)))
            _assert_meets_paper(config, ALIGNED_2OF5)


def test_exact_capacity_meets_the_paper_on_unicast_and_one_eavesdropper():
    """Unicast at K = 2..6; one eavesdropper at K = 3..6, drawn, and made
    equal-entropy by topping up each qualified receiver's private key."""
    rng = random.Random(93)
    unknown = 0
    for _ in range(300):
        k = rng.randint(2, 6)
        _assert_meets_paper(_requalified(random_config(rng, k), [rng.randint(1, k)]),
                            UNICAST)
        k = rng.randint(3, 6)
        config = _requalified(random_config(rng, k), rng.sample(range(1, k + 1), k - 1))
        _assert_meets_paper(config, MULTICAST)
        unknown += exact_capacity(config).beta_star is None
        ((e, _, conds),) = unpack(config)
        top = max(conds)
        keys = dict(config.keys)
        for q, h in zip(sorted(config.qualified), conds):
            keys[1 << (q - 1)] = keys.get(1 << (q - 1), 0) + top - h
        equal = KeyConfig.from_masks(k, config.qualified_mask, keys.items())
        assert len(set(unpack(equal)[0][2])) == 1
        _assert_meets_paper(equal, MULTICAST)
    assert unknown >= 50


# -- structural properties ----------------------------------------------------------------

def random_config(rng, k=None):
    k = k or rng.randint(2, 5)
    qualified = rng.sample(range(1, k + 1), rng.randint(1, k - 1))
    keys = {}
    for m in range(1, 1 << k):
        size = rng.randint(0, 3)
        if size:
            keys[set_of(m)] = size
    return KeyConfig.of(k, qualified, keys)


def test_homogeneity_of_bounds():
    rng = random.Random(12)
    for _ in range(40):
        config = random_config(rng)
        t = rng.randint(0, 4)
        scaled = config.scaled(t)
        assert rate_converse(scaled) == t * rate_converse(config)
        r = rate_converse(config)
        assert bw_converse(scaled, t * r).value == t * bw_converse(config, r).value
        exact = exact_capacity(config)
        exact_t = exact_capacity(scaled)
        if exact is not None and t > 0:
            assert exact_t is not None
            assert exact_t.C == t * exact.C
            if exact.beta_star is not None:
                assert exact_t.beta_star == t * exact.beta_star


def test_relabel_invariance_of_bounds():
    rng = random.Random(34)
    from itertools import permutations
    for _ in range(40):
        config = random_config(rng)
        k = config.K
        perms = [dict(zip(range(1, k + 1), p))
                 for p in permutations(range(1, k + 1))]
        qualified_preserving = [p for p in perms
                                if {p[q] for q in config.qualified} == config.qualified]
        perm = rng.choice(qualified_preserving)
        relabeled = config.relabeled(perm)
        assert rate_converse(relabeled) == rate_converse(config)
        r = rate_converse(config)
        assert bw_converse(relabeled, r).value == bw_converse(config, r).value
        a, b = exact_capacity(config), exact_capacity(relabeled)
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.C, a.beta_star) == (b.C, b.beta_star)


def test_exact_capacity_never_exceeds_rate_converse():
    rng = random.Random(56)
    for _ in range(60):
        config = random_config(rng)
        exact = exact_capacity(config)
        if exact is not None:
            assert exact.C <= rate_converse(config)


def _settled_configs(rng, fig4, rounds):
    """Configs of every setting with a known beta*: drawn ones (mostly
    unicast and one eavesdropper), K = 4 (one eavesdropper, 2-of-4),
    symmetric profiles at K = 3..6, relabeled aligned 2-of-5 topologies,
    and sparse K = 5 ones whose rate converse is mostly 0."""
    for _ in range(rounds):
        yield random_config(rng)
        yield random_config(rng, 4)
        k = rng.randint(3, 6)
        profile = [rng.randint(0, 2) for _ in range(k)]
        yield KeyConfig.of(k, rng.sample(range(1, k + 1), rng.randint(1, k - 1)),
                           {m: profile[m.bit_count() - 1] for m in range(1, 1 << k)})
        perm = rng.sample(range(1, 6), 5)
        yield fig4.scaled(rng.randint(1, 3)).relabeled(dict(zip(range(1, 6), perm)))
        yield KeyConfig.of(5, rng.sample(range(1, 6), rng.randint(2, 3)),
                           {rng.randint(1, 31): rng.randint(1, 2) for _ in range(3)})


def _beta_star_witnesses(config, setting):
    """The (e, Q) pairs among which bw_converse's objective reaches beta*."""
    if setting in (UNICAST, ZERO_RATE):
        return [(e, {q}) for e in config.eavesdroppers for q in config.qualified]
    if setting == MULTICAST and len(set(unpack(config)[0][2])) > 1:
        back = invert_perm(normalize_labels(config, "multicast_k4"))
        return [(back[4], {back[q] for q in group}) for group in ({1, 2}, {1, 2, 3})]
    return [(e, config.qualified) for e in config.eavesdroppers]


def test_bw_lower_never_exceeds_beta_star(fig4):
    """beta* meets the paper's closed form wherever it is known, and the
    bandwidth converse at C reaches it through a named witness.

    beta* is the bandwidth of a verified scheme at rate C, so no converse
    exceeds it; bounds reads beta* off bw_converse at C, and equality
    with the paper needs one witness (e, Q) whose objective
    |Q| C - penalty(e, Q) reaches beta*.  Q = {q} gives C - 0 = C for
    unicast and 0 at rate 0.  Q = all qualified reaches it for one
    eavesdropper with equal H(z_q | z_e) (|Q| C = sum over keys U without
    e of |U| l_U, the penalty takes (|U| - 1) l_U, and sum l_U = beta*
    is left), for 2-of-4 (e is the eavesdropper whose {1, 2, e} key is
    larger: penalty l12 + min l12e), for symmetric profiles and for
    aligned 2-of-5 (e = the eavesdropper in the shared key: penalty 0).
    For one eavesdropper at K = 4 with unequal entropies, Q = {1, 2} and
    Q = {1, 2, 3} in normalized labels give the two terms of the paper's
    max.
    """
    seen = set()
    for config in _settled_configs(random.Random(78), fig4, 400):
        exact = exact_capacity(config)
        if exact is None or exact.beta_star is None:
            continue
        seen.add(exact.setting)
        assert (exact.C, exact.beta_star) == paper_exact(config, exact.setting), config
        assert max(len(group) * Fraction(exact.C) - _penalty(config, e, group)
                   for e, group in _beta_star_witnesses(config, exact.setting)) \
            == exact.beta_star
    assert seen == {UNICAST, MULTICAST, GROUPCAST_2OF4, SYMMETRIC, ALIGNED_2OF5, ZERO_RATE}
