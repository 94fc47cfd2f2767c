import random
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from securegroupcast import (KeyConfig, WrongShapeError, canonical_relabel,
                             entropy_of, invert_perm, is_symmetric, mask_of,
                             normalize_labels, set_of)
from table_reference import spill, unpack


def all_subset_masks(k):
    return range(1, 1 << k)


def held_by(config, k):
    """Receiver k's whole keys, as entropy_of's `given`."""
    return {m: size for m, size in config.keys.items() if m >> (k - 1) & 1}


def brute_common(config, a, b, given):
    """I(z_A ; z_B | given): residual symbols of the keys reaching both A and B."""
    return sum(max(0, config.keys.get(m, 0) - given.get(m, 0))
               for m in all_subset_masks(config.K) if m & a and m & b)


def brute_entropy(config, receivers, given):
    """Independent re-derivation: walk every subset, count residual symbols."""
    a = mask_of(receivers)
    total = 0
    for m in all_subset_masks(config.K):
        if m & a:
            total += max(0, config.keys.get(m, 0) - given.get(m, 0))
    return total


# -- entropy_of ----------------------------------------------------------------

def test_entropy_given_other_receiver_keys(ex1):
    given = held_by(ex1, 2)
    assert entropy_of(ex1, {1}, given) == 6  # 2 + 1 + 3


def test_entropy_empty_arguments(ex1):
    assert entropy_of(ex1, frozenset(), {}) == 0


def test_entropy_fully_conditioned(ex1):
    given = held_by(ex1, 1)
    assert entropy_of(ex1, {1}, given) == 0


# -- chain rule and shape properties ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_chain_rule_identity_exhaustive(k, data):
    sizes = {}
    for m in all_subset_masks(k):
        sizes[m] = data.draw(st.integers(0, 3))
    qualified = data.draw(st.integers(1, (1 << k) - 2))
    config = KeyConfig(K=k, qualified_mask=qualified,
                       keys={m: s for m, s in sizes.items() if s})
    e = data.draw(st.sampled_from(sorted(config.eavesdroppers)))
    given = held_by(config, e)
    for a in range(1 << k):
        for b in range(1 << k):
            joint = entropy_of(config, a | b, given)
            split = (entropy_of(config, a, given) + entropy_of(config, b, given)
                     - brute_common(config, a, b, given))
            assert joint == split


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 5), st.data())
def test_entropy_scaling(k, t, data):
    sizes = {m: data.draw(st.integers(0, 3)) for m in all_subset_masks(k)}
    config = KeyConfig.of(k, [1], {set_of(m): s for m, s in sizes.items()})
    a = data.draw(st.integers(0, (1 << k) - 1))
    assert entropy_of(config.scaled(t), a) == t * entropy_of(config, a)


@st.composite
def conditions(draw, config):
    """A receiver's whole key collection, or arbitrary per-key symbol counts
    (absent keys and counts beyond a key's size included)."""
    if draw(st.booleans()):
        return held_by(config, draw(st.integers(1, config.K)))
    masks = draw(st.sets(st.integers(1, (1 << config.K) - 1), max_size=6))
    return {m: draw(st.integers(0, 4)) for m in masks}


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.data())
def test_entropy_of_matches_brute_entropy(k, data):
    keys = {m: data.draw(st.integers(0, 3)) for m in
            data.draw(st.sets(st.integers(1, (1 << k) - 1), max_size=10))}
    qualified = data.draw(st.sets(st.integers(1, k), min_size=1, max_size=k - 1))
    config = KeyConfig.of(k, qualified, {set_of(m): s for m, s in keys.items()})
    receivers = data.draw(st.sets(st.integers(1, k)))
    given = data.draw(conditions(config))
    assert entropy_of(config, receivers, given) == brute_entropy(config, receivers, given)
    assert entropy_of(config, mask_of(receivers), given) == \
        brute_entropy(config, receivers, given)


def test_entropy_monotone_antitone(ex3):
    given_small = {mask_of((1, 3)): ex3.key_size((1, 3))}
    given_large = held_by(ex3, 3)
    assert entropy_of(ex3, {1}) <= entropy_of(ex3, {1, 2})
    assert entropy_of(ex3, {1}, given_large) <= entropy_of(ex3, {1}, given_small)


# -- symmetry detection --------------------------------------------------------------

def test_symmetric_profile(ex4):
    flag, profile = is_symmetric(ex4)
    assert flag
    assert profile == (0, 0, 1, 0, 0, 0)


def test_not_symmetric(ex3):
    flag, _ = is_symmetric(ex3)
    assert not flag


def test_symmetric_requires_all_subsets_present():
    config = KeyConfig.of(3, [1], {(1, 2): 1, (1, 3): 1})  # missing (2,3)
    flag, _ = is_symmetric(config)
    assert not flag


def test_empty_config_is_symmetric():
    config = KeyConfig.of(3, [1], {})
    flag, profile = is_symmetric(config)
    assert flag and profile == (0, 0, 0)


def _is_symmetric_by_class(config):
    """The per-cardinality loop: bin every size by |U|, then check each class
    (in order of its first key) for one size and all C(K, u) subsets.  On
    failure the profile holds the classes that passed before it."""
    profile = [0] * config.K
    per_card = {}
    for m, size in config.keys.items():
        per_card.setdefault(bin(m).count("1"), []).append(size)
    for u, sizes in per_card.items():
        if len(set(sizes)) > 1 or len(sizes) != comb(config.K, u):
            return False, tuple(profile)
        profile[u - 1] = sizes[0]
    return True, tuple(profile)


def _assert_same_verdict(got, expected):
    """The flags agree, and the profiles too where the config is symmetric."""
    assert got[0] == expected[0]
    assert got[1] == (expected[1] if expected[0] else ())


@st.composite
def near_symmetric_configs(draw):
    """Whole cardinality classes of one size each, then a few keys dropped,
    resized or added, so that classes fail early, late or not at all."""
    k = draw(st.integers(2, 6))
    keys = {}
    for u in draw(st.sets(st.integers(1, k))):
        size = draw(st.integers(1, 3))
        keys.update({sum(1 << (r - 1) for r in c): size
                     for c in combinations(range(1, k + 1), u)})
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.integers(1, (1 << k) - 1))
        action = draw(st.sampled_from(["drop", "resize", "add"]))
        if action == "drop":
            keys.pop(m, None)
        else:
            keys[m] = draw(st.integers(1, 3))
    return KeyConfig.of(k, [1], keys)


@settings(max_examples=400, deadline=None)
@given(near_symmetric_configs())
def test_is_symmetric_matches_per_class_loop(config):
    _assert_same_verdict(is_symmetric(config), _is_symmetric_by_class(config))


def test_is_symmetric_matches_per_class_loop_seeded():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        k = rng.randint(2, 7)
        keys = {}
        for u in rng.sample(range(1, k + 1), rng.randint(0, k)):
            size = rng.randint(1, 2)
            keys.update({m: size for m in range(1, 1 << k) if m.bit_count() == u})
        for m in rng.sample(range(1, 1 << k), rng.randint(0, 2)):
            if rng.random() < 0.5:
                keys.pop(m, None)
            else:
                keys[m] = rng.randint(1, 2)
        config = KeyConfig.of(k, [1], keys)
        expected = _is_symmetric_by_class(config)
        _assert_same_verdict(is_symmetric(config), expected)
        outcomes.add((expected[0], any(expected[1])))
    # symmetric, failing at the first class, failing after a passed class
    assert outcomes >= {(True, True), (False, False), (False, True)}


def test_is_symmetric_stops_early_yet_sees_the_last_key_and_a_missing_subset():
    """Whole symmetric configs, then the same with only the last key (in
    mask order) resized, or with one subset of a class left out: the early
    return must still see a difference at the very end, and the closing
    count check a class that lacks one subset."""
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randint(2, 9)
        # no key of all k receivers, so the last key shares its class
        sizes = {u: rng.randint(0, 2) if u < k else 0 for u in range(1, k + 1)}
        keys = {m: sizes[m.bit_count()] for m in range(1, 1 << k) if sizes[m.bit_count()]}
        variants = [dict(keys)]
        if keys:
            last = max(keys)
            variants.append({**keys, last: keys[last] + 1})
            dropped = dict(keys)
            del dropped[rng.choice(sorted(keys))]
            variants.append(dropped)
        for variant in variants:
            config = KeyConfig.of(k, [1], variant)
            assert list(config.keys) == sorted(config.keys)
            expected = _is_symmetric_by_class(config)
            _assert_same_verdict(is_symmetric(config), expected)
            assert expected[0] == (variant is variants[0])


# -- the per-eavesdropper tables ----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.data())
def test_eavesdropper_tables_match_entropies(k, data):
    keys = {m: data.draw(st.one_of(st.integers(0, 3), st.just(10**30)))
            for m in all_subset_masks(k)}
    qualified = data.draw(st.sets(st.integers(1, k), min_size=1, max_size=k - 1))
    config = KeyConfig.of(k, qualified, keys)
    table = config.eavesdropper_tables
    assert config.eavesdropper_tables is table        # built once, then cached
    eaves, _, packed_f, packed_a = table
    assert eaves == tuple(sorted(config.eavesdroppers))
    assert isinstance(packed_f, tuple) and isinstance(packed_a, tuple)
    assert spill(config) == 0
    local = sorted(qualified)
    assert [e for e, _, _ in unpack(config)] == sorted(config.eavesdroppers)
    for e, f, a in unpack(config):
        given_e = held_by(config, e)
        assert a == tuple(entropy_of(config, {q}, given_e) for q in local)
        w_ref = []
        for t in range(len(f)):
            part = sum(1 << (q - 1) for i, q in enumerate(local) if t >> i & 1)
            w_ref.append(sum(size for m, size in config.keys.items()
                             if m & config.qualified_mask == part and part
                             and not m >> (e - 1) & 1))
        assert len(f) == 1 << len(local)
        for s, fs in enumerate(f):
            assert fs == sum(w_ref[t] for t in range(len(f)) if t & s == t)


# -- relabelings against set-by-set and trial references ------------------------------

def _relabel_by_sets(config, perm):
    """Relabel each key through its receiver set."""
    def pm(mask):
        return mask_of(perm[k] for k in set_of(mask))
    return KeyConfig(config.K, pm(config.qualified_mask),
                     dict(sorted((pm(m), s) for m, s in config.keys.items())))


def _normalize_2of4_by_trials(config):
    """Try the four swaps of the qualified pair and the eavesdropper pair on
    relabeled copies, in order; keep the first that meets both orderings."""
    perm0 = canonical_relabel(config)
    base = config.relabeled(perm0)
    for q_swap in (False, True):
        for e_swap in (False, True):
            extra = {1: 2 if q_swap else 1, 2: 1 if q_swap else 2,
                     3: 4 if e_swap else 3, 4: 3 if e_swap else 4}
            cand = base.relabeled(extra)
            if (cand.key_size({1}) <= cand.key_size({2})
                    and cand.key_size({1, 2, 4}) <= cand.key_size({1, 2, 3})):
                perm = {old: extra[perm0[old]] for old in perm0}
                return config.relabeled(perm), perm


def test_relabeled_matches_relabeling_by_sets():
    rng = random.Random(8)
    for _ in range(200):
        k = rng.randint(1, 8)
        keys = {m: rng.randint(1, 3) for m in rng.sample(range(1, 1 << k),
                                                          min(6, (1 << k) - 1))}
        config = KeyConfig(k, rng.randint(1, (1 << k) - 1), keys)
        labels = list(range(1, k + 1))
        rng.shuffle(labels)
        perm = dict(zip(range(1, k + 1), labels))
        got = config.relabeled(perm)
        assert got == _relabel_by_sets(config, perm)
        assert list(got.keys) == sorted(got.keys)


def test_keys_are_read_only():
    keys = {1: 2}
    direct = KeyConfig(3, 1, keys)
    keys[1] = 7                        # the caller's dict is copied, not wrapped
    assert direct.keys[1] == 2
    for config in (KeyConfig.of(3, [1], {(1,): 2}), direct, direct.scaled(1),
                   direct.relabeled({1: 1, 2: 3, 3: 2})):
        assert unpack(config)[0][1] == (0, 2)
        with pytest.raises(TypeError):
            config.keys[1] = 7
        assert unpack(config)[0][1] == (0, 2)
    assert KeyConfig.of(3, [1], {(1,): 2}) == KeyConfig(3, 1, {1: 2}) == direct
    assert KeyConfig(3, 1, {1: 2}) != KeyConfig(3, 1, {1: 3})


def test_normalize_2of4_matches_trial_relabelings():
    rng = random.Random(24)
    sizes = [0, 0, 1, 2]
    for qualified in combinations(range(1, 5), 2):
        for _ in range(60):
            keys = {m: rng.choice(sizes) for m in range(1, 16)}
            config = KeyConfig.of(4, qualified, keys)
            perm = normalize_labels(config, "groupcast_2of4")
            ref_norm, ref_perm = _normalize_2of4_by_trials(config)
            assert config.relabeled(perm) == ref_norm
            assert list(perm.items()) == list(ref_perm.items())


# -- relabelings -----------------------------------------------------------------------

def test_canonical_relabel_moves_qualified_first():
    config = KeyConfig.of(4, [2, 4], {(2, 3): 5})
    perm = canonical_relabel(config)
    relabeled = config.relabeled(perm)
    assert relabeled.qualified == {1, 2}
    assert perm[2] == 1 and perm[4] == 2
    assert relabeled.relabeled(invert_perm(perm)) == config


def test_normalize_2of4_identity_when_already_ordered(ex3):
    perm = normalize_labels(ex3, "groupcast_2of4")
    assert perm == {1: 1, 2: 2, 3: 3, 4: 4}
    assert ex3.relabeled(perm) == ex3


def test_normalize_2of4_restores_swapped_labels(ex3):
    swapped = ex3.relabeled({1: 2, 2: 1, 3: 3, 4: 4})
    norm = swapped.relabeled(normalize_labels(swapped, "groupcast_2of4"))
    assert norm.key_size({1}) <= norm.key_size({2})
    assert norm.key_size({1, 2, 4}) <= norm.key_size({1, 2, 3})
    assert norm == ex3


def test_normalize_2of4_orders_eavesdroppers():
    config = KeyConfig.of(4, [1, 2], {(1, 2, 3): 1, (1, 2, 4): 2})
    norm = config.relabeled(normalize_labels(config, "groupcast_2of4"))
    assert norm.key_size({1, 2, 4}) <= norm.key_size({1, 2, 3})


def test_normalize_multicast_k4(ex2):
    perm = normalize_labels(ex2, "multicast_k4")
    norm = ex2.relabeled(perm)
    e_keys = held_by(norm, 4)
    h1 = entropy_of(norm, {1}, e_keys)
    assert h1 <= entropy_of(norm, {2}, e_keys)
    assert h1 <= entropy_of(norm, {3}, e_keys)
    assert norm.key_size({1, 2}) <= norm.key_size({1, 3})
    assert perm[4] == 4  # the eavesdropper stays put


def _multicast_k4_perm_by_entropy(config):
    """The K=4 ordering from the entropy calculus: canonical labels, then
    H(z_q | z_4) ascending, then the pair key with the first receiver."""
    perm0 = canonical_relabel(config)
    base = config.relabeled(perm0)
    e_keys = held_by(base, 4)
    order = sorted((1, 2, 3), key=lambda q: entropy_of(base, {q}, e_keys))
    first = order[0]
    rest = sorted((q for q in (1, 2, 3) if q != first),
                  key=lambda q: base.key_size({first, q}))
    perm1 = {first: 1, rest[0]: 2, rest[1]: 3, 4: 4}
    return {old: perm1[perm0[old]] for old in perm0}


def test_normalize_multicast_k4_matches_entropy_order():
    rng = random.Random(12)
    for _ in range(400):
        qualified = rng.sample(range(1, 5), 3)
        keys = {m: rng.randint(0, 3) for m in range(1, 16)}
        config = KeyConfig.of(4, qualified, keys)
        assert normalize_labels(config, "multicast_k4") == _multicast_k4_perm_by_entropy(config)


def test_normalize_wrong_shape(fig4):
    with pytest.raises(WrongShapeError):
        normalize_labels(fig4, "groupcast_2of4")
    with pytest.raises(WrongShapeError):
        normalize_labels(fig4, "multicast_k4")


def test_normalize_always_possible_for_2of4():
    """Some qualified/eavesdropper swap always satisfies both orderings."""
    for l1, l2, l123, l124 in [(0, 3, 1, 2), (3, 0, 2, 1), (1, 1, 5, 0)]:
        config = KeyConfig.of(4, [1, 2], {(1,): l1, (2,): l2,
                                          (1, 2, 3): l123, (1, 2, 4): l124})
        norm = config.relabeled(normalize_labels(config, "groupcast_2of4"))
        assert norm.key_size({1}) <= norm.key_size({2})
        assert norm.key_size({1, 2, 4}) <= norm.key_size({1, 2, 3})


def test_normalize_2of4_ordering_on_every_config_with_sizes_0_1():
    """All 32,768 configs with sizes 0..1 over the 15 subsets, the qualified
    pair cycling over all six: relabeled through the permutation, the
    qualified pair is {1, 2}, l1 <= l2 and l124 <= l123."""
    pairs = list(combinations(range(1, 5), 2))
    for bits in range(1 << 15):
        config = KeyConfig.of(4, pairs[bits % 6], {m: bits >> (m - 1) & 1 for m in range(1, 16)})
        perm = normalize_labels(config, "groupcast_2of4")
        assert sorted(perm) == sorted(perm.values()) == [1, 2, 3, 4]
        norm = config.relabeled(perm)
        assert norm.qualified == {1, 2}
        assert norm.key_size({1}) <= norm.key_size({2})
        assert norm.key_size({1, 2, 4}) <= norm.key_size({1, 2, 3})


def test_normalize_multicast_k4_ordering_on_every_config_with_sizes_0_2():
    """All 2,187 K = 4 one-eavesdropper configs whose seven keys the
    eavesdropper lacks are sized 0..2, the eavesdropper cycling over 1..4:
    relabeled through the permutation, receiver 4 is the eavesdropper,
    H(z_1 | z_4) is least among the qualified and l12 <= l13."""
    for i, sizes in enumerate(product(range(3), repeat=7)):
        qualified = [k for k in range(1, 5) if k != 4 - i % 4]
        subsets = [s for n in (1, 2, 3) for s in combinations(qualified, n)]
        config = KeyConfig.of(4, qualified, dict(zip(subsets, sizes)))
        perm = normalize_labels(config, "multicast_k4")
        assert sorted(perm) == sorted(perm.values()) == [1, 2, 3, 4]
        norm = config.relabeled(perm)
        assert norm.eavesdroppers == {4}
        h = [entropy_of(norm, {q}, held_by(norm, 4)) for q in (1, 2, 3)]
        assert h[0] == min(h)
        assert norm.key_size({1, 2}) <= norm.key_size({1, 3})


def test_config_views_are_cached_per_config():
    config = KeyConfig.of(5, [2, 4], {(2, 3): 1})
    assert (config.qualified, config.eavesdroppers, config.N) == ({2, 4}, {1, 3, 5}, 2)
    assert config.qualified is config.qualified
    assert config.eavesdroppers is config.eavesdroppers
    calls = []

    def fact(c):
        calls.append(c)
        return c.N + 1
    assert config.memo(fact) == config.memo(fact) == 3
    twin = KeyConfig.of(5, [2, 4], {(2, 3): 1})
    assert twin == config and twin.memo(fact) == 3
    assert len(calls) == 2 and calls[1] is twin   # kept per config object, not per value


# -- validation -----------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        KeyConfig.of(3, [], {})
    with pytest.raises(ValueError):
        KeyConfig.of(3, [1, 2, 3], {})  # no eavesdropper left
    with pytest.raises(ValueError):
        KeyConfig.of(3, [1], {(4,): 1})  # subset outside [1..K]
    with pytest.raises(ValueError):
        KeyConfig.of(3, [1], {(1,): -2})


@pytest.mark.parametrize("size", [1.5, 2.0, True, "2", None])
def test_config_rejects_non_integer_key_size(size):
    with pytest.raises(ValueError):
        KeyConfig.of(3, [1], {(1, 2): size})
