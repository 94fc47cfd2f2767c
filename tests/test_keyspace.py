import pytest
from hypothesis import given, settings, strategies as st

from securegroupcast import (KeyCollection, KeyConfig, WrongShapeError,
                             canonical_relabel, entropy_of, invert_perm,
                             is_symmetric, mask_of, mutual_info,
                             normalize_labels, set_of)
from securegroupcast.keyspace import EMPTY_COLLECTION


def all_subset_masks(k):
    return range(1, 1 << k)


def brute_entropy(config, receivers, given):
    """Independent re-derivation: walk every subset, count residual symbols."""
    a = mask_of(receivers)
    total = 0
    for m in all_subset_masks(config.K):
        if m & a:
            total += max(0, config.keys.get(m, 0) - given.count(m))
    return total


# -- entropy_of ----------------------------------------------------------------

def test_entropy_given_other_receiver_keys(ex1):
    given = KeyCollection.of_receiver(ex1, 2)
    assert entropy_of(ex1, {1}, given) == 6  # 2 + 1 + 3


def test_entropy_empty_arguments(ex1):
    assert entropy_of(ex1, frozenset(), EMPTY_COLLECTION) == 0


def test_entropy_fully_conditioned(ex1):
    given = KeyCollection.of_receiver(ex1, 1)
    assert entropy_of(ex1, {1}, given) == 0


# -- mutual_info -----------------------------------------------------------------

def test_mutual_info_disjoint_keys(ex2):
    # receiver 1 holds (s1, s13), receiver 2 only s23: nothing in common
    assert mutual_info(ex2, {1}, {2}) == 0


def test_mutual_info_conditioned_on_eavesdropper(ex3):
    given = KeyCollection.of_receiver(ex3, 4)
    got = mutual_info(ex3, {1}, {2}, given)
    # independent oracle: sum over all 15 subsets of {1..4}
    expected = 0
    for m in all_subset_masks(4):
        if m & 0b01 and m & 0b10:
            expected += max(0, ex3.keys.get(m, 0) - given.count(m))
    assert got == expected == 2


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
    given = KeyCollection.of_receiver(config, e)
    for a in range(1 << k):
        for b in range(1 << k):
            joint = entropy_of(config, a | b, given)
            split = (entropy_of(config, a, given) + entropy_of(config, b, given)
                     - mutual_info(config, a, b, given))
            assert joint == split


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 5), st.data())
def test_entropy_scaling(k, t, data):
    sizes = {m: data.draw(st.integers(0, 3)) for m in all_subset_masks(k)}
    config = KeyConfig.of(k, [1], {set_of(m): s for m, s in sizes.items()})
    a = data.draw(st.integers(0, (1 << k) - 1))
    assert entropy_of(config.scaled(t), a) == t * entropy_of(config, a)


def test_entropy_monotone_antitone(ex3):
    given_small = KeyCollection.of_subsets(ex3, [(1, 3)])
    given_large = KeyCollection.of_receiver(ex3, 3)
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


# -- relabelings -----------------------------------------------------------------------

def test_canonical_relabel_moves_qualified_first():
    config = KeyConfig.of(4, [2, 4], {(2, 3): 5})
    relabeled, perm = canonical_relabel(config)
    assert relabeled.qualified == {1, 2}
    assert perm[2] == 1 and perm[4] == 2
    assert relabeled.relabeled(invert_perm(perm)) == config


def test_normalize_2of4_identity_when_already_ordered(ex3):
    norm, perm = normalize_labels(ex3, "groupcast_2of4")
    assert perm == {1: 1, 2: 2, 3: 3, 4: 4}
    assert norm == ex3


def test_normalize_2of4_restores_swapped_labels(ex3):
    swapped = ex3.relabeled({1: 2, 2: 1, 3: 3, 4: 4})
    norm, perm = normalize_labels(swapped, "groupcast_2of4")
    assert norm.key_size({1}) <= norm.key_size({2})
    assert norm.key_size({1, 2, 4}) <= norm.key_size({1, 2, 3})
    assert norm == ex3


def test_normalize_2of4_orders_eavesdroppers():
    config = KeyConfig.of(4, [1, 2], {(1, 2, 3): 1, (1, 2, 4): 2})
    norm, _ = normalize_labels(config, "groupcast_2of4")
    assert norm.key_size({1, 2, 4}) <= norm.key_size({1, 2, 3})


def test_normalize_multicast_k4(ex2):
    norm, perm = normalize_labels(ex2, "multicast_k4")
    e_keys = KeyCollection.of_receiver(norm, 4)
    h1 = entropy_of(norm, {1}, e_keys)
    assert h1 <= entropy_of(norm, {2}, e_keys)
    assert h1 <= entropy_of(norm, {3}, e_keys)
    assert norm.key_size({1, 2}) <= norm.key_size({1, 3})
    assert perm[4] == 4  # the eavesdropper stays put


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
        norm, _ = normalize_labels(config, "groupcast_2of4")
        assert norm.key_size({1}) <= norm.key_size({2})
        assert norm.key_size({1, 2, 4}) <= norm.key_size({1, 2, 3})


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
