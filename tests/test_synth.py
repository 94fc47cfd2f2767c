import random
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from gf2_reference import assert_same_bytes, instance_2of5_dense
from groupcast_reference import groupcast_2of4_per_bit
from paper_reference import k4_beta_star
from securegroupcast import (KeyConfig, UnsolvedSettingError, WrongShapeError,
                             keyspace, oracle_verify, rate_converse, verify)
from securegroupcast.bounds import aligned_2of5_key_size, exact_capacity
from securegroupcast.scheme import LinearScheme
from securegroupcast.synth import (COMPONENTS, MatrixTooLargeError, SegmentAllocator,
                                   SynthesisError, build_verified, component_counts,
                                   component_instance, groupcast_2of4,
                                   instance_2of5, multicast, multicast_k4_bw,
                                   symmetric, synthesize, unicast)


def subset_sizes(**kw):
    """Sizes keyed like s1=, s2=, s13=, s123=... into subset dict."""
    return {frozenset(int(c) for c in name[1:]): v for name, v in kw.items()}


# -- unicast ---------------------------------------------------------------

def test_unicast_example(ex1):
    s = unicast(ex1)
    assert (s.L_W, s.L_X, s.L) == (5, 5, 1)
    assert s.p >= 15
    assert verify(s).ok


def test_unicast_single_key_stack():
    config = KeyConfig.of(2, [1], {(1,): 3})
    s = unicast(config)
    assert s.L_W == 3 and s.L_X == 3
    assert verify(s).ok


def test_unicast_degenerate_empty():
    config = KeyConfig.of(2, [1], {(1, 2): 5})
    s = unicast(config)
    assert s.L_W == 0 and s.L_X == 0
    assert s.meta["degenerate"]


def test_unicast_relabels_back():
    config = KeyConfig.of(3, [2], {(2, 3): 2, (1, 2): 1})
    s = unicast(config)
    assert s.qualified == {2}
    assert {sub for sub, _ in s.layout} == {frozenset({2, 3}), frozenset({1, 2})}
    assert verify(s).ok


# -- multicast -------------------------------------------------------------

def test_multicast_example_plain(ex2):
    s = multicast(ex2)
    assert (s.L_W, s.L_X) == (3, 6)
    assert verify(s).ok


def test_multicast_shared_key_only():
    config = KeyConfig.of(3, [1, 2], {(1, 2): 2})
    s = multicast(config)
    assert s.L_W == 2 and s.L_X == 2
    assert verify(s).ok


def test_multicast_eavesdropper_knows_all_keys():
    config = KeyConfig.of(3, [1, 2], {(1, 2, 3): 4})
    s = multicast(config)
    assert s.L_W == 0 and s.meta["degenerate"]


def test_multicast_k4_bw_example(ex2):
    s = multicast_k4_bw(ex2)
    assert (s.L_W, s.L_X) == (3, 6)
    assert verify(s).ok


def test_multicast_k4_bw_rejects_other_shapes(ex1, ex3):
    for config in (ex1, ex3):
        with pytest.raises(WrongShapeError):
            multicast_k4_bw(config)


def test_multicast_k4_bw_equal_entropies_sends_every_key():
    config = KeyConfig.of(4, [1, 2, 3], {(1,): 2, (2,): 2, (3,): 1, (1, 2): 1,
                                         (1, 3): 2, (2, 3): 2, (1, 2, 3): 1})
    s = multicast_k4_bw(config)
    assert s.L_X == 11  # every secure key symbol broadcast once
    assert verify(s).ok


def test_multicast_k4_bw_truncates_when_pair_key_huge():
    config = KeyConfig.of(4, [1, 2, 3], {(1,): 1, (1, 3): 2, (2, 3): 9})
    s = multicast_k4_bw(config)
    # receiver-1 blocks (1 + 2 rows) plus the {2,3} block truncated to 3 rows
    assert s.L_W == 3 and s.L_X == 6
    assert verify(s).ok
    leftover = [w for sub, w in s.layout if sub == frozenset({2, 3})]
    assert leftover == [9]  # budget kept, surplus columns simply unused


# The keys that receiver 4, the eavesdropper of the K = 4 one-eavesdropper
# setting, lacks.
K4_SECURE_KEYS = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def test_multicast_k4_bw_matches_formula_on_sweep():
    rng = random.Random(7)
    for _ in range(80):
        keys = {}
        for subset in K4_SECURE_KEYS:
            size = rng.randint(0, 3)
            if size:
                keys[subset] = size
        config = KeyConfig.of(4, [1, 2, 3], keys)
        s = multicast_k4_bw(config, seed=1)
        exact = exact_capacity(config)
        assert s.rate == exact.C
        assert s.bandwidth == exact.beta_star == k4_beta_star(config)
        assert verify(s).ok


def test_k4_one_eavesdropper_exhaustive_meets_paper_beta_star():
    """Every K = 4 config with qualified {1, 2, 3} whose seven secure keys
    are sized 0..2 (3^7 = 2,187): synthesize verifies, meets C, and sends
    exact_capacity's beta*, which is the paper's closed form."""
    for sizes in product(range(3), repeat=len(K4_SECURE_KEYS)):
        config = KeyConfig.of(4, [1, 2, 3], dict(zip(K4_SECURE_KEYS, sizes)))
        exact = exact_capacity(config)
        s = synthesize(config)
        assert verify(s).ok and s.rate == exact.C, sizes
        assert s.bandwidth == exact.beta_star == k4_beta_star(config), sizes


def test_k4_one_eavesdropper_synthesis_normalizes_once(ex2, monkeypatch):
    """exact_capacity reads the K = 4 beta* off bw_converse, so only the
    builder relabels the config."""
    original = keyspace.normalize_labels
    calls = []

    def counting(config, setting):
        calls.append(setting)
        return original(config, setting)
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "securegroupcast"
                and getattr(module, "normalize_labels", None) is original):
            monkeypatch.setattr(module, "normalize_labels", counting)
    assert synthesize(ex2).meta["builder"] == "multicast_k4_bw"
    assert calls == ["multicast_k4"]


@pytest.mark.parametrize("config, builder, states", [
    (KeyConfig.of(4, [1, 2, 3], {(1,): 1, (1, 2): 1, (2, 3): 1}), "multicast_k4_bw", 27),
    (KeyConfig.of(5, [1, 2], {(k,): 1 for k in range(1, 6)}), "symmetric", 27),
    (KeyConfig.of(6, [1, 2, 3], {(k,): 1 for k in range(1, 7)}), "symmetric", 625),
], ids=["k4_multicast_small", "sym_5_2", "sym_6_3"])
def test_cauchy_builder_schemes_agree_with_oracle(config, builder, states):
    """The Cauchy builders' schemes are small enough for the oracle, whose
    verdicts must match the rank verifier's."""
    s = synthesize(config)
    assert s.meta["builder"] == builder and s.p > 2
    rep, oracle = verify(s), oracle_verify(s)
    assert oracle.states == states
    assert oracle.correct == rep.correct
    assert oracle.secure == {e: leak == 0 for e, leak in rep.leakage.items()}
    assert rep.ok


# -- 2-of-4 ------------------------------------------------------------------

def test_components_all_verified_by_oracle():
    for name in COMPONENTS:
        inst = component_instance(name)
        assert verify(inst).ok, name
        rep = oracle_verify(inst)
        assert rep.ok, name
        assert rep.correct == {1: True, 2: True}


def test_component_signatures():
    assert COMPONENTS["OTP12"].tx_bits == 1
    assert COMPONENTS["Cmp1"].tx_bits == 1
    for name in ("Cmp2", "Cmp3", "Cmp4", "Cmp5", "Cmp6"):
        assert COMPONENTS[name].tx_bits == 2
    assert COMPONENTS["Cmp6"].consumes == (frozenset({1, 3}), frozenset({1, 4}),
                                           frozenset({2, 3}), frozenset({2, 4}))


def test_groupcast_2of4_example(ex3):
    s = groupcast_2of4(ex3)
    assert s.p == 2 and (s.L_W, s.L_X) == (5, 9)
    assert verify(s).ok


def test_groupcast_2of4_pure_pad():
    config = KeyConfig.of(4, [1, 2], {(1, 2): 3})
    s = groupcast_2of4(config)
    assert (s.L_W, s.L_X) == (3, 3)
    assert verify(s).ok


def test_groupcast_2of4_deep_case_branch():
    # drives the branch where the triple-key surplus over the pair keys
    # limits the last component: R = l12 + l1 + l13 + l123
    sizes = subset_sizes(s1=0, s2=10, s13=1, s14=5, s23=0, s24=1, s123=3, s124=0)
    counts, case = component_counts(sizes)
    assert case == "1.2.3"
    config = KeyConfig.of(4, [1, 2], {tuple(sorted(k)): v for k, v in sizes.items() if v})
    s = groupcast_2of4(config)
    assert s.L_W == 0 + 0 + 1 + 3  # l12 + l1 + l13 + l123
    assert verify(s).ok


def test_groupcast_2of4_counts_match_formulas_small_sweep():
    rng = random.Random(11)
    subsets = [(1,), (2,), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
               (1, 2, 3), (1, 2, 4)]
    for _ in range(150):
        keys = {sub: rng.randint(0, 4) for sub in subsets}
        config = KeyConfig.of(4, [1, 2], {k: v for k, v in keys.items() if v})
        s = groupcast_2of4(config)
        exact = exact_capacity(config)
        assert s.rate == exact.C == rate_converse(config)
        assert s.bandwidth == exact.beta_star
        assert verify(s).ok


def test_groupcast_2of4_ignores_useless_keys(ex3):
    # the ex3 keys plus junk known to both eavesdroppers or to no
    # qualified receiver: numbers must not move
    noisy = KeyConfig.of(4, [1, 2], {(1,): 1, (2,): 2, (1, 3): 2, (1, 4): 3,
                                     (2, 3): 1, (2, 4): 2, (1, 2, 3): 2,
                                     (1, 2, 4): 1, (3,): 5, (4,): 2, (3, 4): 7,
                                     (1, 3, 4): 1, (2, 3, 4): 2, (1, 2, 3, 4): 3})
    s = groupcast_2of4(noisy)
    assert (s.L_W, s.L_X) == (5, 9)
    layout_subsets = {sub for sub, _ in s.layout}
    assert frozenset({3, 4}) not in layout_subsets
    assert frozenset({1, 3, 4}) not in layout_subsets
    assert verify(s).ok


def test_groupcast_2of4_key_budget_never_exceeded():
    rng = random.Random(99)
    subsets = [(1,), (2,), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
               (1, 2, 3), (1, 2, 4)]
    for _ in range(60):
        keys = {sub: rng.randint(0, 3) for sub in subsets}
        config = KeyConfig.of(4, [1, 2], {k: v for k, v in keys.items() if v})
        s = groupcast_2of4(config)
        for subset, width in s.layout:
            assert width == config.key_size(subset) * s.L


def test_segment_allocator_refuses_past_width():
    alloc = SegmentAllocator([(frozenset({1}), 2), (frozenset({1, 2}), 1)])
    assert alloc.take(frozenset({1})) == [0]
    assert alloc.take(frozenset({1, 2})) == [2]
    with pytest.raises(SynthesisError, match="budget exceeded"):
        alloc.take(frozenset({1}), 2)
    assert alloc.take(frozenset({1})) == [1]      # the refused take spent nothing
    for subset in (frozenset({1}), frozenset({1, 2})):
        with pytest.raises(SynthesisError, match="budget exceeded"):
            alloc.take(subset)


def _same_scheme(got, want):
    assert got.A == want.A and got.B == want.B
    assert (got.qualified, got.layout, got.L) == (want.qualified, want.layout, want.L)
    assert list(got.meta.items()) == list(want.meta.items())
    assert list(got.meta["counts"].items()) == list(want.meta["counts"].items())


def test_groupcast_2of4_matches_per_bit_reference_on_small_sizes():
    """Template stamping against the bit-by-bit assembly: every useful-size
    vector with sizes 0..1."""
    subsets = [(1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 4), (2, 4), (1, 2, 4)]
    for sizes in product((0, 1), repeat=len(subsets)):
        config = KeyConfig.of(4, [1, 2], {sub: v for sub, v in zip(subsets, sizes) if v})
        _same_scheme(groupcast_2of4(config), groupcast_2of4_per_bit(config))


def test_groupcast_2of4_matches_per_bit_reference_on_random_configs():
    """Sizes 0..6 on every subset, any qualified pair: the caller-label
    table and the stamping give the reference's scheme."""
    rng = random.Random(23)
    every = [sub for r in range(1, 5) for sub in combinations(range(1, 5), r)]
    for _ in range(2000):
        qualified = rng.sample(range(1, 5), 2)
        config = KeyConfig.of(4, qualified, {sub: v for sub in every if (v := rng.randint(0, 6))})
        seed = rng.randrange(4)
        _same_scheme(groupcast_2of4(config, seed), groupcast_2of4_per_bit(config, seed))


def test_groupcast_2of4_refuses_a_count_past_the_key_budget(ex3, monkeypatch):
    """A case tree that spends one bit of s1 past its width stops at the
    allocator: Cmp2 already spends all l1 bits of s1."""
    import securegroupcast.synth.groupcast24 as groupcast24
    original = groupcast24.component_counts

    def over(sizes):
        counts, case = original(sizes)
        assert counts["Cmp2"] == sizes[frozenset({1})]
        return {**counts, "Cmp2": counts["Cmp2"] + 1}, case

    monkeypatch.setattr(groupcast24, "component_counts", over)
    with pytest.raises(SynthesisError, match="budget exceeded"):
        groupcast_2of4(ex3)


# -- symmetric -----------------------------------------------------------------

def test_symmetric_example(ex4):
    s = symmetric(ex4)
    assert (s.L_W, s.L_X) == (6, 10)
    assert verify(s).ok
    groups = s.meta["groups"]
    assert [(g["rate"], g["bandwidth"]) for g in groups] == [(1, 1), (4, 6), (1, 3)]


def test_symmetric_rejects_asymmetric(ex3):
    with pytest.raises(WrongShapeError):
        symmetric(ex3)


def test_symmetric_pure_pad_group():
    # all 1- and 2-subset keys present with equal sizes; the {1,2} key is a
    # plain one-time-pad group
    config = KeyConfig.of(4, [1, 2], {(s,): 2 for s in range(1, 5)}
                          | {sub: 1 for sub in [(1, 2), (1, 3), (1, 4),
                                                (2, 3), (2, 4), (3, 4)]})
    s = symmetric(config)
    assert verify(s).ok
    exact = exact_capacity(config)
    assert s.rate == exact.C and s.bandwidth == exact.beta_star


def test_symmetric_empty_profile():
    config = KeyConfig.of(4, [1, 2], {})
    s = symmetric(config)
    assert s.L_W == 0 and s.meta["degenerate"]


def test_symmetric_non_canonical_qualified_labels():
    from itertools import combinations
    config = KeyConfig.of(5, [2, 4], {sub: 1 for sub in combinations(range(1, 6), 2)})
    s = symmetric(config)
    assert s.qualified == {2, 4}
    assert verify(s).ok
    exact = exact_capacity(config)
    assert s.rate == exact.C and s.bandwidth == exact.beta_star


def test_symmetric_various_shapes_meet_formulas():
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randint(2, 6)
        n = rng.randint(1, k - 1)
        profile = {u: rng.randint(0, 2) for u in range(1, k + 1)}
        from itertools import combinations
        keys = {}
        for u, size in profile.items():
            if size:
                for sub in combinations(range(1, k + 1), u):
                    keys[sub] = size
        config = KeyConfig.of(k, list(range(1, n + 1)), keys)
        s = symmetric(config, seed=2)
        exact = exact_capacity(config)
        assert s.rate == exact.C
        assert s.bandwidth == exact.beta_star
        assert verify(s).ok


# -- aligned 2-of-5 ---------------------------------------------------------------

def test_instance_2of5_unit():
    s = instance_2of5(1)
    assert (s.p, s.L, s.L_W, s.L_X) == (2, 3, 5, 10)
    assert s.rate == Fraction(5, 3) and s.bandwidth == Fraction(10, 3)
    assert verify(s).ok


def test_instance_2of5_scaled_rate_adds():
    s = instance_2of5(2)
    assert s.rate == Fraction(10, 3) and s.bandwidth == Fraction(20, 3)
    assert verify(s).ok


def test_instance_2of5_uses_full_key_budget():
    s = instance_2of5(1)
    assert all((s.B.array[:, c] != 0).any() for c in range(s.D))


def test_instance_2of5_matches_dense_reference_under_every_relabeling(fig4):
    """The stamped rows against the cell-by-cell assembly: key sizes 0..6
    under all 120 labelings, built directly and, for key size >= 1,
    through synthesize on the relabeled scaled config."""
    for ell in range(7):
        for image in permutations(range(1, 6)):
            perm = dict(zip(range(1, 6), image))
            assert_same_bytes(instance_2of5(ell, 3, perm), instance_2of5_dense(ell, 3, perm))
            if ell:
                config = fig4.scaled(ell).relabeled(perm)
                key_size, caller_perm = aligned_2of5_key_size(config)
                assert key_size == ell
                assert_same_bytes(synthesize(config), instance_2of5_dense(ell, 0, caller_perm))


@pytest.mark.parametrize("scale, perm", [(1, None), (3, {1: 2, 2: 1, 3: 5, 4: 3, 5: 4})],
                         ids=["fig4", "scaled_relabeled"])
def test_synthesize_calls_the_public_aligned_builder(fig4, monkeypatch, scale, perm):
    """synthesize looks the aligned builder up by its public name, as the
    traced benchmark run rebinds it, so a wrapper there sees each call."""
    import securegroupcast.synth as synth_pkg
    calls = []
    original = synth_pkg.instance_2of5

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(synth_pkg, "instance_2of5", counting)
    config = fig4.scaled(scale)
    s = synthesize(config.relabeled(perm) if perm else config)
    assert len(calls) == 1
    assert s.meta["builder"] == "instance_2of5" and s.meta["key_size"] == scale


def test_traced_benchmark_finds_every_name_it_wraps(monkeypatch):
    """bench/tracing.py looks each layer's functions up by name; a renamed
    or deleted one would fail only the traced benchmark run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing
    assert list(tracing.Tracer(())._targets())


# -- verification gate ---------------------------------------------------------------

def test_build_verified_gives_up():
    from securegroupcast.fmatrix import FMatrix
    from securegroupcast.gf import Field
    f = Field(2)
    leaky = LinearScheme(field=f, L=1, K=2, qualified=frozenset({1}), layout=(),
                         A=FMatrix.identity(f, 1), B=FMatrix.zeros(f, 1, 0),
                         meta={"builder": "leaky"})  # message in the clear
    with pytest.raises(SynthesisError, match="leaky"):
        build_verified(leaky)


def test_instance_2of5_verifies_its_output(monkeypatch):
    import securegroupcast.synth.instance25 as instance25
    rows = list(instance25._BASE_ROWS)
    rows[2] = (1, ())                        # W2 sent without its pad a1
    monkeypatch.setattr(instance25, "_BASE_ROWS", tuple(rows))
    with pytest.raises(SynthesisError):
        instance_2of5(1)


# -- dispatch ------------------------------------------------------------------------

def test_synthesize_routes_by_shape(ex1, ex2, ex3, ex4, fig4):
    assert synthesize(ex1).meta["builder"] == "unicast"
    assert synthesize(ex2).meta["builder"] == "multicast_k4_bw"
    assert synthesize(ex3).meta["builder"] == "groupcast_2of4"
    assert synthesize(ex4).meta["builder"] == "symmetric"
    assert synthesize(fig4).meta["builder"] == "instance_2of5"
    # a solved shape at rate 0 keeps its builder
    zero_2of4 = KeyConfig.of(4, [1, 2], {(1, 2, 3, 4): 2})
    assert synthesize(zero_2of4).meta["builder"] == "groupcast_2of4"


def test_synthesize_aligned_2of5_relabeled(fig4):
    perm = {1: 2, 2: 1, 3: 5, 4: 3, 5: 4}
    config = fig4.relabeled(perm)
    s = synthesize(config)
    assert s.meta["builder"] == "instance_2of5"
    assert s.qualified == {1, 2}
    assert verify(s).ok


def test_synthesize_aligned_2of5_relabeled_builds_one_echelon_form(fig4, monkeypatch):
    # the scheme is verified after relabeling, so its cached echelon form
    # serves the caller's verify too
    from securegroupcast.fmatrix import ColumnRanks
    builds = 0
    init = ColumnRanks.__init__

    def counting_init(self, m):
        nonlocal builds
        builds += 1
        init(self, m)

    monkeypatch.setattr(ColumnRanks, "__init__", counting_init)
    s = synthesize(fig4.scaled(3).relabeled({1: 2, 2: 1, 3: 5, 4: 3, 5: 4}))
    assert verify(s).ok
    assert builds == 1


@pytest.mark.parametrize("name, perm", [
    ("ex2", {1: 3, 2: 4, 3: 1, 4: 2}),
    ("ex3", {1: 2, 2: 1, 3: 4, 4: 3}),
    ("ex4", {1: 2, 2: 4, 3: 6, 4: 1, 5: 3, 6: 5}),
    ("fig4", {1: 2, 2: 1, 3: 5, 4: 3, 5: 4}),
])
def test_label_dependent_synthesis_builds_one_scheme(name, perm, request, monkeypatch):
    # the builders compute in normalized labels but write the one scheme
    # they return in the caller's, with no relabeled second copy
    config = request.getfixturevalue(name).relabeled(perm)
    built = 0
    post_init = LinearScheme.__post_init__

    def counting_post_init(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(LinearScheme, "__post_init__", counting_post_init)
    s = synthesize(config)
    assert built == 1
    assert s.qualified == config.qualified


def test_synthesize_plain_multicast_for_k5():
    config = KeyConfig.of(5, [1, 2, 3, 4], {(1, 2): 1, (3, 4): 1, (1, 3): 1,
                                            (2, 4): 1, (1, 4): 1, (2, 3): 1})
    s = synthesize(config)
    assert s.meta["builder"] == "multicast"
    assert verify(s).ok


def test_synthesize_unsolved_setting():
    config = KeyConfig.of(5, [1, 2], {(1,): 1, (1, 2, 3): 2, (2, 4): 1})
    with pytest.raises(UnsolvedSettingError):
        synthesize(config)


def test_synthesize_zero_rate_gives_empty_scheme():
    config = KeyConfig.of(5, [1, 2, 4], {(1,): 2, (5,): 1, (1, 3, 5): 1,
                                         (1, 2, 4, 5): 1})
    s = synthesize(config, seed=3)
    assert s.meta == {"builder": "zero_rate", "degenerate": True, "seed": 3,
                      "escalations": 0}
    assert (s.K, s.qualified, s.L_W, s.L_X) == (5, {1, 2, 4}, 0, 0)
    assert verify(s).ok and oracle_verify(s).ok


def test_synthesize_rejects_a_verified_scheme_below_capacity(ex3, one_cmp3_dropped):
    below = groupcast_2of4(ex3)
    assert verify(below).ok and below.rate == exact_capacity(ex3).C - 1
    with pytest.raises(SynthesisError, match="rate 4.*C = 5"):
        synthesize(ex3)


def test_synthesize_rejects_bandwidth_above_beta_star(monkeypatch):
    import securegroupcast.synth as synth_mod
    config = KeyConfig.of(4, [1, 2, 3], {(1,): 1, (1, 3): 2, (2, 3): 9})
    # the plain one-eavesdropper builder meets C but sends every key symbol
    monkeypatch.setattr(synth_mod, "multicast_k4_bw", multicast)
    with pytest.raises(SynthesisError, match="bandwidth 12.*beta\\* = 6"):
        synthesize(config)


def test_synthesized_rate_is_exact_capacity(ex1, ex2, ex3, ex4, fig4):
    for config in (ex1, ex2, ex3, ex4, fig4):
        s = synthesize(config)
        exact = exact_capacity(config)
        assert s.rate == exact.C
        if exact.beta_star is not None:
            assert s.bandwidth == exact.beta_star


# -- the cell budget, synthesis's one size check -------------------------------------

UNUSED_KEY = 1 << 64   # past int64; held by no qualified receiver, so in no scheme


def budget_configs():
    """Configs of every solved setting, key sizes 0..3.  Unicast, one
    eavesdropper (K = 4, 5), 2-of-4 and zero-rate configs also get a key of
    UNUSED_KEY symbols on a subset of the eavesdroppers; a symmetric or
    aligned 2-of-5 config with such a key is no longer recognized."""
    rng = random.Random(30)
    configs = []
    for K, qualified in [(2, [1]), (3, [2]), (4, [3]), (4, [1, 2, 3]), (5, [1, 2, 3, 5]),
                         (4, [1, 2]), (5, [1, 2]), (5, [1, 3, 4])]:
        eaves = [k for k in range(1, K + 1) if k not in qualified]
        subsets = [s for u in range(1, K + 1) for s in combinations(range(1, K + 1), u)]
        for _ in range(30):
            keys = {s: rng.randint(0, 3) for s in rng.sample(subsets, rng.randint(1, min(5, len(subsets))))}
            if rng.random() < 0.5:
                keys[tuple(sorted(rng.sample(eaves, rng.randint(1, len(eaves)))))] = UNUSED_KEY
            configs.append(KeyConfig.of(K, qualified, keys))
    for _ in range(60):
        K = rng.randint(3, 6)
        profile = [rng.randint(0, 3) for _ in range(K)]
        configs.append(KeyConfig.of(K, list(range(1, rng.randint(2, K - 1) + 1)), {
            s: profile[u - 1] for u in range(1, K + 1) for s in combinations(range(1, K + 1), u)}))
    for ell in range(6):
        perm = dict(zip(range(1, 6), rng.sample(range(1, 6), 5)))
        configs.append(KeyConfig.of(5, [perm[1], perm[2]], {
            tuple(perm[k] for k in s): ell for s in
            ((1,), (1, 2, 3), (1, 4, 5), (2, 4), (2, 5))}))
    return [c for c in configs if exact_capacity(c) is not None]


@pytest.mark.parametrize("budget", [1 << 4, 1 << 6, 1 << 8])
def test_synthesis_refuses_exactly_past_the_cell_budget(budget, monkeypatch):
    """Under a budget of b cells, synthesize raises MatrixTooLargeError
    exactly when A or B of the scheme built at the real budget has
    max(rows, 1) * cols > b, and otherwise builds that scheme."""
    import securegroupcast.synth._common as common
    configs = budget_configs()
    built = [synthesize(c) for c in configs]
    assert {exact_capacity(c).setting for c in configs} == {
        "unicast", "multicast", "groupcast_2of4", "aligned_2of5", "symmetric", "zero_rate"}
    unused = {(exact_capacity(c).setting, c.K) for c in configs if UNUSED_KEY in c.keys.values()}
    assert {setting for setting, _ in unused} == {
        "unicast", "multicast", "groupcast_2of4", "zero_rate"}
    assert {K for setting, K in unused if setting == "multicast"} == {4, 5}
    monkeypatch.setattr(common, "CELL_BUDGET", budget)
    outcomes = set()
    for config, scheme in zip(configs, built):
        past = max(max(m.rows, 1) * m.cols for m in (scheme.A, scheme.B)) > budget
        outcomes.add(past)
        if past:
            with pytest.raises(MatrixTooLargeError, match=f"budget of 2\\^{budget.bit_length() - 1}"):
                synthesize(config)
        else:
            assert synthesize(config) == scheme
    assert outcomes == {False, True}
