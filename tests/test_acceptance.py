"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expected values are the published ones for the five
canned instances; sweeps recompute every formula independently inside the
test before comparing.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from securegroupcast import (KeyConfig, TooLargeError, bw_converse,
                             exact_capacity, oracle_verify, rate_converse,
                             report, synthesize, verify)
from securegroupcast.synth import (min_bandwidth, multimessage,
                                   region_violation, unicast)
from state_reference import random_scheme


@contextmanager
def criterion(number, description, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    dt = time.perf_counter() - t0
    print(f"\n[PASS] criterion {number}: {description} "
          f"({dt:.2f}s, budget {budget_s:.0f}s)")
    assert dt <= budget_s, f"runtime {dt:.2f}s over the {budget_s}s budget"


def test_criterion_1_unicast_example(ex1):
    """Unicast instance: C = 5, bandwidth 5, zero leakage at receivers 2-4."""
    with criterion(1, "unicast example: C=5, beta*=5, zero leakage", 1.0):
        exact = exact_capacity(ex1)
        assert exact.C == 5 and exact.beta_star == 5
        scheme = synthesize(ex1)
        assert scheme.L_W == 5 and scheme.L_X == 5 and scheme.L == 1
        rep = verify(scheme)
        assert rep.correct[1]
        assert rep.leakage == {2: 0, 3: 0, 4: 0}
        # The emitted scheme lives over GF(17) (the Cauchy matrix needs
        # 15 distinct points), so its 17^15 joint states exceed any
        # feasible exhaustive-oracle cap; the oracle refuses per its
        # contract and the algebraic verdict is authoritative.
        with pytest.raises(TooLargeError):
            oracle_verify(scheme)
        # Exercise the same construction end to end where enumeration is
        # possible: a unit-size instance of the same key topology.
        small = KeyConfig.of(4, [1], {(1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 3, 4): 1})
        small_scheme = unicast(small)
        small_rep = oracle_verify(small_scheme)
        assert small_rep.ok
        assert all(abs(v) < 1e-9 for v in small_rep.leakage_bits.values())


def test_criterion_2_multicast_example(ex2):
    """One-eavesdropper instance: C = 3, beta* = 6, six transmit symbols."""
    with criterion(2, "multicast example: C=3, beta*=6, Lx=6", 1.0):
        exact = exact_capacity(ex2)
        assert exact.C == 3 and exact.beta_star == 6
        scheme = synthesize(ex2)
        assert scheme.meta["builder"] == "multicast_k4_bw"
        assert scheme.L_W == 3 and scheme.L_X == 6
        assert verify(scheme).ok


def test_criterion_3_groupcast_2of4_example(ex3):
    """2-of-4 instance: C = 5, beta* = 9, GF(2) scheme passes both verifiers."""
    with criterion(3, "2-of-4 example: C=5, beta*=9, algebraic + oracle", 1.0):
        exact = exact_capacity(ex3)
        assert exact.C == 5 and exact.beta_star == 9
        scheme = synthesize(ex3)
        assert scheme.p == 2 and scheme.L_W == 5 and scheme.L_X == 9
        rep = verify(scheme)
        assert rep.ok
        orep = oracle_verify(scheme)
        assert orep.correct == {1: True, 2: True}
        assert orep.leakage_bits == {3: 0.0, 4: 0.0}
        assert orep.decode_success == {1: 1.0, 2: 1.0}


def test_criterion_4_symmetric_example(ex4):
    """Symmetric 3-of-6 instance: C = 6, beta* = 10, groups (1,4,1)/(1,6,3)."""
    with criterion(4, "symmetric example: C=6, beta*=10, groups logged", 5.0):
        exact = exact_capacity(ex4)
        assert exact.C == 6 and exact.beta_star == 10
        scheme = synthesize(ex4)
        assert scheme.L_W == 6 and scheme.L_X == 10
        assert verify(scheme).ok
        groups = scheme.meta["groups"]
        assert [g["rate"] for g in groups] == [1, 4, 1]
        assert [g["bandwidth"] for g in groups] == [1, 6, 3]
        print(f"  per-group contributions: "
              f"rates {[g['rate'] for g in groups]}, "
              f"bandwidths {[g['bandwidth'] for g in groups]}")


def test_criterion_5_aligned_2of5(fig4):
    """Aligned 2-of-5 topology: rate 5/3, bandwidth 10/3, full enumeration."""
    with criterion(5, "aligned 2-of-5: 5/3 and 10/3, 2^20 oracle, gap flag", 30.0):
        scheme = synthesize(fig4)
        assert scheme.L_W == 5 and scheme.L_X == 10 and scheme.L == 3
        assert scheme.rate == Fraction(5, 3)
        assert scheme.bandwidth == Fraction(10, 3)
        orep = oracle_verify(scheme)
        assert orep.states == 1 << 20
        assert orep.correct == {1: True, 2: True}
        assert orep.decode_success == {1: 1.0, 2: 1.0}
        assert orep.leakage_bits == {3: 0.0, 4: 0.0, 5: 0.0}
        rep = report(fig4)
        assert rep.gap and rep.rate_upper == 2
        assert rep.exact.C == Fraction(5, 3)


def test_criterion_6_multimessage_region_sweep():
    """Exhaustive three-message sweep: region membership, bandwidth, oracle."""
    with criterion(6, "three-message sweep over all sizes <= 3, rates <= 6", 60.0):
        checked = feasible = 0
        for sizes in product(range(4), repeat=3):
            l1, l2, l12 = sizes
            for rates in product(range(7), repeat=3):
                r1, r2, r12 = rates
                # independent region membership per the four inequalities
                member = (r1 + r12 <= l1 + l12 and r2 + r12 <= l2 + l12
                          and r1 <= l1 and r2 <= l2)
                assert member == (region_violation(sizes, rates) is None)
                checked += 1
                if not member:
                    continue
                feasible += 1
                ms = multimessage(sizes, rates)
                expected_bw = r1 + r2 + max(r12, 2 * r12 - l12)
                assert ms.L_X == expected_bw == min_bandwidth(sizes, rates)
                orep = oracle_verify(ms)
                assert orep.correct == {1: True, 2: True}
                assert orep.leakage_bits.keys() == {1, 2, 3}
                assert all(abs(v) < 1e-9 for v in orep.leakage_bits.values()), (sizes, rates)
                assert verify(ms).ok
        assert checked == 4 ** 3 * 7 ** 3
        print(f"  {checked} tuples checked, {feasible} feasible, all verified")


def _sizes_to_config(sizes):
    return KeyConfig.of(4, [1, 2], {sub: n for sub, n in sizes.items() if n})


_EIGHT_SUBSETS = ((1,), (2,), (1, 3), (1, 4), (2, 3), (2, 4), (1, 2, 3), (1, 2, 4))


def test_criterion_7_case_tree_accounting_sweep():
    """2-of-4 case-tree accounting: rate and bandwidth formulas, verified."""
    with criterion(7, "2-of-4 sweep: exhaustive <=2 plus 5000 samples <=6", 120.0):
        vectors = list(product(range(3), repeat=8))
        rng = random.Random(20240)
        vectors += [tuple(rng.randint(0, 6) for _ in range(8)) for _ in range(5000)]
        for vec in vectors:
            sizes = dict(zip(_EIGHT_SUBSETS, vec))
            config = _sizes_to_config(sizes)
            scheme = synthesize(config)
            # independent formula evaluation in original labels
            g = {sub: n for sub, n in sizes.items()}
            c_formula = min(
                g[(1,)] + g[(1, 4)] + g[(1, 2, 4)],
                g[(1,)] + g[(1, 3)] + g[(1, 2, 3)],
                g[(2,)] + g[(2, 4)] + g[(1, 2, 4)],
                g[(2,)] + g[(2, 3)] + g[(1, 2, 3)])
            bw_formula = 2 * c_formula - min(g[(1, 2, 3)], g[(1, 2, 4)])
            assert scheme.rate == c_formula, vec
            assert scheme.bandwidth == bw_formula, vec
            assert verify(scheme).ok, vec
        print(f"  {len(vectors)} size vectors synthesized and verified")


def test_criterion_8_oracle_algebra_equivalence():
    """1000 random schemes: oracle MI == algebraic leakage * log2(p)."""
    with criterion(8, "oracle/algebra agreement on 1000 random schemes", 60.0):
        rng = random.Random(8881)
        worst = 0.0
        for i in range(1000):
            p = (2, 3, 5)[i % 3]
            scheme = random_scheme(rng, p)
            alg = verify(scheme)
            orep = oracle_verify(scheme)
            for k in scheme.qualified:
                assert alg.correct[k] == orep.correct[k], scheme
            for e in scheme.eavesdroppers:
                gap = abs(alg.leakage[e] * math.log2(p) - orep.leakage_bits[e])
                worst = max(worst, gap)
                assert gap < 1e-9, scheme
        print(f"  worst |algebraic*log2(p) - oracle| = {worst:.2e} bits")


def _corpus():
    configs = [
        KeyConfig.of(4, [1], {(1, 2): 4, (1, 3): 2, (1, 4): 1, (1, 3, 4): 3}),
        KeyConfig.of(4, [1, 2, 3], {(1,): 1, (1, 3): 2, (2, 3): 3}),
        KeyConfig.of(4, [1, 2], {(1,): 1, (2,): 2, (1, 3): 2, (1, 4): 3,
                                 (2, 3): 1, (2, 4): 2, (1, 2, 3): 2, (1, 2, 4): 1}),
        KeyConfig.of(6, [1, 2, 3], {c: 1 for c in combinations(range(1, 7), 3)}),
        KeyConfig.of(5, [1, 2], {(1,): 1, (1, 2, 3): 1, (1, 4, 5): 1,
                                 (2, 4): 1, (2, 5): 1}),
    ]
    rng = random.Random(909)
    for _ in range(12):
        keys = {sub: rng.randint(0, 3)
                for sub in [(1,), (2,), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                            (1, 2, 3), (1, 2, 4)]}
        configs.append(KeyConfig.of(4, [1, 2], {k: v for k, v in keys.items() if v}))
    for _ in range(6):
        keys = {sub: rng.randint(0, 3) for sub in [(1,), (2,), (3,), (1, 2),
                                                   (1, 3), (2, 3), (1, 2, 3)]}
        configs.append(KeyConfig.of(4, [1, 2, 3], {k: v for k, v in keys.items() if v}))
    return configs


def test_criterion_9_converse_consistency():
    """Synthesized performance never beats the converse bounds; bounds are
    homogeneous and relabel-invariant."""
    with criterion(9, "converse consistency + 100 scalings/permutations", 60.0):
        rng = random.Random(515)
        for config in _corpus():
            scheme = synthesize(config)
            assert verify(scheme).ok
            assert scheme.rate <= rate_converse(config)
            assert scheme.bandwidth >= bw_converse(config, scheme.rate).value
        base = _corpus()
        for i in range(100):
            config = base[i % len(base)]
            t = rng.randint(0, 4)
            scaled = config.scaled(t)
            assert rate_converse(scaled) == t * rate_converse(config)
            r = rate_converse(config)
            assert bw_converse(scaled, t * r).value == t * bw_converse(config, r).value
            perms = [dict(zip(range(1, config.K + 1), p))
                     for p in permutations(range(1, config.K + 1))]
            keepers = [p for p in perms
                       if {p[q] for q in config.qualified} == config.qualified]
            perm = rng.choice(keepers)
            relabeled = config.relabeled(perm)
            assert rate_converse(relabeled) == rate_converse(config)
            assert bw_converse(relabeled, r).value == bw_converse(config, r).value
            ea, eb = exact_capacity(config), exact_capacity(relabeled)
            assert (ea is None) == (eb is None)
            if ea is not None:
                assert (ea.C, ea.beta_star) == (eb.C, eb.beta_star)
        print("  rate/bandwidth bounds respected on the corpus; "
              "homogeneity and relabel invariance hold")
