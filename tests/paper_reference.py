"""The paper's closed forms for the capacity C and the minimum bandwidth
beta* of every solved setting.

bounds computes C as the rate converse (5l/3 on the aligned 2-of-5
topology) and beta* as the bandwidth converse at C; the tests hold both,
and the builders that meet them, to these formulas.  Each formula reads
the key sizes directly, with no call into bounds.
"""

from fractions import Fraction
from math import comb

from securegroupcast import normalize_labels
from securegroupcast.bounds import (ALIGNED_2OF5, GROUPCAST_2OF4, MULTICAST, SYMMETRIC,
                                    UNICAST, ZERO_RATE)


def cond_entropy(config, q, e):
    """H(z_q | z_e): the symbols of the keys that q holds and e lacks."""
    return sum(size for m, size in config.keys.items()
               if m >> (q - 1) & 1 and not m >> (e - 1) & 1)


def unicast_exact(config):
    """One qualified receiver q: C = beta* = min_e H(z_q | z_e)."""
    (q,) = config.qualified
    c = min(cond_entropy(config, q, e) for e in config.eavesdroppers)
    return c, c


def k4_beta_star(config):
    """l123 + max(2 l1 + l12 + 2 l13, 3 l1 + 2 l12 + 2 l13 - l23), with
    the key sizes read in normalized labels (receiver 4 the eavesdropper,
    receiver 1 of least H(z_q | z_4), l12 <= l13)."""
    norm = config.relabeled(normalize_labels(config, "multicast_k4"))
    l1, l12, l13, l23, l123 = (norm.key_size(s)
                               for s in ({1}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}))
    return l123 + max(2 * l1 + l12 + 2 * l13, 3 * l1 + 2 * l12 + 2 * l13 - l23)


def multicast_exact(config):
    """One eavesdropper e: C = min_q H(z_q | z_e).  beta* is the K = 4
    formula; else, when every H(z_q | z_e) is equal, the size of all keys
    e lacks (each reaches a qualified receiver); else unknown (None)."""
    (e,) = config.eavesdroppers
    conds = {cond_entropy(config, q, e) for q in config.qualified}
    if config.K == 4:
        return min(conds), k4_beta_star(config)
    if len(conds) == 1:
        return min(conds), sum(size for m, size in config.keys.items()
                               if not m >> (e - 1) & 1)
    return min(conds), None


def groupcast_2of4_exact(config):
    """Qualified pair Q = {a, b}, eavesdroppers {c, d}:
    C = l_Q + min over q in Q, e in {c, d} of l_q + l_{q e'} + l_{Q e'}
    with e' the other eavesdropper, and beta* = 2C - l_Q - min_e l_{Q e}."""
    pair, eves = sorted(config.qualified), sorted(config.eavesdroppers)
    l_q = config.key_size(pair)
    c = l_q + min(config.key_size({q}) + config.key_size({q, other})
                  + config.key_size({*pair, other})
                  for q in pair for other in eves)
    return c, 2 * c - l_q - min(config.key_size({*pair, e}) for e in eves)


def symmetric_exact(config):
    """Every u-subset key of size l_u:  C = sum_u C(K-2, u-1) l_u and
    beta* = sum_u (C(K-1, u) - C(K-N-1, u)) l_u."""
    K, N = config.K, config.N
    profile = [0] * (K + 1)
    for m, size in config.keys.items():
        profile[m.bit_count()] = size
    c = sum(comb(K - 2, u - 1) * profile[u] for u in range(1, K + 1))
    beta = sum((comb(K - 1, u) - comb(K - N - 1, u)) * profile[u] for u in range(1, K + 1))
    return c, beta


def aligned_2of5_exact(config):
    """Five keys of one size l: C = 5l/3 and beta* = 10l/3."""
    (ell,) = set(config.keys.values())
    return Fraction(5 * ell, 3), Fraction(10 * ell, 3)


def paper_exact(config, setting):
    """(C, beta*) of the setting's closed forms; beta* is None where the
    paper leaves it open."""
    return {
        UNICAST: unicast_exact,
        MULTICAST: multicast_exact,
        GROUPCAST_2OF4: groupcast_2of4_exact,
        SYMMETRIC: symmetric_exact,
        ALIGNED_2OF5: aligned_2of5_exact,
        ZERO_RATE: lambda _: (0, 0),
    }[setting](config)
