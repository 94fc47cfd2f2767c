"""Known answers computed without the code under test.

The closed forms below are written from the paper's theorems, the
bandwidth converse from its subtracted-term identity, and the rank
verdicts from Gaussian elimination over Python integers.  None of them
calls into ``securegroupcast``, so a defect in the package's kernels cannot
hide inside the benchmark's expectations.

Receiver subsets are bitmasks (bit k-1 set <=> receiver k in the subset),
and a config's keys are a ``{mask: symbols}`` dict with positive sizes.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np


def mask_of(receivers) -> int:
    m = 0
    for k in receivers:
        m |= 1 << (k - 1)
    return m


def popcount(x: int) -> int:
    return bin(x).count("1")


def number_json(x):
    """The CLI's JSON spelling of a rational: int, or an 'a/b' string."""
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_config(obj: dict) -> tuple[int, int, dict[int, int]]:
    """(K, qualified mask, {subset mask: symbols}) of a config object."""
    keys = {mask_of(e["subset"]): e["symbols"] for e in obj["keys"] if e["symbols"] > 0}
    return obj["K"], mask_of(obj["qualified"]), keys


def cond_entropy(keys: dict[int, int], q: int, e: int) -> int:
    """H(z_q | z_e) in symbols: the keys q holds and e does not."""
    return sum(size for m, size in keys.items() if m >> (q - 1) & 1 and not m >> (e - 1) & 1)


def rate_upper(K: int, qmask: int, keys: dict[int, int]) -> int:
    qs = [k for k in range(1, K + 1) if qmask >> (k - 1) & 1]
    es = [k for k in range(1, K + 1) if not qmask >> (k - 1) & 1]
    return min(cond_entropy(keys, q, e) for q in qs for e in es)


def bw_lower(K: int, qmask: int, keys: dict[int, int], rate) -> Fraction:
    """max(0, max over e and nonempty Q of |Q| R - sum_{U not ni e} max(|U & Q| - 1, 0) l_U).

    The subtracted term is the common information among Q's keys once e's
    keys are known; all groups of one eavesdropper are scored at once.
    """
    rate = Fraction(rate)
    masks = np.array(list(keys), dtype=np.int64)
    sizes = np.array(list(keys.values()), dtype=np.int64)
    groups = []
    sub = qmask
    while sub:
        groups.append(sub)
        sub = (sub - 1) & qmask
    groups = np.array(groups, dtype=np.int64)
    group_sizes = np.bitwise_count(groups).astype(np.int64)
    best = Fraction(0)
    for e in range(1, K + 1):
        if qmask >> (e - 1) & 1:
            continue
        sel = ((masks >> (e - 1)) & 1) == 0
        inter = np.bitwise_count(groups[:, None] & masks[sel][None, :]).astype(np.int64)
        shared = (np.maximum(inter - 1, 0) * sizes[sel]).sum(axis=1)
        scaled = group_sizes * rate.numerator - shared * rate.denominator
        best = max(best, Fraction(int(scaled.max()), rate.denominator))
    return best


def _symmetric_profile(K: int, keys: dict[int, int]):
    """Per-cardinality key size if every u-subset class is empty or full and equal."""
    per_card: dict[int, list[int]] = {}
    for m, size in keys.items():
        per_card.setdefault(popcount(m), []).append(size)
    profile = [0] * (K + 1)
    for u, sizes in per_card.items():
        if len(sizes) != comb(K, u) or len(set(sizes)) != 1:
            return None
        profile[u] = sizes[0]
    return profile


def closed_form(K: int, qmask: int, keys: dict[int, int], r_up: int):
    """(setting, C, beta_star) for the recognised shapes, else (None, None, None).

    beta_star is the string "unknown" where the paper leaves it open (one
    eavesdropper, K >= 5, unequal conditional entropies).
    """
    N = popcount(qmask)
    qs = [k for k in range(1, K + 1) if qmask >> (k - 1) & 1]
    if N == 1:
        return "unicast", r_up, r_up
    if N == K - 1:
        (e,) = [k for k in range(1, K + 1) if not qmask >> (k - 1) & 1]
        conds = {cond_entropy(keys, q, e) for q in qs}
        if len(conds) == 1:
            return "multicast", r_up, sum(s for m, s in keys.items() if not m >> (e - 1) & 1)
        if K == 4:
            raise NotImplementedError("the K = 4 one-eavesdropper bandwidth is not generated")
        return "multicast", r_up, "unknown"
    if K == 4 and N == 2:
        pair = keys.get(qmask, 0)
        with_eve = min(keys.get(qmask | 1 << (e - 1), 0)
                       for e in range(1, 5) if not qmask >> (e - 1) & 1)
        return "groupcast_2of4", r_up, 2 * r_up - pair - with_eve
    if K == 5 and N == 2:
        raise NotImplementedError("2-of-5 configs are not generated")
    profile = _symmetric_profile(K, keys)
    if profile is not None:
        c = sum(comb(K - 2, u - 1) * profile[u] for u in range(1, K + 1))
        beta = sum((comb(K - 1, u) - comb(K - N - 1, u)) * profile[u] for u in range(1, K + 1))
        return "symmetric", c, beta
    return None, None, None


def bounds_report(obj: dict) -> dict:
    """The report `sgc bounds` must print for a config object."""
    K, qmask, keys = parse_config(obj)
    r_up = rate_upper(K, qmask, keys)
    setting, c, beta = closed_form(K, qmask, keys, r_up)
    rate = c if setting is not None else r_up
    return {
        "K": K,
        "N": popcount(qmask),
        "rate_upper": r_up,
        "bw_lower": number_json(bw_lower(K, qmask, keys, rate)),
        "bw_heuristic": False,
        "gap": setting is not None and c < r_up,
        "setting": setting,
        "C": None if setting is None else number_json(c),
        "beta_star": None if setting is None else (
            beta if beta == "unknown" else number_json(beta)),
    }


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by elimination on Python integers (exact for any p)."""
    rows = [[x % p for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        prow = [x * inv % p for x in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            f = rows[i][c]
            if i != rank and f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def scheme_verdict(obj: dict) -> tuple[dict[str, bool], dict[str, int]]:
    """Per-receiver decodability and leakage (symbols) of a scheme object.

    Receiver k decodes iff rank([B_unk | A]) - rank(B_unk) = L_W, and an
    eavesdropper learns exactly that rank difference, where B_unk keeps
    the key columns whose subset does not contain k.
    """
    p, a, b = obj["p"], obj["A"], obj["B"]
    owners = [seg["subset"] for seg in obj["layout"] for _ in range(seg["width"])]
    correct, leakage = {}, {}
    for k in range(1, obj["K"] + 1):
        unk = [j for j, subset in enumerate(owners) if k not in subset]
        b_unk = [[row[j] for j in unk] for row in b]
        base = rank_mod_p(b_unk, p)
        total = rank_mod_p([bu + ar for bu, ar in zip(b_unk, a)], p)
        if k in obj["qualified"]:
            correct[str(k)] = total - base == obj["Lw"]
        else:
            leakage[str(k)] = total - base
    return correct, leakage
