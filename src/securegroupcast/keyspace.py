"""Combinatorial key configurations and their exact entropy calculus.

A configuration assigns an independent uniform key s_U to subsets U of the
K receivers; receiver k holds every s_U with k in U, and a designated
qualified subset must decode while the rest must learn nothing.  Because
the keys are independent and uniform, every entropy reduces to an integer
count of key symbols: conditioning removes whole symbols, intersection
selects whole symbols.  All quantities here are symbol counts; multiply by
log2(p) for bits.

Receiver subsets are encoded as bitmasks (bit k-1 set <=> receiver k in
the subset), which keeps the bound-search enumerations cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

MAX_RECEIVERS = 20


class WrongShapeError(ValueError):
    """The configuration does not match the requested setting's K/N shape."""


def mask_of(receivers: Iterable[int] | int) -> int:
    """Bitmask for a receiver collection (ints are taken as masks already)."""
    if isinstance(receivers, int):
        return receivers
    m = 0
    for k in receivers:
        m |= 1 << (k - 1)
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


@dataclass(frozen=True)
class KeyConfig:
    """K receivers, a qualified subset, and per-subset key sizes.

    `keys` maps subset masks to symbol counts; absent subsets mean size 0.
    """

    K: int
    qualified_mask: int
    keys: Mapping[int, int]

    @classmethod
    def of(cls, K: int, qualified: Iterable[int] | int,
           keys: Mapping[Iterable[int] | int, int]) -> "KeyConfig":
        if not 1 <= K <= MAX_RECEIVERS:
            raise ValueError(f"K must be in [1, {MAX_RECEIVERS}], got {K}")
        full = (1 << K) - 1
        q = mask_of(qualified)
        if q == 0 or q & ~full:
            raise ValueError("qualified set must be a nonempty subset of [1..K]")
        if q == full:
            raise ValueError("qualified set must leave at least one eavesdropper")
        norm: dict[int, int] = {}
        for subset, size in keys.items():
            m = mask_of(subset)
            if m == 0 or m & ~full:
                raise ValueError(f"key subset {subset!r} outside [1..K]")
            if isinstance(size, bool) or not isinstance(size, int):
                raise ValueError(f"key size for {subset!r} must be an integer, "
                                 f"got {size!r}")
            if size < 0:
                raise ValueError(f"key size for {subset!r} is negative")
            if m in norm:
                raise ValueError(f"duplicate key subset {sorted(set_of(m))}")
            if size > 0:
                norm[m] = size
        return cls(K=K, qualified_mask=q, keys=dict(sorted(norm.items())))

    # -- views ------------------------------------------------------------

    @property
    def qualified(self) -> frozenset[int]:
        return set_of(self.qualified_mask)

    @property
    def eavesdroppers(self) -> frozenset[int]:
        return frozenset(range(1, self.K + 1)) - self.qualified

    @property
    def N(self) -> int:
        return bin(self.qualified_mask).count("1")

    def key_size(self, subset: Iterable[int] | int) -> int:
        return self.keys.get(mask_of(subset), 0)

    def key_items(self) -> list[tuple[int, int]]:
        """(mask, size) pairs with size > 0, in deterministic mask order."""
        return list(self.keys.items())

    def receiver_key_masks(self, k: int) -> list[int]:
        bit = 1 << (k - 1)
        return [m for m in self.keys if m & bit]

    def total_symbols(self) -> int:
        return sum(self.keys.values())

    # -- transforms ---------------------------------------------------------

    def scaled(self, t: int) -> "KeyConfig":
        """All key sizes multiplied by the nonnegative integer t."""
        if t < 0:
            raise ValueError("scale factor must be nonnegative")
        return KeyConfig(self.K, self.qualified_mask,
                         dict(sorted((m, s * t) for m, s in self.keys.items() if s * t > 0)))

    def relabeled(self, perm: Mapping[int, int]) -> "KeyConfig":
        """Apply a receiver permutation (old label -> new label)."""
        def pm(mask: int) -> int:
            return mask_of(perm[k] for k in set_of(mask))
        return KeyConfig(self.K, pm(self.qualified_mask),
                         dict(sorted((pm(m), s) for m, s in self.keys.items())))


@dataclass(frozen=True)
class KeyCollection:
    """A sub-collection of key symbols: per-subset counts of symbols held.

    counts[U] symbols of key s_U (taken as the first counts[U] symbols);
    only the counts matter for entropy arithmetic.
    """

    counts: Mapping[int, int]

    @classmethod
    def empty(cls) -> "KeyCollection":
        return cls(counts={})

    @classmethod
    def of_receiver(cls, config: KeyConfig, k: int) -> "KeyCollection":
        """All key symbols held by receiver k."""
        return cls(counts={m: config.keys[m] for m in config.receiver_key_masks(k)})

    @classmethod
    def of_subsets(cls, config: KeyConfig, subsets: Iterable[Iterable[int] | int]) -> "KeyCollection":
        """The full keys of the given subsets."""
        out = {}
        for s in subsets:
            m = mask_of(s)
            if config.keys.get(m, 0) > 0:
                out[m] = config.keys[m]
        return cls(counts=out)

    def count(self, mask: int) -> int:
        return self.counts.get(mask, 0)


EMPTY_COLLECTION = KeyCollection.empty()


def entropy_of(config: KeyConfig, receivers: Iterable[int] | int,
               given: KeyCollection = EMPTY_COLLECTION) -> int:
    """H(z_A | given) in symbols for A = `receivers`.

    By key independence this is the number of key symbols reaching any
    receiver in A, minus those already in `given`.
    """
    a = mask_of(receivers)
    total = 0
    for m, size in config.keys.items():
        if m & a:
            total += max(0, size - given.count(m))
    return total


def mutual_info(config: KeyConfig, a: Iterable[int] | int, b: Iterable[int] | int,
                given: KeyCollection = EMPTY_COLLECTION) -> int:
    """I(z_A ; z_B | given) in symbols: symbols reaching both sides."""
    am, bm = mask_of(a), mask_of(b)
    total = 0
    for m, size in config.keys.items():
        if m & am and m & bm:
            total += max(0, size - given.count(m))
    return total


def is_symmetric(config: KeyConfig) -> tuple[bool, tuple[int, ...]]:
    """Whether all subsets of equal cardinality have equal key size.

    Returns (flag, profile) where profile[u-1] is the common size of the
    u-subset keys (0 where no key exists).  Absent subsets count as size 0,
    so a cardinality class is symmetric only when either no u-subset has a
    key, or every one of the C(K, u) subsets has the same positive size.
    """
    from math import comb

    profile = [0] * config.K
    per_card: dict[int, list[int]] = {}
    for m, size in config.keys.items():
        per_card.setdefault(bin(m).count("1"), []).append(size)
    for u, sizes in per_card.items():
        if len(set(sizes)) > 1 or len(sizes) != comb(config.K, u):
            return False, tuple(profile)
        profile[u - 1] = sizes[0]
    return True, tuple(profile)


# -- canonical relabelings -------------------------------------------------

def canonical_relabel(config: KeyConfig) -> tuple[KeyConfig, dict[int, int]]:
    """Permutation sending qualified receivers to 1..N (order preserved).

    Returns (relabeled config, permutation old->new).
    """
    qualified = sorted(config.qualified)
    eaves = sorted(config.eavesdroppers)
    perm = {old: new for new, old in enumerate(qualified + eaves, start=1)}
    return config.relabeled(perm), perm


def invert_perm(perm: Mapping[int, int]) -> dict[int, int]:
    return {new: old for old, new in perm.items()}


def _wlog_perms_2of4() -> list[dict[int, int]]:
    # Qualified pair {1,2} may swap; eavesdropper pair {3,4} may swap.
    perms = []
    for q_swap in (False, True):
        for e_swap in (False, True):
            p = {1: 2 if q_swap else 1, 2: 1 if q_swap else 2,
                 3: 4 if e_swap else 3, 4: 3 if e_swap else 4}
            perms.append(p)
    return perms


def normalize_labels(config: KeyConfig, setting: str) -> tuple[KeyConfig, dict[int, int]]:
    """Relabel receivers into the canonical order a setting assumes.

    multicast_k4:   K=4, |qualified|=3.  After relabeling, receiver 4 is
        the eavesdropper, H(z_1|z_4) <= min(H(z_2|z_4), H(z_3|z_4)), and
        the key shared by {1,2} is no larger than the one shared by {1,3}.
    groupcast_2of4: K=4, |qualified|=2.  After relabeling, qualified is
        {1,2} with H(s_1) <= H(s_2) and H(s_124) <= H(s_123).

    Returns (relabeled config, permutation old->new); the permutation is
    what callers invert to map results back to original labels.
    """
    if setting == "multicast_k4":
        if config.K != 4 or config.N != 3:
            raise WrongShapeError(f"multicast_k4 needs K=4, N=3; got K={config.K}, N={config.N}")
        base, perm0 = canonical_relabel(config)
        e_keys = KeyCollection.of_receiver(base, 4)
        order = sorted((1, 2, 3), key=lambda q: entropy_of(base, {q}, e_keys))
        first = order[0]
        rest = [q for q in (1, 2, 3) if q != first]
        # Order the remaining two so the pair key with receiver `first`
        # is smallest for the receiver labeled 2.
        rest.sort(key=lambda q: base.key_size({first, q}))
        perm1 = {first: 1, rest[0]: 2, rest[1]: 3, 4: 4}
        perm = {old: perm1[perm0[old]] for old in perm0}
        return config.relabeled(perm), perm
    if setting == "groupcast_2of4":
        if config.K != 4 or config.N != 2:
            raise WrongShapeError(f"groupcast_2of4 needs K=4, N=2; got K={config.K}, N={config.N}")
        base, perm0 = canonical_relabel(config)
        for extra in _wlog_perms_2of4():
            cand = base.relabeled(extra)
            if (cand.key_size({1}) <= cand.key_size({2})
                    and cand.key_size({1, 2, 4}) <= cand.key_size({1, 2, 3})):
                perm = {old: extra[perm0[old]] for old in perm0}
                return config.relabeled(perm), perm
        raise AssertionError("unreachable: some swap always satisfies the ordering")
    raise ValueError(f"unknown setting {setting!r}")
