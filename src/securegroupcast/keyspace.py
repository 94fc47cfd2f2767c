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

The converses and the K=4 normalizer read one table per eavesdropper e:
with the qualified receivers q_1 < ... < q_N renumbered as local bits
0..N-1, let l[t] be the total size of the keys e lacks whose qualified
part is t.  The table holds its subset-sum transform f[S] = sum of l[t]
over t subset of S, the size of the keys e lacks that reach no qualified
receiver outside S, and a[i] = H(z_{q_i} | z_e) = f[full] - f[full ^ 2^i],
the keys e lacks that reach q_i.
`KeyConfig.eavesdropper_tables` packs all of them into one table (SIMD
within a register): with eavesdroppers e_0 < e_1 < ..., F[S] holds f[S]
of e_j in bits [j w, (j+1) w), and A[i] holds a[i] the same way.  One
pass over the keys adds each key's size times the packed ones of the
eavesdroppers lacking it into F at its qualified part; the transform is
linear, so it runs once, on the packed list.  The slot width w is the
bit length of N times the total key symbols: f and a are at most the
total, and bounds.bw_converse's packed sums penalty(Q) + f[full] at most
N f[full], so adds never carry into the next slot, and A's subtraction,
nonnegative in every slot, never borrows.
`entropy_of` is the general H(z_A | given) they specialize, with the
known symbols `given` as a {mask: symbols} mapping like `KeyConfig.keys`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import add
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, TypeVar

MAX_RECEIVERS = 20
# Key sizes total less than this many symbols, so that every number
# `sgc bounds` and `sgc synth` print (at most 100 times the total) has at
# most 4,002 digits, within Python's 4,300-digit int-to-str limit.
MAX_KEY_SYMBOLS = 10 ** 4000

# (eavesdroppers ascending, slot width w, F, A); see the module docstring.
EavesdropperTable = tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...]]

T = TypeVar("T")


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
    out = []
    while mask > 0:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return frozenset(out)


@dataclass(frozen=True)
class KeyConfig:
    """K receivers, a qualified subset, and per-subset key sizes.

    `keys` maps subset masks to positive symbol counts in ascending mask
    order; absent subsets mean size 0.  It is a read-only copy, so what
    is cached on a config (its views, eavesdropper tables and `memo`
    facts) never goes stale.
    """

    K: int
    qualified_mask: int
    keys: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "keys", MappingProxyType(dict(self.keys)))

    @classmethod
    def of(cls, K: int, qualified: Iterable[int] | int,
           keys: Mapping[Iterable[int] | int, int]) -> "KeyConfig":
        """Config from receiver collections or masks; see `from_masks`."""
        return cls.from_masks(K, mask_of(qualified),
                              [(subset if type(subset) is int else mask_of(subset), size)
                               for subset, size in keys.items()])

    @classmethod
    def from_masks(cls, K: int, qualified_mask: int,
                   sizes: Iterable[tuple[int, int]]) -> "KeyConfig":
        """Config from (subset mask, size) pairs, after the checks every
        input goes through: K in range, a nonempty qualified set that
        leaves an eavesdropper, nonempty subsets of [1..K] given once, and
        nonnegative integer sizes totalling less than MAX_KEY_SYMBOLS.
        Zero sizes are dropped and the keys sorted by mask."""
        if not 1 <= K <= MAX_RECEIVERS:
            raise ValueError(f"K must be in [1, {MAX_RECEIVERS}], got {K}")
        full = (1 << K) - 1
        if not 0 < qualified_mask < full:
            raise ValueError("qualified set must be a nonempty subset of [1..K] "
                             "that leaves at least one eavesdropper")
        norm: dict[int, int] = {}
        for m, size in sizes:
            if not 0 < m <= full:
                raise ValueError(f"key subset {sorted(set_of(m))} is empty or "
                                 f"outside [1..{K}]")
            if type(size) is not int or size < 0:
                raise ValueError(f"key size for {sorted(set_of(m))} must be a "
                                 f"nonnegative integer, got {size!r}")
            if m in norm:
                raise ValueError(f"duplicate key subset {sorted(set_of(m))}")
            norm[m] = size
        total = sum(norm.values())
        if total >= MAX_KEY_SYMBOLS:
            raise ValueError(f"key sizes must total less than 10^4000 symbols, got a "
                             f"{total.bit_length()}-bit total")
        return cls(K, qualified_mask, {m: norm[m] for m in sorted(norm) if norm[m]})

    # -- views ------------------------------------------------------------

    @cached_property
    def qualified(self) -> frozenset[int]:
        return set_of(self.qualified_mask)

    @cached_property
    def eavesdroppers(self) -> frozenset[int]:
        return frozenset(range(1, self.K + 1)) - self.qualified

    @cached_property
    def N(self) -> int:
        return self.qualified_mask.bit_count()

    def key_size(self, subset: Iterable[int] | int) -> int:
        return self.keys.get(mask_of(subset), 0)

    @cached_property
    def eavesdropper_tables(self) -> EavesdropperTable:
        """The packed (f, a) of every eavesdropper (module docstring).

        Keys held by no qualified receiver are left out of F.  Built on
        first use and shared by every bound computed from this config.
        """
        qualified = sorted(self.qualified)
        eaves = tuple(sorted(self.eavesdroppers))
        n = len(qualified)
        w = (n * sum(self.keys.values())).bit_length() or 1
        # A key's code sums its receivers' bits, local bit i for q_i and slot
        # j's bit past the local bits for e_j, read in three c-bit lookups.
        bits = {q: 1 << i for i, q in enumerate(qualified)}
        bits.update({e: 1 << (n + j * w) for j, e in enumerate(eaves)})
        c = -(-self.K // 3)
        t0, t1, t2 = lookups = [[0], [0], [0]]
        for r in range(self.K):
            table = lookups[r // c]
            table += [x + bits[r + 1] for x in table]
        low, ones, cmask = (1 << n) - 1, sum(bits.values()) >> n, (1 << c) - 1
        f = [0] * (1 << n)
        for m, size in self.keys.items():
            x = t0[m & cmask] + t1[m >> c & cmask] + t2[m >> 2 * c]
            if x & low:   # add size to the slots of the eavesdroppers lacking it
                f[x & low] += size * (ones - (x >> n))
        # One index bit per round: add the even entries into the odd ones
        # and move those to the back, which rotates the index bits back in
        # place after n rounds.  F[full ^ 2^i] is F[-1 - 2^i].
        for _ in range(n):
            even = f[0::2]
            f = even + list(map(add, even, f[1::2]))
        return eaves, w, tuple(f), tuple([f[-1] - f[-1 - (1 << i)] for i in range(n)])

    def memo(self, fact: Callable[["KeyConfig"], T]) -> T:
        """fact(self), computed on the first call with that function and
        kept on this config, for facts that layers above keyspace derive
        from a config (bounds.exact_capacity)."""
        facts = self._facts
        if fact not in facts:
            facts[fact] = fact(self)
        return facts[fact]

    @cached_property
    def _facts(self) -> dict:
        return {}

    # -- transforms ---------------------------------------------------------

    def scaled(self, t: int) -> "KeyConfig":
        """All key sizes multiplied by the nonnegative integer t."""
        if t < 0:
            raise ValueError("scale factor must be nonnegative")
        return KeyConfig(self.K, self.qualified_mask,
                         dict(sorted((m, s * t) for m, s in self.keys.items() if s * t > 0)))

    def relabeled(self, perm: Mapping[int, int]) -> "KeyConfig":
        """Apply a receiver permutation (old label -> new label)."""
        bits = [1 << (perm[k] - 1) for k in range(1, self.K + 1)]

        def pm(mask: int) -> int:
            out = 0
            while mask:
                low = mask & -mask
                out |= bits[low.bit_length() - 1]
                mask ^= low
            return out
        return KeyConfig(self.K, pm(self.qualified_mask),
                         dict(sorted((pm(m), s) for m, s in self.keys.items())))


def entropy_of(config: KeyConfig, receivers: Iterable[int] | int,
               given: Mapping[int, int] = MappingProxyType({})) -> int:
    """H(z_A | given) in symbols for A = `receivers`.

    `given` maps subset masks to the number of symbols of that key already
    known (the first ones; absent masks mean none), e.g. a receiver's whole
    keys.  By key independence this is the number of key symbols reaching
    any receiver in A, minus those already in `given`.
    """
    a = mask_of(receivers)
    total = 0
    for m, size in config.keys.items():
        if m & a:
            total += max(0, size - given.get(m, 0))
    return total


def is_symmetric(config: KeyConfig) -> tuple[bool, tuple[int, ...]]:
    """Whether all subsets of equal cardinality have equal key size.

    Returns (True, profile) where profile[u-1] is the common size of the
    u-subset keys (0 where no key exists), or (False, ()).  Absent subsets
    count as size 0, so a cardinality class is symmetric only when either
    no u-subset has a key, or every one of the C(K, u) subsets has the
    same positive size.
    """
    profile, count = [0] * (config.K + 1), [0] * (config.K + 1)
    for m, size in config.keys.items():
        u = m.bit_count()
        if count[u] and size != profile[u]:
            return False, ()
        profile[u] = size
        count[u] += 1
    if any(n and n != comb(config.K, u) for u, n in enumerate(count)):
        return False, ()
    return True, tuple(profile[1:])


# -- canonical relabelings -------------------------------------------------

def canonical_relabel(config: KeyConfig) -> dict[int, int]:
    """Permutation (old label -> new label) sending the qualified receivers
    to 1..N and the eavesdroppers to N+1..K, order preserved in each."""
    qualified = sorted(config.qualified)
    eaves = sorted(config.eavesdroppers)
    return {old: new for new, old in enumerate(qualified + eaves, start=1)}


def invert_perm(perm: Mapping[int, int]) -> dict[int, int]:
    return {new: old for old, new in perm.items()}


def normalize_labels(config: KeyConfig, setting: str) -> dict[int, int]:
    """Permutation (old label -> new label) into the canonical order a
    setting assumes; `config.relabeled(perm)` is the config in that order.

    multicast_k4:   K=4, |qualified|=3.  After relabeling, receiver 4 is
        the eavesdropper, H(z_1|z_4) <= min(H(z_2|z_4), H(z_3|z_4)), and
        the key shared by {1,2} is no larger than the one shared by {1,3}.
    groupcast_2of4: K=4, |qualified|=2.  After relabeling, qualified is
        {1,2} with H(s_1) <= H(s_2) and H(s_124) <= H(s_123).

    groupcast_2of4 reads its normalized key sizes through the inverse
    permutation, so it builds no relabeled config.
    """
    if setting == "multicast_k4":
        if config.K != 4 or config.N != 3:
            raise WrongShapeError(f"multicast_k4 needs K=4, N=3; got K={config.K}, N={config.N}")
        # With one eavesdropper, A[i] = H(z_q | z_e) for the i-th
        # qualified receiver q, ascending.
        (e,), _, _, a = config.eavesdropper_tables
        qualified = sorted(config.qualified)
        first = qualified[a.index(min(a))]
        # Order the remaining two so the pair key with receiver `first`
        # is smallest for the receiver labeled 2.
        rest = sorted((q for q in qualified if q != first),
                      key=lambda q: config.key_size({first, q}))
        return {first: 1, rest[0]: 2, rest[1]: 3, e: 4}
    if setting == "groupcast_2of4":
        if config.K != 4 or config.N != 2:
            raise WrongShapeError(f"groupcast_2of4 needs K=4, N=2; got K={config.K}, N={config.N}")
        # Swap the qualified pair iff H(s_1) > H(s_2) in canonical labels,
        # and the eavesdroppers iff H(s_124) > H(s_123).
        q1, q2 = sorted(config.qualified)
        e1, e2 = sorted(config.eavesdroppers)
        q_swap = config.key_size({q1}) > config.key_size({q2})
        e_swap = config.key_size({q1, q2, e2}) > config.key_size({q1, q2, e1})
        return {q1: 1 + q_swap, q2: 2 - q_swap, e1: 3 + e_swap, e2: 4 - e_swap}
    raise ValueError(f"unknown setting {setting!r}")
