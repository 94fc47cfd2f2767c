"""Converse bounds, and the exact capacity C and minimum bandwidth beta*.

Two converse bounds apply to every configuration:

* rate: no scheme can deliver more symbols per key block than the
  smallest conditional entropy H(z_q | z_e) over qualified q and
  eavesdropper e (the message must be decodable from z_q yet invisible
  given z_e);
* bandwidth: for any group Q of qualified receivers and any
  sub-collection u of an eavesdropper's keys,
  beta(R) >= |Q| R - (sum_q H(z_q | u) - H(z_Q | u)), i.e. the common
  information among the group's keys is the only broadcast saving.

In every setting the paper solves (single qualified receiver, single
eavesdropper, 2-of-4, symmetric profiles, the five-key aligned 2-of-5
topology, and any other configuration whose rate converse is 0) its
construction meets these converses: C is the rate converse, save the
aligned 2-of-5 topology, where the rate bound is strictly loose, C is
5l/3 and a gap flag is raised; and beta* is the bandwidth converse at C
wherever it is characterized.  exact_capacity is the only shape
recognizer: synth.synthesize picks its builder from the setting returned
here and holds the scheme to this C and beta*.  The paper's closed forms
are test references (tests/paper_reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Optional, Union

from . import keyspace
from .keyspace import KeyConfig, mask_of, set_of

Number = Union[int, Fraction]

# Settings recognized by exact_capacity.
UNICAST = "unicast"
MULTICAST = "multicast"
GROUPCAST_2OF4 = "groupcast_2of4"
SYMMETRIC = "symmetric"
ALIGNED_2OF5 = "aligned_2of5"
ZERO_RATE = "zero_rate"

# Key subsets a, b, c, d, e of the aligned 2-of-5 topology in canonical
# labels (qualified {1,2}); the synth layout follows this order.
ALIGNED_2OF5_KEYS: tuple[frozenset[int], ...] = (
    frozenset({1}), frozenset({1, 2, 3}), frozenset({1, 4, 5}),
    frozenset({2, 4}), frozenset({2, 5}))
_ALIGNED_2OF5_MASKS = frozenset(map(mask_of, ALIGNED_2OF5_KEYS))


def _as_number(x: Fraction) -> Number:
    return int(x) if x.denominator == 1 else x


@dataclass(frozen=True)
class ExactCapacity:
    """Capacity C and minimum bandwidth beta* for a recognized setting.

    C is the rate converse, save the aligned 2-of-5 topology (5l/3).
    beta_star is the bandwidth converse at C, or None where the minimum
    bandwidth at capacity is not characterized (one eavesdropper with
    unequal conditional entropies, at K other than 4).
    """

    setting: str
    C: Number
    beta_star: Optional[Number]


@dataclass(frozen=True)
class BwBound:
    """A bandwidth lower bound plus the witness (e, Q) attaining it.

    Conditioning on all of e's keys dominates every sub-collection u_e
    of them (see bw_converse), so the witness does not name u_e.
    """

    value: Number
    witness: Optional[tuple[int, frozenset[int]]]


@dataclass(frozen=True)
class BoundsReport:
    """Everything the bounds machinery can say about one configuration."""

    rate_upper: int
    bw_lower: Number
    exact: Optional[ExactCapacity]
    gap: bool


@lru_cache(maxsize=None)
def _groups_by_size(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(size, nonempty masks of that popcount below 2^n) for size 1..n.

    One entry per qualified count n < MAX_RECEIVERS, kept for the process.
    """
    by_size: dict[int, list[int]] = {}
    for q in range(1, 1 << n):
        by_size.setdefault(q.bit_count(), []).append(q)
    return tuple((size, tuple(qs)) for size, qs in sorted(by_size.items()))


def rate_converse(config: KeyConfig) -> int:
    """min over qualified q, eavesdropper e of H(z_q | z_e), in symbols."""
    eaves, w, _, a = config.eavesdropper_tables
    if not eaves or not a:
        raise ValueError("need at least one qualified and one eavesdropping receiver")
    top, mask = (len(eaves) - 1) * w, (1 << w) - 1
    # The top slot orders the packed ints, so min(a) holds its least entry.
    return min([min(a) >> top] + [x >> s & mask for s in range(0, top, w) for x in a])


def bw_converse(config: KeyConfig, rate: Number) -> BwBound:
    """Best bandwidth lower bound at the given rate.

    Maximizes |Q| R - (sum_{q in Q} H(z_q | u) - H(z_Q | u)) over
    eavesdroppers e, nonempty qualified groups Q, and sub-collections u of
    e's keys.  For independent combinatorial keys the subtracted term is
    sum_U (|U cap Q| - 1) * (residual symbols of U), each term nonnegative
    and shrinking as more of e's symbols enter u, so conditioning on all
    of e's keys (u = z_e) dominates every sub-collection and the search
    over u is exact without enumeration.

    With e fixed, the subtracted term is the penalty
    sum_{U not containing e} max(|U cap Q| - 1, 0) * l_U.  In the terms of
    e's table (f, a; keyspace module docstring), with W = f[full] the
    size of the keys e lacks that reach a qualified receiver, it reads
    penalty(Q) = sum_{i in Q} a[i] - W + f[~Q]: the keys missing Q
    contribute f[~Q] to make up for the -1 they do not owe.  The packed
    table is built once per config in O(#keys + N 2^N) adds; penalty + W
    is then formed for all eavesdroppers in O(2^N) packed adds and
    unpacked one eavesdropper at a time, after which every group costs O(1).
    Only the least penalty of each group size |Q| can win.  With
    R = num/den the search compares the integers |Q| num - penalty(Q) den
    and builds one Fraction at the end.

    The witness is the first maximizer in the order e ascending, then Q
    descending as a mask, with ties kept by the earlier one.  Never
    returns less than R for R > 0 (singleton groups give |Q| R - 0) and
    never less than 0.  All arithmetic is exact (int and Fraction).
    """
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    rate = rate if type(rate) is int else Fraction(rate)
    num, den = rate.numerator, rate.denominator
    eaves, w, f, a = config.eavesdropper_tables
    sums = [0]                         # sums[Q] = sum_{i in Q} A[i]
    for ai in a:
        sums = sums + list(map(ai.__add__, sums))
    packed = list(map(add, sums, reversed(f)))   # F[~Q] = F[full - Q]
    mask, top = (1 << w) - 1, (len(eaves) - 1) * w
    best = 0                           # best value times den
    best_at = None                     # (e, penalty + W per group mask, W)
    for shift, e in zip(range(0, top + 1, w), eaves):
        # below the top slot: shift and mask; the top slot: shift; a lone slot: as is
        pens = ([x >> shift & mask for x in packed] if shift < top else
                list(map(shift.__rrshift__, packed)) if shift else packed)
        total = f[-1] >> shift & mask
        value = max(size * num - (min(map(pens.__getitem__, qs)) - total) * den
                    for size, qs in _groups_by_size(len(a)))
        if value > best:
            best, best_at = value, (e, pens, total)
    witness = None
    if best_at is not None:
        e, pens, total = best_at
        q = next(q for q in range(len(pens) - 1, 0, -1)
                 if q.bit_count() * num - (pens[q] - total) * den == best)
        qualified = sorted(config.qualified)   # bit i of q is qualified[i]
        witness = (e, frozenset(qualified[i - 1] for i in set_of(q)))
    return BwBound(best if den == 1 else _as_number(Fraction(best, den)), witness)


# -- exact capacity ----------------------------------------------------

def aligned_2of5_key_size(config: KeyConfig) -> Optional[tuple[int, dict[int, int]]]:
    """Detect the five-key aligned 2-of-5 topology up to relabeling.

    The topology has qualified pair {1,2} and exactly the keys
    {1}, {1,2,3}, {1,4,5}, {2,4}, {2,5}, all of one equal size.  Returns
    (key size, permutation old->new into those labels), or None.  The
    labels are read off the keys: 1 holds the one-receiver key, 2 is the
    other qualified receiver, 3 the eavesdropper in the key both share,
    and 4, 5 the other two in ascending order; one relabeled copy then
    confirms all five keys.
    """
    if config.K != 5 or config.N != 2 or len(config.keys) != 5:
        return None
    sizes = set(config.keys.values())
    if len(sizes) != 1:
        return None
    (ell,) = sizes
    qmask = config.qualified_mask
    singles = [m for m in config.keys if m.bit_count() == 1]
    shared = [m ^ qmask for m in config.keys if m & qmask == qmask]
    if len(singles) != 1 or len(shared) != 1:
        return None
    first, third = singles[0].bit_length(), shared[0].bit_length()
    if first not in config.qualified or third not in config.eavesdroppers:
        return None
    (second,) = config.qualified - {first}
    fourth, fifth = sorted(config.eavesdroppers - {third})
    perm = {first: 1, second: 2, third: 3, fourth: 4, fifth: 5}
    if set(config.relabeled(perm).keys) != _ALIGNED_2OF5_MASKS:
        return None
    return ell, perm


def exact_capacity(config: KeyConfig) -> Optional[ExactCapacity]:
    """The setting, C and beta* of a solved shape; None for open ones.

    Recognized shapes, tried in order: one qualified receiver; one
    eavesdropper; 2-of-4; the aligned 2-of-5 topology; symmetric size
    profiles.  Any other configuration with a zero rate converse has
    C = beta* = 0 (setting "zero_rate"); the check comes last, so solved
    shapes keep their setting.  Returns None for everything else (open
    settings).

    C is the rate converse, save the aligned 2-of-5 topology, whose C is
    5l/3 for key size l.  beta* is bw_converse at C, which the paper's
    construction meets in each setting; it is None for one eavesdropper
    with unequal H(z_q | z_e) at K other than 4, where the minimum
    bandwidth is open.

    The answer is computed once per config and kept on it
    (`KeyConfig.memo`), so report and synth.synthesize share one reading
    and one bw_converse.
    """
    return config.memo(_recognize)


def _recognize(config: KeyConfig) -> Optional[ExactCapacity]:
    """exact_capacity(config), computed."""
    N, K = config.N, config.K
    c = rate_converse(config)
    if N == 1:
        setting = UNICAST
    elif N == K - 1:
        setting = MULTICAST
        *_, conds = config.eavesdropper_tables    # one eavesdropper: A unpacked
        if K != 4 and len(set(conds)) > 1:   # beta* open here
            return ExactCapacity(setting=MULTICAST, C=c, beta_star=None)
    elif N == 2 and K == 4:
        setting = GROUPCAST_2OF4
    elif (aligned := aligned_2of5_key_size(config)) is not None:
        setting, c = ALIGNED_2OF5, _as_number(Fraction(5 * aligned[0], 3))
    elif keyspace.is_symmetric(config)[0]:
        setting = SYMMETRIC
    elif c == 0:
        setting = ZERO_RATE
    else:
        return None
    return ExactCapacity(setting=setting, C=c, beta_star=bw_converse(config, c).value)


def report(config: KeyConfig) -> BoundsReport:
    """Full bounds report: rate converse, bandwidth lower bound, exact
    values where recognized, and the looseness flag.

    bw_lower is beta* where it is known, else the bandwidth converse at C
    (at the rate converse when no setting is recognized)."""
    upper = rate_converse(config)
    exact = exact_capacity(config)
    if exact is not None and exact.beta_star is not None:
        bw_lower = exact.beta_star
    else:
        bw_lower = bw_converse(config, exact.C if exact is not None else upper).value
    gap = exact is not None and exact.C < upper
    return BoundsReport(rate_upper=upper, bw_lower=bw_lower, exact=exact, gap=gap)
