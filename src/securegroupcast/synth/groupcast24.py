"""Scheme builder for two qualified receivers out of four (GF(2)).

No single coding template covers this shape; instead every instance
decomposes into integer multiples of seven one-bit building blocks, each a
tiny verified scheme on its own key bits (receivers 1, 2 qualified;
receivers 3, 4 eavesdropping):

    OTP12  X = W + s12                       1 tx bit
    Cmp1   X = W + s123 + s124               1 tx bit
    Cmp2   X = (W + s1,        W + s2)       2 tx bits
    Cmp3   X = (W + s2,        W + s13 + s14)
    Cmp4   X = (W + s123 + s24, W + s123 + s14)
    Cmp5   X = (W + s2,        W + s123 + s14)
    Cmp6   X = (W + s13 + s14, W + s23 + s24)

Cmp4 reuses one s123 bit in both rows: eavesdropper 4 knows s14 and s24,
and after cancelling them sees the same W + s123 twice, so the repeats
align instead of leaking.  Keys held by both eavesdroppers or by neither
qualified receiver cannot help and are ignored.

Invocation counts come from a greedy case split on the key sizes in
normalized labels (l1 <= l2 and l124 <= l123): s12, the s123/s124 overlap
and the s1/s2 overlap are always spent first; the remaining budget of s2,
then the pair keys with the eavesdroppers, determine how many of Cmp3..6
fit.  Every branch lands exactly on the capacity
l12 + min(l1+l14+l124, l1+l13+l123, l2+l24+l124, l2+l23+l123) with
bandwidth 2C - l12 - l124, the paper's closed forms.  They equal the
rate converse and the bandwidth converse at C, which
bounds.exact_capacity returns and synthesize holds the scheme to.  The
scheme is written in the caller's labels, read off a table with one
entry per label permutation.

Assembly stamps templates: a component invoked n times spends n
consecutive bits of each key it consumes (one SegmentAllocator take, which
refuses to pass the key's width), so each template row is one packed
[B | A] row, shifted left by i for invocation i; gf2_matrices turns the
rows into A and B.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from ..fmatrix import FMatrix
from ..keyspace import KeyConfig, invert_perm, mask_of, normalize_labels, set_of
from ..scheme import LinearScheme
from ._common import F2, SegmentAllocator, build_verified, check_cells, gf2_matrices


def _s(*receivers: int) -> frozenset[int]:
    return frozenset(receivers)


@dataclass(frozen=True)
class ComponentSig:
    """One building block: which fresh key bits it consumes and how each
    transmit row pads the single message bit with them."""

    consumes: tuple[frozenset[int], ...]
    rows: tuple[tuple[frozenset[int], ...], ...]

    @property
    def tx_bits(self) -> int:
        return len(self.rows)


# In the order groupcast_2of4 emits their rows.
COMPONENTS: dict[str, ComponentSig] = {
    "OTP12": ComponentSig((_s(1, 2),), ((_s(1, 2),),)),
    "Cmp1": ComponentSig((_s(1, 2, 3), _s(1, 2, 4)), ((_s(1, 2, 3), _s(1, 2, 4)),)),
    "Cmp2": ComponentSig((_s(1), _s(2)), ((_s(1),), (_s(2),))),
    "Cmp3": ComponentSig((_s(2), _s(1, 3), _s(1, 4)), ((_s(2),), (_s(1, 3), _s(1, 4)))),
    "Cmp4": ComponentSig((_s(1, 2, 3), _s(1, 4), _s(2, 4)),
                         ((_s(1, 2, 3), _s(2, 4)), (_s(1, 2, 3), _s(1, 4)))),
    "Cmp5": ComponentSig((_s(2), _s(1, 4), _s(1, 2, 3)),
                         ((_s(2),), (_s(1, 2, 3), _s(1, 4)))),
    "Cmp6": ComponentSig((_s(1, 3), _s(1, 4), _s(2, 3), _s(2, 4)),
                         ((_s(1, 3), _s(1, 4)), (_s(2, 3), _s(2, 4)))),
}

# Subsets that can contribute: touch a qualified receiver, not known to
# both eavesdroppers.  In ascending mask order, the order of the layout.
USEFUL_SUBSETS: tuple[frozenset[int], ...] = (
    _s(1), _s(2), _s(1, 2), _s(1, 3), _s(2, 3), _s(1, 2, 3),
    _s(1, 4), _s(2, 4), _s(1, 2, 4))

# The caller's labels of normalized receivers 1..4 -> each useful subset
# in the caller's labels, with its mask (one shared pair per mask).
_PAIRS = {m: (set_of(m), m) for m in range(1, 16)}
_CALLER_SUBSETS = {back: tuple(_PAIRS[mask_of(back[k - 1] for k in subset)]
                               for subset in USEFUL_SUBSETS)
                   for back in permutations(range(1, 5))}


def _stamp(counts: dict[str, int], alloc: SegmentAllocator) -> tuple[FMatrix, FMatrix]:
    """(A, B) of each component invoked counts[name] times, in COMPONENTS
    order, on fresh key columns from alloc (module docstring)."""
    rows: list[int] = []   # packed rows of [B | A], bit j = column j
    msg = d = alloc.total  # the next message column, as a bit of [B | A]
    for name, sig in COMPONENTS.items():
        n = counts.get(name, 0)
        if n < 1:
            continue
        # each consumed key's first bit in this component's run of n bits
        first = {subset: 1 << alloc.take(subset, n)[0] for subset in sig.consumes}
        template = [sum(first[subset] for subset in row) | 1 << msg for row in sig.rows]
        rows += [pattern << i for i in range(n) for pattern in template]
        msg += n
    return gf2_matrices(rows, d, msg)


def component_instance(name: str) -> LinearScheme:
    """The one-invocation scheme of a component on its own fresh key bits."""
    layout = tuple((subset, 1) for subset in COMPONENTS[name].consumes)
    a, b = _stamp({name: 1}, SegmentAllocator(layout))
    return LinearScheme(field=F2, L=1, K=4, qualified=_s(1, 2), layout=layout,
                        A=a, B=b, meta={"builder": name})


def component_counts(sizes: dict[frozenset[int], int]) -> tuple[dict[str, int], str]:
    """Invocation counts per component for normalized sizes.

    Requires l1 <= l2 and l124 <= l123 (the normalize_labels ordering);
    returns (counts, case label).  Each count is how many fresh bits of
    every key in that component's signature get spent.
    """
    g = sizes.get
    l1, l2 = g(_s(1), 0), g(_s(2), 0)
    l12 = g(_s(1, 2), 0)
    l13, l14 = g(_s(1, 3), 0), g(_s(1, 4), 0)
    l23, l24 = g(_s(2, 3), 0), g(_s(2, 4), 0)
    l123, l124 = g(_s(1, 2, 3), 0), g(_s(1, 2, 4), 0)
    if l1 > l2 or l124 > l123:
        raise ValueError("sizes must satisfy l1 <= l2 and l124 <= l123")
    counts = {"OTP12": l12, "Cmp1": l124, "Cmp2": l1}
    if l2 - l1 >= min(l13, l14):
        counts["Cmp3"] = min(l13, l14)
        if l14 <= l13:
            case = "1.1"
        else:
            t = min(l14 - l13, l123 - l124, l24)
            counts["Cmp4"] = t
            if t == l14 - l13:
                case = "1.2.1"
            elif t == l123 - l124:
                case = "1.2.2"
            else:
                case = "1.2.3"
                counts["Cmp5"] = min(l2 - l1 - l13, l14 - l13 - l24,
                                     l123 - l124 - l24)
    else:
        counts["Cmp3"] = l2 - l1
        t = min(l24, l14 - l2 + l1, l123 - l124)
        counts["Cmp4"] = t
        if t == l24:
            case = "2.1"
        elif t == l14 - l2 + l1:
            case = "2.2"
        else:
            case = "2.3"
            counts["Cmp6"] = min(l14 - l2 + l1 - l123 + l124, l13 - l2 + l1,
                                 l24 - l123 + l124, l23)
    return {k: v for k, v in counts.items() if v > 0}, case


def groupcast_2of4(config: KeyConfig, seed: int = 0) -> LinearScheme:
    """Capacity- and bandwidth-optimal GF(2) scheme for 2-of-4 groupcast."""
    back = invert_perm(normalize_labels(config, "groupcast_2of4"))
    callers = _CALLER_SUBSETS[tuple(back[k] for k in range(1, 5))]
    sizes = {subset: config.keys.get(mask, 0)
             for subset, (_, mask) in zip(USEFUL_SUBSETS, callers)}
    counts, case = component_counts(sizes)
    lw = sum(counts.values())
    lx = sum(COMPONENTS[name].tx_bits * n for name, n in counts.items())
    alloc = SegmentAllocator((subset, sizes[subset]) for subset in USEFUL_SUBSETS if sizes[subset])
    check_cells((lx, lw), (lx, alloc.total))
    a, b = _stamp(counts, alloc)
    return build_verified(LinearScheme(
        field=F2, L=1, K=4, qualified=config.qualified,
        layout=tuple((caller, sizes[subset])
                     for subset, (caller, _) in zip(USEFUL_SUBSETS, callers) if sizes[subset]),
        A=a, B=b, meta={"builder": "groupcast_2of4", "case": case, "counts": counts,
                        "seed": seed, "escalations": 0}))
