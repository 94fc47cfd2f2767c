"""Every eavesdropper's own (f, a), read back from the packed table.

`KeyConfig.eavesdropper_tables` holds f[S] and a[i] of eavesdropper e_j in
bits [j w, (j+1) w) of F[S] and A[i] (keyspace module docstring).  The
tests read one slot at a time with a shift and a mask, the same for every
slot, so they do not lean on the shortcuts bounds takes at the top slot.
"""


def unpack(config):
    """[(e, f, a)] for each eavesdropper e, ascending, as tuples."""
    eaves, w, packed_f, packed_a = config.eavesdropper_tables
    mask = (1 << w) - 1

    def slot(xs, j):
        return tuple(x >> j * w & mask for x in xs)
    return [(e, slot(packed_f, j), slot(packed_a, j)) for j, e in enumerate(eaves)]


def spill(config):
    """The bits of F and A above the top slot; 0 when no slot overflowed."""
    eaves, w, packed_f, packed_a = config.eavesdropper_tables
    return sum(x >> len(eaves) * w for x in packed_f + packed_a)
