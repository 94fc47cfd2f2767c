"""The 2-of-4 builder's assembly one key bit at a time, as it was written
before template stamping: each invocation takes one fresh column per
consumed key and writes its rows cell by cell.  groupcast_2of4 must
return the same scheme; the tests hold it to this reference."""

import numpy as np

from securegroupcast import FMatrix, Field, LinearScheme, invert_perm, normalize_labels
from securegroupcast.synth._common import SegmentAllocator
from securegroupcast.synth.groupcast24 import COMPONENTS, USEFUL_SUBSETS, component_counts

F2 = Field(2)


def groupcast_2of4_per_bit(config, seed=0):
    """The unverified 2-of-4 scheme, assembled bit by bit."""
    back = invert_perm(normalize_labels(config, "groupcast_2of4"))
    subsets = [(subset, frozenset(back[k] for k in subset)) for subset in USEFUL_SUBSETS]
    sizes = {subset: config.key_size(caller) for subset, caller in subsets}
    counts, case = component_counts(sizes)
    lw = sum(counts.values())
    lx = sum(COMPONENTS[name].tx_bits * n for name, n in counts.items())
    layout = tuple((subset, sizes[subset]) for subset in USEFUL_SUBSETS if sizes[subset])
    alloc = SegmentAllocator(layout)
    a = np.zeros((lx, lw), dtype=np.int64)
    b = np.zeros((lx, alloc.total), dtype=np.int64)
    row = msg = 0
    for name, sig in COMPONENTS.items():
        for _ in range(counts.get(name, 0)):
            bit = {subset: alloc.take(subset)[0] for subset in sig.consumes}
            for row_subsets in sig.rows:
                a[row, msg] = 1
                for subset in row_subsets:
                    b[row, bit[subset]] = 1
                row += 1
            msg += 1
    return LinearScheme(
        field=F2, L=1, K=4, qualified=config.qualified,
        layout=tuple((caller, sizes[subset]) for subset, caller in subsets if sizes[subset]),
        A=FMatrix(F2, a), B=FMatrix(F2, b),
        meta={"builder": "groupcast_2of4", "case": case, "counts": counts,
              "seed": seed, "escalations": 0})
