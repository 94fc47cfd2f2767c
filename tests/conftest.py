"""Shared instances used across the test modules.

ex1..ex4 and fig4 are the recurring demo configurations: unicast with four
keys, one-eavesdropper K=4, the 2-of-4 instance with sizes
(1,2,2,3,1,2,2,1), the all-3-subsets symmetric N=3/K=6 instance, and the
five-key aligned 2-of-5 topology.  one_cmp3_dropped makes the 2-of-4
builder fall one message bit short of capacity, for the optimality gate.
"""

from itertools import combinations

import pytest

from securegroupcast import KeyConfig


@pytest.fixture
def ex1():
    return KeyConfig.of(4, [1], {(1, 2): 4, (1, 3): 2, (1, 4): 1, (1, 3, 4): 3})


@pytest.fixture
def ex2():
    return KeyConfig.of(4, [1, 2, 3], {(1,): 1, (1, 3): 2, (2, 3): 3})


@pytest.fixture
def ex3():
    return KeyConfig.of(4, [1, 2], {(1,): 1, (2,): 2, (1, 3): 2, (1, 4): 3,
                                    (2, 3): 1, (2, 4): 2, (1, 2, 3): 2,
                                    (1, 2, 4): 1})


@pytest.fixture
def ex4():
    return KeyConfig.of(6, [1, 2, 3],
                        {c: 1 for c in combinations(range(1, 7), 3)})


@pytest.fixture
def fig4():
    return KeyConfig.of(5, [1, 2], {(1,): 1, (1, 2, 3): 1, (1, 4, 5): 1,
                                    (2, 4): 1, (2, 5): 1})


@pytest.fixture
def one_cmp3_dropped(monkeypatch):
    """The 2-of-4 case tree spends one Cmp3 fewer: its scheme still
    verifies, one message bit short of capacity."""
    import securegroupcast.synth.groupcast24 as groupcast24
    original = groupcast24.component_counts

    def short(sizes):
        counts, case = original(sizes)
        return {**counts, "Cmp3": counts["Cmp3"] - 1}, case

    monkeypatch.setattr(groupcast24, "component_counts", short)
