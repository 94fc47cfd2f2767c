"""A state-by-state reference for the counting oracle, for every block
layout: each verdict is read off every (W, S) state, evaluated in Python
integers, with no rank, slice or packed code.  Also the seeded random
schemes on which the oracle and the algebraic verifier are compared."""

import math
from collections import Counter
from itertools import product

import numpy as np

from securegroupcast import (Field, FMatrix, LinearScheme, NotDecodableError,
                             decoder_for)


def random_scheme(rng, p):
    """A single-message scheme of at most 2^14 states drawn from `rng`."""
    field = Field(p)
    k = rng.randint(2, 4)
    qualified = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k - 1)))
    segments = []
    d = 0
    for _ in range(rng.randint(0, 3)):
        subset = frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
        width = rng.randint(1, 2)
        segments.append((subset, width))
        d += width
    lw = rng.randint(0, 2)
    lx = rng.randint(0, 3)
    while p ** (lw + d) > 1 << 14:
        d -= segments[-1][1]
        segments.pop()
    a = np.array([[rng.randrange(p) for _ in range(lw)] for _ in range(lx)],
                 dtype=np.int64).reshape(lx, lw)
    b = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(lx)],
                 dtype=np.int64).reshape(lx, d)
    return LinearScheme(field=field, L=1, K=k, qualified=qualified,
                        layout=tuple(segments), A=FMatrix(field, a), B=FMatrix(field, b))


def _split_columns(blocks, k):
    """(inside, outside): the columns of consecutive (subset, width) blocks
    whose subset does and does not contain receiver k."""
    inside, outside, start = [], [], 0
    for subset, width in blocks:
        (inside if k in subset else outside).extend(range(start, start + width))
        start += width
    return tuple(inside), tuple(outside)


def key_columns(scheme, k):
    """(held, unknown) columns of B, read off the key layout."""
    return _split_columns(scheme.layout, k)


def message_columns(scheme, k):
    """(demanded, forbidden) columns of A, read off the message blocks."""
    return _split_columns(scheme.messages, k)


def group_by_view(n_digits, p, observe):
    """view -> Counter of messages over all states; observe(state) gives
    the (view, message) pair seen in one state."""
    groups = {}
    for state in product(range(p), repeat=n_digits):
        view, msg = observe(state)
        groups.setdefault(view, Counter())[msg] += 1
    return groups


def reference_verdicts(groups, q):
    """(decodes, independent, leakage bits) from exact per-view counts."""
    n = sum(sum(c.values()) for c in groups.values())
    decodes = all(len(c) == 1 for c in groups.values())
    independent = all(len(c) == q and len(set(c.values())) == 1 for c in groups.values())
    h_view = -sum(sum(c.values()) / n * math.log2(sum(c.values()) / n)
                  for c in groups.values())
    h_joint = -sum(v / n * math.log2(v / n) for c in groups.values() for v in c.values())
    return decodes, independent, math.log2(q) + h_view - h_joint


def reference_oracle(scheme):
    """(correct, decode success, leakage bits, secure) per receiver.

    A qualified receiver's view (X, its key symbols) must determine its
    demanded message columns, and each receiver that some block excludes
    must learn nothing about its forbidden columns."""
    p, lw, n = scheme.p, scheme.L_W, scheme.L_W + scheme.D
    a, b = scheme.A.tolist(), scheme.B.tolist()

    def evaluate(state):
        w, s = state[:lw], state[lw:]
        x = tuple((sum(c * v for c, v in zip(ar, w)) + sum(c * v for c, v in zip(br, s))) % p
                  for ar, br in zip(a, b))
        return w, s, x

    def verdicts(known, message):
        def observe(state):
            w, s, x = evaluate(state)
            return x + tuple(s[c] for c in known), tuple(w[c] for c in message)

        return reference_verdicts(group_by_view(n, p, observe), p ** len(message))

    correct, success, leakage, secure = {}, {}, {}, {}
    for k in range(1, scheme.K + 1):
        known = key_columns(scheme, k)[0]
        demanded, forbidden = message_columns(scheme, k)
        if any(k not in subset for subset, _ in scheme.messages):
            _, secure[k], leakage[k] = verdicts(known, forbidden)
        if k not in scheme.qualified:
            continue
        correct[k] = verdicts(known, demanded)[0]
        try:
            dec = decoder_for(scheme, k).tolist()
        except NotDecodableError:
            success[k] = 0.0
            continue
        hits = 0
        for state in product(range(p), repeat=n):
            w, s, x = evaluate(state)
            inp = x + tuple(s[c] for c in known)
            hits += (tuple(sum(c * v for c, v in zip(row, inp)) % p for row in dec)
                     == tuple(w[c] for c in demanded))
        success[k] = hits / p ** n
    return correct, success, leakage, secure
