"""Exact arithmetic in prime fields GF(p).

Every code symbol in this package is an integer residue modulo a prime p.
The modulus lives in a shared :class:`Field` context rather than on each
element; matrices and schemes carry their Field and refuse to combine
across different contexts, so mixed-modulus bugs cannot occur.

Only prime fields are supported (no extension fields): every construction
here needs nothing more than "p at least some threshold", and Bertrand's
postulate guarantees a prime within a factor two of any threshold.
"""

from __future__ import annotations

# Witness set that makes Miller-Rabin deterministic for all n < 3.3e24,
# which covers every 64-bit modulus we allow.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NotPrimeError(ValueError):
    """The requested field modulus is not a prime number."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 2**64)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def least_prime_at_least(n: int) -> int:
    """Smallest prime >= n (n >= 2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    while not is_prime(n):
        n += 1
    return n


class Field:
    """Arithmetic context for GF(p); the modulus is verified prime."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        # The 64-bit bound first: Miller-Rabin on a number of thousands of
        # digits takes seconds per witness.
        if isinstance(p, int) and p >= 1 << 63:
            raise NotPrimeError(f"field modulus must be below 2^63 to fit in 64 bits, "
                                f"got a {p.bit_length()}-bit number")
        if not isinstance(p, int) or p < 2 or not is_prime(p):
            raise NotPrimeError(f"field modulus must be prime, got {p!r}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.p})"
