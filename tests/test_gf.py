import time
from itertools import product

import pytest

from securegroupcast import (Field, FMatrix, NoSolutionError, NotPrimeError, is_prime,
                             least_prime_at_least, solve_right)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_field_new_accepts_primes():
    assert Field(2).p == 2
    assert Field(7).p == 7


def test_field_new_rejects_composites_and_garbage():
    with pytest.raises(NotPrimeError):
        Field(6)
    with pytest.raises(NotPrimeError):
        Field(1)
    with pytest.raises(NotPrimeError):
        Field(0)


def odd_without_small_factors(digits):
    """The least odd number of `digits` digits with no prime factor up to
    37, the last Miller-Rabin witness, so that trial division passes it."""
    n = 10 ** (digits - 1) + 1
    while any(n % q == 0 for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
        n += 2
    return n


def test_field_checks_the_64_bit_bound_before_primality():
    """Miller-Rabin spends seconds per witness on a 4,185-digit number;
    the 64-bit bound refuses it first, and the message names the bound."""
    start = time.perf_counter()
    with pytest.raises(NotPrimeError, match=r"below 2\^63 .* got a 13899-bit number"):
        Field(odd_without_small_factors(4185))
    assert time.perf_counter() - start < 1
    assert Field(2**63 - 25).p == 2**63 - 25          # the largest prime below 2^63
    with pytest.raises(NotPrimeError, match=r"below 2\^63"):
        Field(2**64 + 13)                               # prime, but past the bound


# Field is only a modulus; residues are added, multiplied and inverted by
# FMatrix and its elimination.  The axioms are checked there on 1x1 matrices.

def el(f, a):
    return FMatrix(f, [[a]])


def inv(f, a):
    """a^-1 as the solution x of a x = 1."""
    return int(solve_right(el(f, a), el(f, 1)).array[0, 0])


def test_inv_examples():
    assert inv(Field(7), 2) == 4
    assert inv(Field(2), 1) == 1
    assert inv(Field(5), 3) == 2


def test_inv_of_zero_raises():
    with pytest.raises(NoSolutionError):
        inv(Field(5), 0)


def test_least_prime_at_least():
    assert least_prime_at_least(2) == 2
    assert least_prime_at_least(11) == 11
    assert least_prime_at_least(12) == 13
    assert least_prime_at_least(15) == 17
    with pytest.raises(ValueError):
        least_prime_at_least(1)


def test_is_prime_against_trial_division():
    def slow(n):
        return n >= 2 and all(n % d for d in range(2, n))
    for n in range(500):
        assert is_prime(n) == slow(n), n


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_field_axioms_exhaustive(p):
    """Associativity, commutativity, distributivity, inverses for p <= 13."""
    f = Field(p)
    elems = [el(f, a) for a in range(p)]
    zero, one = elems[0], elems[1]
    for a, b in product(elems, repeat=2):
        assert a + b == b + a
        assert a @ b == b @ a
        assert a + -a == zero
        if a != zero:
            assert a @ el(f, inv(f, a.array[0, 0])) == one
    for a, b, c in product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_inv_involution(p):
    f = Field(p)
    for a in range(1, p):
        assert inv(f, inv(f, a)) == a


def test_field_contexts_compare_by_modulus():
    assert Field(5) == Field(5)
    assert Field(5) != Field(7)
    assert hash(Field(5)) == hash(Field(5))
