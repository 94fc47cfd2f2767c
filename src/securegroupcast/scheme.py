"""Linear secure-groupcast schemes and their exact verification.

A scheme broadcasts X = A @ W + B @ S over GF(p), where W is the message
vector and S is the global key vector.  Both are laid out as consecutive
blocks, each owned by a receiver subset: key segments, one per
combinatorial key subset, and message blocks.  Receiver k knows exactly the
columns of B whose segment subset contains k; it must decode the message
blocks whose subset contains k (its demanded columns of A) and learn
nothing about the others (its forbidden columns).  A single-message scheme
is one block owned by the qualified receivers: they demand all of W, and
every other receiver, an eavesdropper, forbids all of it.  A scheme holds
these column sets only as masks over M = [B | A] (`column_masks`).

Verification is exact, never statistical:

* algebraic tests reduce correctness and leakage to ranks.  With uniform
  independent keys and a linear map, receiver k's residual view is
  A_dem @ W_dem + A_forb @ W_forb + B_unk @ S_unk, so k decodes iff the
  demanded columns are independent modulo the column space of
  [A_forb | B_unk], and k's information about its forbidden blocks is
  exactly rank([B_unk | A_dem | A_forb]) - rank([B_unk | A_dem]) symbols.
  All these ranks are of column subsets of one matrix M = [B | A], so M is
  reduced once per scheme to its reduced echelon form R with pivot columns
  P.  With U the noise columns of a test and I the pivot rows of U ∩ P,
  rank(M[:, U]) = |I| + rank(R[not I, U minus P]) and
  rank(M[:, U + T]) = |I| + rank(R[not I, (U minus P) + T]) for the target
  columns T, both read from one prefix-rank pass over that small residual
  block.  U and T are unions of a receiver's column masks, built once per
  scheme with one run of ones per block;
* an independent brute-force oracle enumerates the (W, S) states, counts
  the joint distributions and reads mutual information in bits and decode
  success off those counts, with no linear-algebra shortcuts.  It counts
  each check only over the state digits that can change its answer: a
  receiver's view is X plus the key digits it holds, fixing those shifts X
  by a constant, so every such slice has the same (view, message)
  partition and one slice is counted.  The message of a decoding check is
  the receiver's demanded digits and that of a security check its
  forbidden digits; the other message digits count as noise.  Fixing the
  message digits shifts X by a constant too, so when X has fewer live rows
  than the check has noise digits, the repeating noise codes are counted
  once each and shifted by every message value.  Digits that share no row
  of X are independent, so every check runs block by block over the
  connected components of X's nonzero pattern.
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .fmatrix import (ColumnRanks, FMatrix, NoSolutionError, hstack, mask_columns, solve_right,
                      vstack)
from .gf import Field

DEFAULT_ORACLE_CAP = 1 << 22
ORACLE_CAP_ENV = "SGC_ORACLE_CAP"


class TooLargeError(ValueError):
    """The oracle's exhaustive state space exceeds the configured cap."""


class NotDecodableError(ValueError):
    """No linear decoder exists for this receiver."""


class DecodeFailureError(AssertionError):
    """A constructed decoder failed on a sampled input (verifier bug)."""


def _check_blocks(name: str, blocks, matrix: str, cols: int, members: frozenset[int]) -> None:
    """(subset, width) blocks must have nonempty subsets of the receivers
    and nonnegative widths summing to the `cols` columns of `matrix`."""
    if sum(w for _, w in blocks) != cols:
        raise ValueError(f"{name} widths must sum to the width of {matrix}")
    for subset, width in blocks:
        if not subset or not subset <= members:
            raise ValueError(f"{name} subset {sorted(subset)} outside receivers")
        if width < 0:
            raise ValueError(f"{name} widths must be nonnegative")


@dataclass(frozen=True)
class LinearScheme:
    """X = A @ W + B @ S over GF(p) with a segmented key layout.

    layout entries are (subset, width) pairs partitioning the columns of B
    in order; width counts field symbols (key symbols per block times the
    block count L).  messages partitions the columns of A the same way:
    each block must be decoded by the receivers of its subset, and every
    other receiver must learn nothing about it.  The subsets of the
    blocks cover exactly the qualified receivers; the default is one
    block, ((qualified, L_W),).  rate = L_W / L and bandwidth = L_X / L.
    """

    field: Field
    L: int
    K: int
    qualified: frozenset[int]
    layout: tuple[tuple[frozenset[int], int], ...]
    A: FMatrix
    B: FMatrix
    meta: Mapping[str, object] = dc_field(default_factory=dict, compare=False)
    messages: tuple[tuple[frozenset[int], int], ...] = ()

    def __post_init__(self):
        if not self.messages:
            object.__setattr__(self, "messages", ((self.qualified, self.A.cols),))
        if self.L < 1:
            raise ValueError("key block count L must be >= 1")
        if self.A.field != self.field or self.B.field != self.field:
            raise ValueError("A and B must live in the scheme's field")
        if self.A.rows != self.B.rows:
            raise ValueError("A and B must have the same number of rows")
        members = frozenset(range(1, self.K + 1))
        owners = [subset for subset, _ in self.messages]
        if (not self.qualified or not self.qualified <= members
                or frozenset.intersection(*owners) == members):
            raise ValueError("qualified must be a nonempty proper subset of receivers")
        if frozenset.union(*owners) != self.qualified:
            raise ValueError("message subsets must cover exactly the qualified receivers")
        _check_blocks("layout", self.layout, "B", self.B.cols, members)
        _check_blocks("message", self.messages, "A", self.A.cols, members)

    # -- derived sizes ---------------------------------------------------

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def L_W(self) -> int:
        return self.A.cols

    @property
    def L_X(self) -> int:
        return self.A.rows

    @property
    def D(self) -> int:
        return self.B.cols

    @property
    def rate(self) -> Fraction:
        return Fraction(self.L_W, self.L)

    @property
    def bandwidth(self) -> Fraction:
        return Fraction(self.L_X, self.L)

    @cached_property
    def eavesdroppers(self) -> frozenset[int]:
        """The receivers that must learn nothing about some message block:
        those outside some block's subset."""
        return frozenset(range(1, self.K + 1)) - frozenset.intersection(
            *(subset for subset, _ in self.messages))

    @cached_property
    def column_ranks(self) -> ColumnRanks:
        """The echelon form of M = [B | A] that every receiver's rank test reads."""
        return ColumnRanks(FMatrix._reduced(
            self.field, np.concatenate([self.B.array, self.A.array], axis=1)))

    @cached_property
    def _verdict(self) -> "VerifyReport":
        """verify(self), built on first use."""
        return VerifyReport(
            correct={k: verify_correctness(self, k) for k in sorted(self.qualified)},
            leakage={e: verify_security(self, e) for e in sorted(self.eavesdroppers)})

    # -- key layout ------------------------------------------------------

    def column_masks(self, k: int) -> tuple[int, int, int]:
        """(unknown, demanded, forbidden): receiver k's column masks over
        M = [B | A], bit j for column j.  unknown holds the key columns of
        B that k lacks; demanded and forbidden hold the columns of A,
        shifted by D, that k must decode and that it must learn nothing
        about."""
        if not 1 <= k <= self.K:
            raise ValueError(f"receiver {k} outside [1..{self.K}]")
        return self._masks[k - 1]

    @cached_property
    def _masks(self) -> list[tuple[int, int, int]]:
        """column_masks(k) at k - 1, from one pass over the blocks: each
        block's run of ones goes to the receivers of its subset."""
        held, demanded = [0] * (self.K + 1), [0] * (self.K + 1)
        start = 0
        for blocks, owned in ((self.layout, held), (self.messages, demanded)):
            for subset, width in blocks:
                run = ((1 << width) - 1) << start
                for k in subset:
                    owned[k] |= run
                start += width
        every_key, every_message = (1 << self.D) - 1, ((1 << self.L_W) - 1) << self.D
        return [(every_key ^ held[k], demanded[k], every_message ^ demanded[k])
                for k in range(1, self.K + 1)]

    @classmethod
    def empty(cls, K: int, qualified: Iterable[int], L: int = 1,
              meta: Optional[dict] = None) -> "LinearScheme":
        """The rate-0 scheme over GF(2): no message, no key, nothing sent."""
        f = Field(2)
        return cls(field=f, L=L, K=K, qualified=frozenset(qualified),
                   layout=(), A=FMatrix.zeros(f, 0, 0), B=FMatrix.zeros(f, 0, 0),
                   meta=meta or {})


class _ReadOnlyDict(dict):
    """A dict whose mutators raise TypeError; == and json.dumps still take
    it for a dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a verify report is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # pickle and copy.deepcopy rebuild it through dict.__init__
        return (_ReadOnlyDict, (dict(self),))


@dataclass(frozen=True)
class VerifyReport:
    """Exact algebraic verdicts: per-receiver decode, per-eavesdropper leak.

    Both mappings are read-only, as every caller of verify(scheme) shares
    the scheme's one report."""

    correct: Mapping[int, bool]
    leakage: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "correct", _ReadOnlyDict(self.correct))
        object.__setattr__(self, "leakage", _ReadOnlyDict(self.leakage))

    @property
    def ok(self) -> bool:
        return all(self.correct.values()) and not any(self.leakage.values())


def _gain(scheme: LinearScheme, noise: int, target: int) -> int:
    """rank(M[:, noise | target]) - rank(M[:, noise]) for column masks over
    M = [B | A]: the dimensions of the target columns that survive the
    noise columns."""
    base, total = scheme.column_ranks.ranks(noise, target)
    return total - base


def verify_correctness(scheme: LinearScheme, k: int) -> bool:
    """Whether qualified receiver k can always decode its demanded blocks
    from (X, Z_k)."""
    if k not in scheme.qualified:
        raise ValueError(f"receiver {k} is not qualified")
    unknown, demanded, forbidden = scheme.column_masks(k)
    return _gain(scheme, unknown | forbidden, demanded) == demanded.bit_count()


def verify_security(scheme: LinearScheme, e: int) -> int:
    """Exact leakage to eavesdropper e about its forbidden blocks, in
    symbols (0 means secure).

    rank([B_unk | A_dem | A_forb]) - rank([B_unk | A_dem]): the number of
    forbidden message dimensions not absorbed by key noise unknown to e
    and by the blocks e may decode.
    """
    if e not in scheme.eavesdroppers:
        raise ValueError(f"receiver {e} is not an eavesdropper")
    unknown, demanded, forbidden = scheme.column_masks(e)
    return _gain(scheme, unknown | demanded, forbidden)


def verify(scheme: LinearScheme) -> VerifyReport:
    """The algebraic correctness and security tests for all receivers.

    They run once per scheme; the report is cached on it, so
    synth.build_verified's check also answers every later caller."""
    return scheme._verdict


def decoder_for(scheme: LinearScheme, k: int) -> FMatrix:
    """Matrix M with W_dem = M @ [X; S_known] for every (W, S), W_dem
    being receiver k's demanded message columns.

    Raises NotDecodableError when receiver k cannot decode.
    """
    if k not in scheme.qualified:
        raise ValueError(f"receiver {k} is not qualified")
    unknown, demanded, forbidden = scheme.column_masks(k)
    f = scheme.field
    m = np.concatenate([scheme.B.array, scheme.A.array], axis=1)
    dem = mask_columns(demanded)
    # M1 @ [A_dem | B_unk | A_forb] = [I | 0 | 0]  <=>  g.T @ M1.T = [I; 0]
    g = FMatrix._reduced(f, m[:, dem + mask_columns(unknown | forbidden)])
    rhs = FMatrix._reduced(f, np.eye(g.cols, len(dem), dtype=np.int64))
    try:
        m1 = solve_right(g.transpose(), rhs).transpose()
    except NoSolutionError as exc:
        raise NotDecodableError(f"receiver {k} cannot decode") from exc
    b_held = FMatrix._reduced(f, m[:, mask_columns(((1 << scheme.D) - 1) ^ unknown)])
    return hstack([m1, -(m1 @ b_held)])


@dataclass(frozen=True)
class Transcript:
    """One seeded run: inputs drawn, signal emitted, all decoders checked."""

    seed: int
    w: tuple[int, ...]
    s: tuple[int, ...]
    x: tuple[int, ...]
    decoded: Mapping[int, tuple[int, ...]]


def simulate(scheme: LinearScheme, seed: int) -> Transcript:
    """Draw (W, S) from a seeded generator, broadcast, decode everywhere.

    Raises DecodeFailureError if any qualified receiver's constructed
    decoder fails to recover its demanded message columns exactly; that
    signals a verifier bug, not bad luck, because decoding is deterministic.
    """
    rng = random.Random(seed)
    f = scheme.field

    def draw(n: int) -> FMatrix:
        return FMatrix._reduced(f, np.array([rng.randrange(f.p) for _ in range(n)],
                                            dtype=np.int64).reshape(n, 1))

    w, s = draw(scheme.L_W), draw(scheme.D)
    x = scheme.A @ w + scheme.B @ s
    decoded = {}
    for k in sorted(scheme.qualified):
        unknown, demanded, _ = scheme.column_masks(k)
        known = FMatrix._reduced(f, s.array[mask_columns(((1 << scheme.D) - 1) ^ unknown)])
        w_hat = (decoder_for(scheme, k) @ vstack([x, known])).array[:, 0]
        want = w.array[mask_columns(demanded >> scheme.D), 0]
        if not np.array_equal(w_hat, want):
            raise DecodeFailureError(f"receiver {k} decoded {w_hat.tolist()} != {want.tolist()}")
        decoded[k] = tuple(int(v) for v in w_hat)
    return Transcript(seed=seed,
                      w=tuple(int(v) for v in w.array[:, 0]),
                      s=tuple(int(v) for v in s.array[:, 0]),
                      x=tuple(int(v) for v in x.array[:, 0]),
                      decoded=decoded)


# -- exhaustive counting oracle -------------------------------------------
#
# The oracle never looks at ranks.  Its state space is the p^(L_W + D_used)
# joint states s = sum_j d_j p^j, message digits lowest (unused all-zero key
# columns are dropped first: a key that never enters X is independent of
# everything and cannot change any receiver's information).  A check
# enumerates only the digits that can change its answer.  Receiver k sees X
# and its held key digits J.  X is linear, so on each slice s_J = v the view
# is X on the other digits plus a constant: every slice has the same
# (view, message) partition, and k's verdicts and leakage are those of one
# slice of p^(m - |J|) states.  The message of a check is a list of message
# digits: k's demanded digits when it decodes, its forbidden digits when it
# must learn nothing; the other message digits are free digits like unknown
# keys (noise).  A check codes X above the message bits (int32 when it fits
# in 31 bits); one sort groups the codes per (view, message) and per view.
# Fixing the message digits likewise shifts X by a constant, X's value on
# that message value.  So when X has fewer live forms (rows nonzero on the
# free digits) than there are noise digits, pigeonhole makes the noise
# codes repeat: they are coded once and each distinct code is kept once.
# X is linear, so each distinct code stands for the same number of noise
# states (a coset of the kernel), which becomes the weight of every entry.
# Each message value's views are the distinct codes plus its shift, one
# slot-wise mod-p add per code.  Any other check codes every free state,
# message digits lowest.  Both give the same group sizes in the same
# (view code, message) order.  Decoding is read off two group
# counts; group sizes are built only for security checks.
#
# Every check runs block by block over the connected components of the
# nonzero pattern of x_forms = [A | B_used], read without any rank.  Blocks
# share no row, so a view is the tuple of its per-block views: a check
# looks only at the blocks holding some of its message digits, and decodes
# (is secure) exactly when it does in each, its leakage the sum of theirs.
# Equal blocks with equal held and message digits are counted once per
# call.  `states` and the cap still count the whole p^(L_W + D_used), so
# the refusal does not depend on how a scheme splits.


def oracle_cap() -> int:
    """Active oracle state cap (env SGC_ORACLE_CAP overrides the default)."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    digits = raw.strip()
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:   # int() would refuse it with advice for Python code
        raise ValueError(f"{ORACLE_CAP_ENV} is longer than {limit} digits, the longest sgc "
                         f"reads: {raw[:20]!r}... ({len(raw)} characters)")
    cap = int(digits) if digits.isdecimal() else 0
    if cap < 1 or cap & (cap - 1):
        raise ValueError(f"{ORACLE_CAP_ENV} must be a power of two, got {raw!r}")
    return cap


_CODE_BITS = 62   # state codes stay below 2^62


def _slot_bits(p: int) -> int:
    """Bits per packed residue: one over GF(2), else room for a sum of two."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def _expand(p: int, m: int, forms: np.ndarray, low: int = 0,
            base: Optional[np.ndarray] = None) -> np.ndarray:
    """Values of the linear forms (rows of `forms`, one coefficient per
    state digit) on all p^m states, packed one residue per slot of
    _slot_bits(p) bits from bit `low` up, first form lowest; int32 when
    every slot lies below bit 31, else int64.  Given `base`, codes of the
    same forms on other digits, entry s * len(base) + i holds base[i] plus
    the values on state s.

    The states with digit j equal to d are the states below p^j plus
    d * e_j, so the code is built digit by digit from its values on unit
    states.  Over GF(2) that is one XOR per state.  Over GF(p) every slot is
    reduced mod p by one compare-and-subtract, done on all slots at once:
    adding 2^g - p to a slot sets its guard bit g exactly when the slot
    holds p or more.  Nothing divides.
    """
    w = _slot_bits(p)
    dtype = np.int32 if low + w * len(forms) <= 31 else np.int64
    h = 1 if base is None else len(base)
    code = np.zeros(p ** m * h, dtype=dtype)
    if base is not None:
        code[:h] = base
    spare = np.empty_like(code)   # scratch of the GF(p) reduction, shared by all digits
    shifts = low + np.arange(len(forms), dtype=np.int64) * w
    g = w - 1
    lift = dtype(np.sum(((1 << g) - p) << shifts))
    guards = dtype(np.sum(1 << (shifts + g)))
    for j in range(m):
        # the code's values on d * e_j for d = 1 .. p-1
        units = ((np.arange(1, p)[:, None] * forms[:, j]) % p << shifts).sum(axis=1).astype(dtype)
        block = code[h:p * h].reshape(p - 1, h)
        if p == 2:
            np.bitwise_xor(code[:h], units[:, None], out=block)
        else:
            np.add(code[:h], units[:, None], out=block)
            over = np.add(block, lift, out=spare[:block.size].reshape(block.shape))
            over &= guards
            over >>= g
            over *= p
            block -= over
        h *= p
    return code


def _renumber(code: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense order-preserving renumbering of a code, and its bit width."""
    values, dense = np.unique(code, return_inverse=True)
    return dense, (len(values) - 1).bit_length()


def state_code(p: int, m: int, forms: np.ndarray, low: int = 0) -> tuple[np.ndarray, int]:
    """(code, bits): a code below 2^bits on all p^m states with its low
    `low` bits zero, equal on two states exactly when every linear form
    (row of `forms`) takes equal values on them, and 0 exactly where every
    form vanishes.  It is int32 when low + w * len(forms) <= 31 (w below),
    else int64.

    Form i's value sits in bits [low + i*w, low + (i+1)*w), w = 1 over
    GF(2) and bit_length(p - 1) + 1 otherwise, while all forms fit in 62
    bits.  Past that, the code so far is renumbered densely (below the
    state count) and packing goes on; renumbering keeps 0, the code of
    state 0.
    """
    w = _slot_bits(p)
    if low + w * len(forms) <= _CODE_BITS:
        return _expand(p, m, forms, low), low + w * len(forms)
    take = _CODE_BITS // w
    code, bits = _expand(p, m, forms[:take]), w * len(forms[:take])
    forms = forms[take:]
    while len(forms):
        code, bits = _renumber(code)
        head = forms[:(_CODE_BITS - bits) // w]
        code = (code << (w * len(head))) | _expand(p, m, head)
        bits += w * len(head)
        forms = forms[len(head):]
    if bits + low > _CODE_BITS:
        code, bits = _renumber(code)
    return code << low, bits + low


def group_stats(joint: np.ndarray, message_bits: int, messages: int,
                weight: int = 1) -> GroupCounts:
    """Groups of one in-place sort of the joint code, whose low `message_bits`
    bits hold the message and the rest the view; each entry stands for
    `weight` states."""
    joint.sort()
    return GroupCounts(joint[1:] ^ joint[:-1], (1 << message_bits) - 1, messages, weight)


def _entropy_bits(counts: np.ndarray, n: int) -> float:
    return math.log2(n) - float(np.sum(counts * np.log2(counts))) / n


def _sizes(starts: np.ndarray) -> np.ndarray:
    """Group sizes from a mask of where, between neighbours, a new group starts."""
    return np.diff(np.flatnonzero(np.concatenate(([True], starts, [True]))))


@dataclass(frozen=True)
class GroupCounts:
    """States grouped by view and by (view, message) over equally likely
    states, messages uniform over `messages` values.  `step` is the XOR of
    neighbours in the sorted joint code: a nonzero step starts a joint
    group, and a step above `msg_mask`, the message bits, starts a view
    group too.  Each sorted entry stands for `weight` states.  The group
    sizes are built on first use; decodes() needs only counts."""

    step: np.ndarray
    msg_mask: int
    messages: int
    weight: int = 1

    @cached_property
    def view(self) -> np.ndarray:
        """State count per view, in code order."""
        return _sizes(self.step > self.msg_mask) * self.weight

    @cached_property
    def joint(self) -> np.ndarray:
        """State count per (view, message), each view's consecutively."""
        return _sizes(self.step != 0) * self.weight

    def decodes(self) -> bool:
        """Every view determines the message: every step that starts a
        joint group starts a view group too."""
        return bool(np.count_nonzero(self.step) == np.count_nonzero(self.step > self.msg_mask))

    def independent(self) -> bool:
        """The view tells nothing about the message, decided on integers:
        every view group splits into one equal group per message value."""
        q = self.messages
        return (len(self.joint) == q * len(self.view)
                and bool(np.all(self.joint.reshape(-1, q) * q == self.view[:, None])))

    def leakage_bits(self) -> float:
        """Mutual information of view and message in bits (display only);
        exactly 0.0 when independent()."""
        if self.independent():
            return 0.0
        n = (len(self.step) + 1) * self.weight
        return (math.log2(self.messages) + _entropy_bits(self.view, n)
                - _entropy_bits(self.joint, n))


def view_groups(p: int, x_forms: np.ndarray, held: Sequence[int],
                message: Sequence[int]) -> GroupCounts:
    """Group counts of the view (X, the state digits `held`) against the
    message in the state digits `message`, none of them held; `x_forms`
    holds one row of coefficients per entry of X, one column per state
    digit.

    Only the other (free) digits count: every slice where the held digits
    are fixed has the same (view, message) partition.  The message value
    fills the spare low bits of the view's code.  With fewer live forms
    than noise digits (free digits outside the message) the noise codes
    repeat, so each distinct one is kept once and shifted by the forms'
    values on each message value.  The forms are linear, so every distinct
    code repeats equally often, p^len(noise) / (distinct codes) times, the
    weight of each entry.  Otherwise every free state is coded, message
    digits lowest, so a state's message value is its index mod
    p^len(message)."""
    skip = set(held).union(message)
    noise = [j for j in range(x_forms.shape[1]) if j not in skip]
    free = list(message) + noise
    forms = x_forms[x_forms[:, free].any(axis=1)]
    q = p ** len(message)
    message_bits = (q - 1).bit_length()
    if len(forms) < len(noise) and _slot_bits(p) * len(forms) + message_bits <= _CODE_BITS:
        codes = np.unique(_expand(p, len(noise), forms[:, noise], message_bits))
        joint = _expand(p, len(message), forms[:, list(message)], message_bits, codes)
        by_message = joint.reshape(q, -1)   # a view of joint, one row per message value
        by_message |= np.arange(q, dtype=joint.dtype)[:, None]
        return group_stats(joint, message_bits, q, p ** len(noise) // len(codes))
    code, _ = state_code(p, len(free), forms[:, free], message_bits)
    by_message = code.reshape(-1, q)   # a view of code
    by_message |= np.arange(q, dtype=code.dtype)
    return group_stats(code, message_bits, q)


@dataclass(frozen=True)
class OracleReport:
    """Brute-force verdicts: counting entropies, no algebraic shortcuts.

    `correct` and `secure` are the exact decode and zero-leakage verdicts,
    decided on integer counts; `decode_success` is read off `correct` and
    `leakage_bits` is for display.  `states` is the whole state count
    p^(L_W + D_used); `block_states` is the most states any one block
    check stood for, p^(its block's digits the receiver does not hold),
    and 0 when no check has a message digit."""

    correct: Mapping[int, bool]
    leakage_bits: Mapping[int, float]
    secure: Mapping[int, bool]
    states: int
    block_states: int

    @property
    def decode_success(self) -> Mapping[int, float]:
        """Fraction of states where each qualified receiver's linear decoder
        is right, read off `correct`: 1.0 where every view determines the
        message, else 0.0, as no linear decoder exists."""
        return {k: float(c) for k, c in self.correct.items()}

    @property
    def ok(self) -> bool:
        return all(self.correct.values()) and all(self.secure.values())


def _blocks(x_forms: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """(rows, digits) of each connected component of the nonzero pattern of
    x_forms, in the order of their lowest digits: a row joins every digit
    where it is nonzero, a digit that no row reaches is a block with no
    rows, and a zero row belongs to no block."""
    root = list(range(x_forms.shape[1]))

    def find(c: int) -> int:
        while root[c] != c:
            root[c] = c = root[root[c]]
        return c

    first: dict[int, int] = {}   # row -> its first nonzero digit
    for i, j in zip(*(a.tolist() for a in np.nonzero(x_forms))):
        root[find(j)] = find(first.setdefault(i, j))
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for j in range(len(root)):
        blocks.setdefault(find(j), ([], []))[1].append(j)
    for i, j in first.items():
        blocks[find(j)][0].append(i)
    return list(blocks.values())


def oracle_verify(scheme: LinearScheme, cap: Optional[int] = None) -> OracleReport:
    """Exhaustively enumerate (W, S) and measure exactly what each
    receiver learns.

    Refuses with TooLargeError when the state count p^(L_W + D_used)
    exceeds the cap (argument, else SGC_ORACLE_CAP, else 2**22).
    """
    if cap is None:
        cap = oracle_cap()
    p = scheme.p
    b = scheme.B.array
    used = np.flatnonzero(b.any(axis=0)).tolist()
    m = scheme.L_W + len(used)
    # 2^m > cap needs no power; a decimal past 4,300 digits is refused by Python
    if m > cap.bit_length() or p ** m > cap:
        shown = f" = {p ** m}" if m * p.bit_length() <= 14_000 else ""
        raise TooLargeError(f"p^(L_W + D_used) = {p}^{m}{shown} exceeds the oracle cap {cap}")
    x_forms = np.concatenate([scheme.A.array, b[:, used]], axis=1)
    blocks = [(cols, x_forms[np.ix_(rows, cols)]) for rows, cols in _blocks(x_forms)]
    counted: dict[tuple, GroupCounts] = {}   # (shape, forms, held, message) -> counts

    def groups(k: int, message: int) -> list[GroupCounts]:
        """k's group counts on each block holding a digit of `message`."""
        unknown = scheme.column_masks(k)[0]
        held = sum(1 << (scheme.L_W + i) for i, c in enumerate(used) if not unknown >> c & 1)
        wanted = message >> scheme.D
        out = []
        for cols, forms in blocks:
            local = [i for i, c in enumerate(cols) if wanted >> c & 1]
            if not local:
                continue
            kept = [i for i, c in enumerate(cols) if held >> c & 1]
            key = (forms.shape, forms.tobytes(), tuple(kept), tuple(local))
            if key not in counted:
                counted[key] = view_groups(p, forms, kept, local)
            out.append(counted[key])
        return out

    correct: dict[int, bool] = {}
    leakage: dict[int, float] = {}
    secure: dict[int, bool] = {}
    for k in sorted(scheme.qualified):
        correct[k] = all(g.decodes() for g in groups(k, scheme.column_masks(k)[1]))
    for e in sorted(scheme.eavesdroppers):
        views = groups(e, scheme.column_masks(e)[2])
        secure[e] = all(g.independent() for g in views)
        leakage[e] = math.fsum(g.leakage_bits() for g in views)
    largest = max((p ** (shape[1] - len(kept)) for shape, _, kept, _ in counted), default=0)
    return OracleReport(correct=correct, leakage_bits=leakage, secure=secure, states=p ** m,
                        block_states=largest)

