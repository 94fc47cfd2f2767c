"""Secure groupcast over combinatorial shared keys.

A transmitter shares an independent uniform key with every subset of K
receivers and wants to broadcast one message so that a chosen subset
decodes it while everyone else learns exactly nothing.  This package
computes the information-theoretic limits of that problem (message rate
and broadcast bandwidth), synthesizes explicit linear coding schemes over
prime fields that meet the limits in every solved setting, and verifies
each scheme's correctness and security exactly, both algebraically and by
exhaustive enumeration.
"""

from .gf import Field, NotPrimeError, is_prime, least_prime_at_least
from .fmatrix import (ColumnRanks, FMatrix, FieldTooSmallError, NoSolutionError,
                      cauchy, hstack, prefix_ranks, rank, rref, solve_right,
                      vstack)
from .keyspace import (KeyConfig, WrongShapeError, canonical_relabel, entropy_of,
                       invert_perm, is_symmetric, mask_of, normalize_labels, set_of)
from .bounds import (BoundsReport, BwBound, ExactCapacity,
                     aligned_2of5_key_size, bw_converse, exact_capacity,
                     rate_converse, report)
from .scheme import (DecodeFailureError, LinearScheme, NotDecodableError,
                     OracleReport, TooLargeError, Transcript, VerifyReport,
                     decoder_for, oracle_verify, simulate, verify,
                     verify_correctness, verify_security)
from .synth import (InfeasibleRates, SynthesisError, UnsolvedSettingError,
                    groupcast_2of4, instance_2of5, multicast, multicast_k4_bw,
                    multimessage, symmetric, synthesize, unicast)

__version__ = "0.1.0"
