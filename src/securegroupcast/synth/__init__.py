"""Capacity-achieving scheme builders for every solved groupcast setting.

Every builder constructs its scheme once and passes it through
build_verified, which returns it only if the exact verifier accepts it
and raises SynthesisError (exit 4) otherwise.  synthesize recognizes no
shape of its own: bounds.exact_capacity decides the setting, synthesize
calls that setting's builder, and the scheme must meet the setting's C
and, where known, its beta* exactly, else SynthesisError again.
"""

from __future__ import annotations

from ..bounds import (ALIGNED_2OF5, GROUPCAST_2OF4, MULTICAST, SYMMETRIC,
                      UNICAST, ZERO_RATE, aligned_2of5_key_size, exact_capacity)
from ..keyspace import KeyConfig
from ..scheme import LinearScheme
from ._common import (MatrixTooLargeError, SegmentAllocator, SynthesisError,
                      UnsolvedSettingError, build_verified, check_cells, empty_scheme)
from .groupcast24 import (COMPONENTS, ComponentSig, component_counts,
                          component_instance, groupcast_2of4)
from .instance25 import instance_2of5
from .multicast import multicast, multicast_k4_bw
from .multimessage import (InfeasibleRates, min_bandwidth, multimessage,
                           region_violation)
from .symmetric import symmetric
from .unicast import unicast

__all__ = [
    "COMPONENTS", "ComponentSig", "InfeasibleRates", "MatrixTooLargeError", "SegmentAllocator",
    "SynthesisError", "UnsolvedSettingError", "build_verified",
    "check_cells", "component_counts", "component_instance", "groupcast_2of4",
    "instance_2of5", "min_bandwidth", "multicast", "multicast_k4_bw",
    "multimessage", "region_violation", "symmetric", "synthesize", "unicast",
]


def synthesize(config: KeyConfig, seed: int = 0) -> LinearScheme:
    """Build a verified scheme at the exact capacity of a solved shape.

    The setting of exact_capacity picks the builder (one eavesdropper
    takes the bandwidth-optimal variant when K = 4; a zero rate converse
    takes the empty scheme).  Raises UnsolvedSettingError when no
    setting is recognized, MatrixTooLargeError when A or B of the scheme
    would pass CELL_BUDGET (the only size refusal: a key no scheme column
    uses never counts), and SynthesisError when the scheme misses C or a
    known beta*.
    """
    exact = exact_capacity(config)
    if exact is None:
        raise UnsolvedSettingError(
            f"no construction known for N={config.N} of K={config.K} with this "
            f"key profile; solved shapes are N=1, N=K-1, (N,K)=(2,4), symmetric "
            f"profiles, the aligned five-key 2-of-5 topology, and a zero rate "
            f"converse")
    setting = exact.setting
    if setting == UNICAST:
        scheme = unicast(config, seed)
    elif setting == MULTICAST:
        scheme = (multicast_k4_bw if config.K == 4 else multicast)(config, seed)
    elif setting == GROUPCAST_2OF4:
        scheme = groupcast_2of4(config, seed)
    elif setting == ALIGNED_2OF5:
        ell, perm = aligned_2of5_key_size(config)
        scheme = instance_2of5(ell, seed, perm)
    elif setting == SYMMETRIC:
        scheme = symmetric(config, seed)
    else:  # ZERO_RATE: C = beta* = 0
        scheme = empty_scheme(config, ZERO_RATE, seed)
    if scheme.rate != exact.C or exact.beta_star not in (None, scheme.bandwidth):
        raise SynthesisError(
            f"{scheme.meta.get('builder')} output misses the {setting} optimum: "
            f"rate {scheme.rate}, bandwidth {scheme.bandwidth}; "
            f"C = {exact.C}, beta* = {exact.beta_star}")
    return scheme
