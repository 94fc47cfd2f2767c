"""Capacity-achieving scheme builders for every solved groupcast setting.

Every builder constructs its scheme once and passes it through
build_verified, which returns it only if the exact verifier accepts it
and raises SynthesisError (exit 4) otherwise; the dispatch below maps a
key configuration onto the most specific solved shape.
"""

from __future__ import annotations

from ..bounds import aligned_2of5_key_size
from ..keyspace import KeyConfig, invert_perm, is_symmetric
from ..scheme import LinearScheme
from ._common import (NotSymmetricError, SegmentAllocator, SynthesisError,
                      UnsolvedSettingError, build_verified)
from .groupcast24 import (COMPONENTS, ComponentSig, capacity_2of4,
                          component_counts, component_instance,
                          groupcast_2of4, min_bandwidth_2of4)
from .instance25 import instance_2of5
from .multicast import multicast, multicast_k4_bw
from .multimessage import (InfeasibleRates, min_bandwidth, multimessage,
                           region_violation)
from .symmetric import symmetric
from .unicast import unicast

__all__ = [
    "COMPONENTS", "ComponentSig", "InfeasibleRates", "NotSymmetricError",
    "SegmentAllocator", "SynthesisError", "UnsolvedSettingError",
    "build_verified", "capacity_2of4", "component_counts",
    "component_instance", "groupcast_2of4", "instance_2of5", "min_bandwidth",
    "min_bandwidth_2of4", "multicast", "multicast_k4_bw", "multimessage",
    "region_violation", "symmetric", "synthesize", "unicast",
]


def synthesize(config: KeyConfig, seed: int = 0) -> LinearScheme:
    """Build a verified capacity-achieving scheme for a solved shape.

    Dispatch order (most specific wins): one qualified receiver; one
    eavesdropper (bandwidth-optimal variant when K = 4); 2-of-4; the
    aligned five-key 2-of-5 topology; symmetric profiles.  Raises
    UnsolvedSettingError for everything else.
    """
    if config.N == 1:
        return unicast(config, seed)
    if config.K == 4 and config.N == 3:
        return multicast_k4_bw(config, seed)
    if config.N == config.K - 1:
        return multicast(config, seed)
    if config.K == 4 and config.N == 2:
        return groupcast_2of4(config, seed)
    detected = aligned_2of5_key_size(config)
    if detected is not None:
        ell, perm = detected
        return instance_2of5(ell, seed).relabeled(invert_perm(perm))
    flag, _ = is_symmetric(config)
    if flag:
        return symmetric(config, seed)
    raise UnsolvedSettingError(
        f"no construction known for N={config.N} of K={config.K} with this "
        f"key profile; solved shapes are N=1, N=K-1, (N,K)=(2,4), symmetric "
        f"profiles, and the aligned five-key 2-of-5 topology")
