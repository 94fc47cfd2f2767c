"""Scheme builder for one qualified receiver and any number of eavesdroppers.

The transmitter one-time-pads the message with a mixed key V @ S built
from everything the qualified receiver knows, where V is a Cauchy matrix
with as many rows as message symbols.  Any eavesdropper e misses at least
L_W of those key symbols (that is exactly the capacity formula), and the
corresponding columns of V form a full-rank submatrix, so the residual pad
is uniform: zero leakage at bandwidth equal to the rate.  Every key used
holds the qualified receiver, so the builder works in its caller's labels.
"""

from __future__ import annotations

from ..fmatrix import FMatrix, cauchy
from ..gf import Field, least_prime_at_least
from ..keyspace import KeyConfig, WrongShapeError, set_of
from ..bounds import rate_converse
from ..scheme import LinearScheme
from ._common import build_verified, check_cells, empty_scheme


def unicast(config: KeyConfig, seed: int = 0) -> LinearScheme:
    """Capacity- and bandwidth-optimal scheme for |qualified| = 1."""
    if config.N != 1:
        raise WrongShapeError(f"unicast needs exactly one qualified receiver, got {config.N}")
    keys = [(m, size) for m, size in config.keys.items() if m & config.qualified_mask]
    lw = rate_converse(config)
    if lw == 0:
        return empty_scheme(config, "unicast", seed)
    total = sum(size for _, size in keys)
    layout = tuple((set_of(m), size) for m, size in keys)
    check_cells((lw, lw), (lw, total))
    field = Field(least_prime_at_least(lw + total))
    return build_verified(LinearScheme(
        field=field, L=1, K=config.K, qualified=config.qualified, layout=layout,
        A=FMatrix.identity(field, lw), B=cauchy(lw, total, field),
        meta={"builder": "unicast", "escalations": 0, "seed": seed}))
