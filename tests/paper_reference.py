"""The paper's closed form for the minimum bandwidth of the K = 4
one-eavesdropper setting.  bounds reads that beta* off the bandwidth
converse and multicast_k4_bw builds to it; the tests hold both to this
formula."""

from securegroupcast import normalize_labels


def k4_beta_star(config):
    """l123 + max(2 l1 + l12 + 2 l13, 3 l1 + 2 l12 + 2 l13 - l23), with
    the key sizes read in normalized labels (receiver 4 the eavesdropper,
    receiver 1 of least H(z_q | z_4), l12 <= l13)."""
    norm = config.relabeled(normalize_labels(config, "multicast_k4"))
    l1, l12, l13, l23, l123 = (norm.key_size(s)
                               for s in ({1}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}))
    return l123 + max(2 * l1 + l12 + 2 * l13, 3 * l1 + 2 * l12 + 2 * l13 - l23)
