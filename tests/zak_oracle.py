"""The truncated Zak sum one (t, w) row at a time, as an oracle for the
grid FFT and the paired sum of ``gaborzak.zak``."""

import numpy as np

from gaborzak import zak


def pairwise_lattice_sums(window, tpts, opts, K):
    """Zf(t_i, w_i) at the rows of the (n, d) arrays tpts and opts, summed
    over |kappa|_inf <= K: one window value and one complex exponential per
    row and kappa, added in lexicographic kappa order."""
    n, d = tpts.shape
    out = np.zeros(n, dtype=complex)
    for kappa in zak._kappa_tuples(K, d):
        f = np.asarray(window.eval_many(tpts + np.array(kappa, dtype=float)))
        phase = np.zeros(n)
        for axis in range(d):
            if kappa[axis] != 0:
                phase = phase + opts[:, axis] * kappa[axis]
        out = out + f * np.exp(-2j * np.pi * phase)
    return out
