"""Reference copy of the q-Hahn ensemble engine as it was before the
height-function row engine: a (samples, sites) occupancy array whose
suffix cumsum gives the heights on every step, trajectories grouped by
(occupancy, height) per site with np.unique, and one rng.random(samples)
per site.  The equality test compares the library's engine against it
with ==.  The kernel, the dtype rule and the Ensemble are the library's
own."""

import numpy as np

from dynvertex.errors import SizeLimit
from dynvertex.models import Ensemble, _int_dtype, _kernel


def ensemble_qhahn(spec, N, samples, rng):
    """Vectorized q-Hahn engine: per site, trajectories are grouped by
    (occupancy, height) and share one exact inverse-CDF table."""
    dtype = _int_dtype(sum(spec.row_degree(y) for y in range(1, N + 1)))
    occ = np.zeros((samples, N + 2), dtype=dtype)
    total = 0
    for t in range(N):
        y = t + 1
        j_in = np.full(samples, spec.row_degree(y), dtype=dtype)
        pre = occ.copy()
        suf = pre[:, ::-1].cumsum(axis=1)[:, ::-1]
        for x in range(1, t + 3):
            i1 = pre[:, x - 1].astype(np.int64)
            h = suf[:, x - 1].astype(np.int64)
            if not h.any() and not j_in.any():
                break
            key = i1 * (total + 1) + h
            u = rng.random(samples)
            j2 = np.zeros(samples, dtype=dtype)
            for kv in np.unique(key):
                mask = key == kv
                ik, hk = divmod(int(kv), total + 1)
                if ik == 0:
                    continue
                _, w, _ = _kernel(spec, x, t, ik, 0, hk)
                cdf = np.cumsum(w)
                j2[mask] = np.searchsorted(
                    cdf, u[mask], side="right").clip(0, ik)
            occ[:, x - 1] = i1 + j_in - j2
            j_in = j2
        if j_in.any():
            raise SizeLimit("horizontal propagation past the support")
        total += spec.row_degree(y)
    return Ensemble(N, 1, occ[:, ::-1].cumsum(axis=1)[:, ::-1])
