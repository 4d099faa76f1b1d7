"""Roots of families of cubic polynomials with complex coefficients,
vectorized over dense grids.

The roots of c3*x^3 + c2*x^2 + c1*x + c0 (c0 != 0) are the reciprocals of
the roots of the reversed polynomial c0*w^3 + c1*w^2 + c2*w + c3, taken
as the eigenvalues of its companion matrix.  Nothing is divided by c3, so
a small leading coefficient costs no accuracy on the other roots, and
c3 = 0 gives w = 0, an infinite root.  The eigensolver is backward stable,
and three Newton steps on the original polynomial then take each finite
root to a residual at machine-precision level.
"""

from __future__ import annotations

import numpy as np


def solve_cubic_many(c3, c2, c1, c0) -> np.ndarray:
    """All three roots of c3*x^3 + c2*x^2 + c1*x + c0 = 0 for coefficients
    that broadcast together, c0 nonzero.  Returns an array of shape
    (3,) + the broadcast shape; a vanishing c3 gives a root at inf, as
    does a root too large for the polish to evaluate in double precision."""
    c3, c2, c1, c0 = np.broadcast_arrays(*(np.asarray(c, dtype=complex) for c in (c3, c2, c1, c0)))
    companion = np.zeros(c0.shape + (3, 3), dtype=complex)
    companion[..., 0, :] = -np.stack([c1, c2, c3], axis=-1) / c0[..., None]
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    w = np.moveaxis(np.linalg.eigvals(companion), -1, 0)
    finite = w != 0
    roots = 1.0 / np.where(finite, w, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # huge roots overflow f and df
        for _ in range(3):  # Newton polish on the original polynomial
            f = ((c3 * roots + c2) * roots + c1) * roots + c0
            df = (3.0 * c3 * roots + 2.0 * c2) * roots + c1
            roots = roots - np.where(df != 0, f / np.where(df == 0, 1.0, df), 0.0)
    return np.where(finite & np.isfinite(roots), roots, np.inf)
