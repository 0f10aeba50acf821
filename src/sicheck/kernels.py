"""The quartic (biweight) kernel used by every smoother in the pipeline:

    K(u) = 15/16 (1 - u^2)^2   for |u| <= 1,   0 otherwise.

It is symmetric, compactly supported on [-1, 1], nonincreasing on the
positive half line and integrates to one.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DataError


def quartic_kernel(u):
    """Evaluate the quartic kernel at ``u`` (scalar or array).

    Values at exactly |u| = 1 are 0, matching the closed form.
    """
    arr = np.asarray(u, dtype=float)
    if not np.isfinite(arr).all():
        raise DataError("kernel argument must be finite")
    out = (15.0 / 16.0) * np.square(np.maximum(1.0 - arr * arr, 0.0))
    return out if out.ndim else float(out)
