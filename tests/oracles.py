"""Independent routes to what the library computes, for the tests to check it
against. Nothing here is library code: ``tests/test_imports.py`` checks that
no name defined here exists on ``spectrace`` or any of its modules."""

import numpy as np


def coeffs_linear_system(sizes) -> np.ndarray:
    """The aggregation weights via their defining linear system, solved
    independently of ``estimators.coeffs_closed_form``.

    Uses nodes z_j = n_1 / n_j in (0, 1]. The Vandermonde system is well
    conditioned only up to about m = 6, so schemes use the closed form.
    """
    ns = np.asarray(sizes, dtype=float)
    m = ns.size
    z = ns[0] / ns
    mat = np.vander(z, m, increasing=True).T  # row l is z**l
    rhs = np.zeros(m)
    rhs[0] = 1.0
    return np.linalg.solve(mat, rhs)
