"""Dense (K, n, n) stacks of the two basis families, as test oracles.

The package holds {M_k} as band profiles and {Mcheck_k} as wrapped
diagonals, and forms at most one of them dense at a time; these stacks are
for comparisons in the tests only.
"""

import numpy as np

from lsequiv.circulant import build_mcheck_basis


def dense_mats(basis) -> np.ndarray:
    """The normalized truncated-shift matrices M_k, stacked."""
    return np.stack([basis.mat(k) for k in range(basis.K)])


def dense_mchecks(basis) -> np.ndarray:
    """Their cyclic companions Mcheck_k, stacked."""
    return build_mcheck_basis(basis.n, basis.k1, basis.k2)
