"""Dense oracles for the tests: the (K, n, n) stacks of the two basis
families, and a characteristic-function provider for any symmetric stack.

The package holds {M_k} as band profiles and {Mcheck_k} as wrapped
diagonals, and forms at most one of them dense at a time; these stacks are
for comparisons in the tests only.
"""

import functools
import itertools
import math

import numpy as np

from lsequiv.circulant import build_mcheck_basis


def dense_mats(basis) -> np.ndarray:
    """The normalized truncated-shift matrices M_k, stacked."""
    return np.stack([basis.mat(k) for k in range(basis.K)])


def dense_mchecks(basis) -> np.ndarray:
    """Their cyclic companions Mcheck_k, stacked."""
    return build_mcheck_basis(basis.n, basis.k1, basis.k2)


class DensePencil:
    """The interface a CharFnContext gives its consumers (K, n, mu,
    mu_tail, log_psi, trace_powers), for any symmetric (K, n, n) stack A_k,
    n <= 128, commuting or not, by dense linear algebra.

    The stack is standardized as a context is: Gamma = [2 tr(A_k A_l)],
    D_k = sum_l (Gamma^{-1/2})_{kl} A_l and shift = tr D.  log_psi(t) is
    -(1/2) sum_j log(1 - 2i lam_j) - i t . shift over the eigenvalues lam of
    sum_k t_k D_k, one eigvalsh and a complex log per frequency (every
    1 - 2i lam has real part one, so the principal branch is continuous);
    the radius is ignored.  trace_powers(Q)[l][m] sums tr(D_{w_1} ...
    D_{w_l}) over the words w of length l with multi-index m.
    mu = mu_tail = sqrt(sum_k |D_k|_2^2) bounds |sum_k u_k D_k|_2 for unit u.
    """

    def __init__(self, a_stack):
        a = np.asarray(a_stack, dtype=float)
        if a.shape[1] > 128 or not np.array_equal(a, np.transpose(a, (0, 2, 1))):
            raise ValueError("a symmetric stack with n <= 128")
        self.K, self.n = a.shape[:2]
        flat = a.reshape(self.K, -1)
        w, v = np.linalg.eigh(2.0 * flat @ flat.T)
        self.d_stack = np.tensordot((v / np.sqrt(w)) @ v.T, a, 1)
        self.shift = np.trace(self.d_stack, axis1=1, axis2=2)
        self.mu = self.mu_tail = math.sqrt(sum(np.linalg.norm(d, 2) ** 2 for d in self.d_stack))

    def log_psi(self, t, radius=None):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1, self.K)
        lam = np.array([np.linalg.eigvalsh(np.tensordot(w, self.d_stack, 1)) for w in flat])
        out = -0.5 * np.sum(np.log(1.0 - 2j * lam), axis=-1) - 1j * (flat @ self.shift)
        return out.reshape(t.shape[:-1])[()]

    def trace_powers(self, Q):
        out = {ell: {} for ell in range(3, Q + 1)}
        for ell, poly in out.items():
            for word in itertools.product(range(self.K), repeat=ell):
                m = tuple(word.count(k) for k in range(self.K))
                trace = np.trace(functools.reduce(np.matmul, self.d_stack[list(word)]))
                poly[m] = poly.get(m, 0.0) + complex(trace)
        return out
