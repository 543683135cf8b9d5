"""Characteristic-function analysis of localized quadratic statistics.

Conditionally on the localizing covariance, the vector of quadratic
statistics has a characteristic function that factors over the eigenvalues
of a matrix pencil.  This module evaluates that product exactly, expands
the standardized version in an Edgeworth-type series with certified
coefficient and remainder bounds, bounds Fourier tails, and inverts the
characteristic function numerically to measure total-variation distance
from the Gaussian limit (K <= 2).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np
import scipy.fft as sfft
from scipy.linalg import solve_banded
from scipy.special import gamma as gamma_fn

from ._linalg import check_symmetric, guarded_eig
from .errors import AccuracyError, PreconditionError, RangeError, TermBudgetError
from .report import CheckResult
from .rng import make_rng

__all__ = [
    "CharFnContext",
    "EdgeworthExpansion",
    "RadialProfile",
    "build_char_context",
    "char_fn",
    "char_fn_modulus",
    "char_fn_standardized",
    "context_from_state",
    "edgeworth_build",
    "edgeworth_radius",
    "fourier_tail_bound",
    "fourier_tail_integral",
    "invert_cf_1d",
    "moment_diagnostics",
    "remainder_bound",
    "standardized_exp_series",
    "standardized_log_characteristic",
    "tv_against_gaussian_1d",
    "tv_oracle",
]


# ---------------------------------------------------------------------------
# context


# Relative Frobenius size of off(Q^T A_k Q) up to which a shared eigenbasis Q
# is accepted; by Weyl's inequality it bounds the eigenvalue error.
JOINT_RTOL = 1e-12


def _joint_spectrum(a_stack):
    """(K, n) eigenvalues of every A_k in one shared eigenbasis, or None.

    The eigenvectors Q of a fixed generic combination of the stack
    diagonalize every A_k when the stack commutes.  The diagonals of
    Q^T A_k Q are accepted only when each off-diagonal part satisfies
    |off(Q^T A_k Q)|_F <= JOINT_RTOL |A_k|_F; by Weyl's inequality the
    eigenvalues of sum_k v_k A_k are then those of sum_k v_k diag(Q^T A_k Q)
    up to sum_k |v_k| |off(Q^T A_k Q)|_F.
    """
    if len(a_stack) == 1:
        return np.linalg.eigvalsh(a_stack[0])[None]
    norms = np.linalg.norm(a_stack, axis=(1, 2))
    # golden-ratio powers: no rational relation that could merge eigenvalues
    weights = ((math.sqrt(5.0) - 1.0) / 2.0) ** np.arange(len(a_stack)) / norms
    _, q = np.linalg.eigh(np.tensordot(weights, a_stack, axes=(0, 0)))
    joint = np.empty((len(a_stack), len(q)))
    for k, a in enumerate(a_stack):
        rotated = q.T @ (a @ q)
        joint[k] = np.diagonal(rotated)
        np.fill_diagonal(rotated, 0.0)
        if np.linalg.norm(rotated) > JOINT_RTOL * norms[k]:
            return None
    return joint


@dataclass
class CharFnContext:
    """Eigen-ready data for the conditional characteristic function.

    a_stack holds the whitened-and-weighted basis matrices
    A_k = C_theta^{1/2} C^{-1} M_k C^{-1} C_theta^{1/2}; d_vec their traces
    (the centering vector); d_stack the standardized combinations
    D_k = sum_l (Gamma^{-1/2})_{kl} A_l, for which {sqrt(2) D_k} is
    Frobenius-orthonormal.  mu is the spectral budget controlling every
    bound downstream.

    Every direction v needs the eigenvalues of the pencil sum_k v_k A_k.
    When the stack commutes, one eigendecomposition serves every
    direction: joint holds the shared spectrum, certified by a Weyl bound
    (see _joint_spectrum).  That is the case for every window with K <= 2
    (k1 = 0, so each M_k is a polynomial in the truncated shift) and
    C_theta, C in the span of the basis.  Otherwise joint is None and each
    direction is solved on its own.
    """

    n: int
    a_stack: np.ndarray
    d_vec: np.ndarray
    gamma_theta: np.ndarray
    gamma_inv_sqrt: np.ndarray
    d_stack: np.ndarray
    mu: float

    @property
    def K(self) -> int:
        return self.a_stack.shape[0]

    @cached_property
    def joint(self):
        """(K, n) shared pencil spectrum, or None when the stack does not commute."""
        return _joint_spectrum(self.a_stack)

    def pencil(self, t) -> np.ndarray:
        """sum_k t_k A_k for t in the raw (unstandardized) coordinates."""
        t = np.asarray(t, dtype=float)
        return np.tensordot(t, self.a_stack, axes=(0, 0))

    def pencil_eigs(self, v) -> np.ndarray:
        """Ascending eigenvalues of pencil(v).

        The standardized pencil sum_k t_k D_k is pencil(gamma_inv_sqrt @ t).
        """
        v = np.asarray(v, dtype=float)
        if self.joint is None:
            return np.linalg.eigvalsh(self.pencil(v))
        return np.sort(v @ self.joint)


def build_char_context(c_theta, c_mat, basis, ortho_tol=1e-8):
    """Assemble a CharFnContext from covariance pair and basis system.

    C_theta and C are eigendecomposed once each (once in all when they are
    equal); their spectral norms in mu come from those eigenvalues.
    """
    c_theta = np.asarray(c_theta, dtype=float)
    c_mat = np.asarray(c_mat, dtype=float)
    n = basis.n
    if c_theta.shape != (n, n) or c_mat.shape != (n, n):
        raise PreconditionError("covariances must match the basis dimension")
    check_symmetric(c_theta, what="target covariance")
    check_symmetric(c_mat, what="localized covariance")

    w_theta, v_theta = guarded_eig(c_theta, require_pd=True)
    if np.array_equal(c_theta, c_mat):
        w_c, v_c = w_theta, v_theta
    else:
        w_c, v_c = guarded_eig(c_mat, require_pd=False)
    root = (v_theta * np.sqrt(w_theta)) @ v_theta.T
    cinv = (v_c / w_c) @ v_c.T
    half = cinv @ root
    a_stack = np.matmul(half.T, np.matmul(basis.mats, half))
    a_stack = 0.5 * (a_stack + np.transpose(a_stack, (0, 2, 1)))

    d_vec = np.trace(a_stack, axis1=1, axis2=2)
    flat = a_stack.reshape(len(a_stack), -1)
    gamma_theta = 2.0 * (flat @ flat.T)
    gamma_theta = 0.5 * (gamma_theta + gamma_theta.T)
    w_gamma, v_gamma = guarded_eig(gamma_theta, require_pd=True)
    gamma_inv_sqrt = (v_gamma / np.sqrt(w_gamma)) @ v_gamma.T
    d_stack = np.tensordot(gamma_inv_sqrt, a_stack, axes=(1, 0))

    dflat = d_stack.reshape(len(d_stack), -1)
    gram = dflat @ dflat.T
    K = len(d_stack)
    defect = np.max(np.abs(gram - 0.5 * np.eye(K)))
    if defect > ortho_tol:
        raise AccuracyError(
            f"standardized stack lost orthonormality: defect {defect:.3e}"
        )

    sp_sq = np.sum(basis.spectral_norms() ** 2)
    # |C_theta| |C^{-1}|^2 |Gamma^{-1/2}| sqrt(sum_k |M_k|^2), all spectral
    mu = (
        np.max(w_theta)
        / np.min(np.abs(w_c)) ** 2
        / math.sqrt(np.min(w_gamma))
        * math.sqrt(sp_sq)
    )
    return CharFnContext(
        n=n,
        a_stack=a_stack,
        d_vec=d_vec,
        gamma_theta=gamma_theta,
        gamma_inv_sqrt=gamma_inv_sqrt,
        d_stack=d_stack,
        mu=float(mu),
    )


def context_from_state(state):
    """CharFnContext for an assembled localization state."""
    return build_char_context(state.c_theta, state.c_mat, state.basis)


# ---------------------------------------------------------------------------
# characteristic function


def char_fn(t, ctx) -> complex:
    """Product form of the conditional characteristic function at t.

    Each factor (1 - 2i*lam)^{-1/2} uses the principal branch, which is
    unambiguous because every 1 - 2i*lam has real part one.
    """
    lam = ctx.pencil_eigs(t)
    return complex(np.prod((1.0 - 2j * lam) ** (-0.5)))


def char_fn_modulus(t, ctx) -> float:
    """|char_fn(t)| through the closed form prod (1 + 4 lam^2)^{-1/4}."""
    lam = ctx.pencil_eigs(t)
    return float(np.prod((1.0 + 4.0 * lam**2) ** (-0.25)))


def char_fn_standardized(t, ctx) -> complex:
    """Characteristic function of the centered, whitened statistic."""
    t = np.asarray(t, dtype=float)
    v = ctx.gamma_inv_sqrt @ t
    phase = float(v @ ctx.d_vec)
    return complex(np.exp(-1j * phase) * char_fn(v, ctx))


def standardized_log_characteristic(t, ctx) -> complex:
    """log of char_fn_standardized evaluated without branch ambiguity."""
    t = np.asarray(t, dtype=float)
    v = ctx.gamma_inv_sqrt @ t
    lam = ctx.pencil_eigs(v)
    return complex(
        -1j * float(v @ ctx.d_vec) - 0.5 * np.sum(np.log(1.0 - 2j * lam))
    )


def standardized_exp_series(t, ctx) -> complex:
    """char_fn_standardized(t) with the Gaussian factor exp(-|t|^2/2) removed."""
    t = np.asarray(t, dtype=float)
    return char_fn_standardized(t, ctx) * math.exp(0.5 * float(t @ t))


class RadialProfile:
    """One-dimensional slice r -> char_fn_standardized(r * u).

    Along a fixed unit direction u the pencil eigenvalues scale linearly
    in the radius, so one spectrum serves every r; it comes from
    ctx.pencil_eigs, which reads the context's shared eigenbasis when the
    stack commutes and solves this direction's pencil otherwise.  psi_star
    and abs_psi are vectorized over radius arrays.
    """

    def __init__(self, ctx, u):
        u = np.asarray(u, dtype=float)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            raise PreconditionError("direction must be nonzero")
        u = u / nrm
        v = ctx.gamma_inv_sqrt @ u
        self.eigs = ctx.pencil_eigs(v)
        self.shift = float(v @ ctx.d_vec)
        self.mu = ctx.mu
        self.n = ctx.n
        self.direction = u

    def psi_star(self, r):
        return _psi_star_stack(self.eigs[None], np.array([self.shift]), r)[0]

    def abs_psi(self, r):
        r = np.asarray(r, dtype=float)
        x = 2.0 * np.multiply.outer(r, self.eigs)
        return np.exp(-0.25 * np.sum(np.log1p(x * x), axis=-1))


# log psi* as a power series needs terms up to the smallest L whose
# remainder bound n 2^{-L} / L (at |2 (r - c) mu| <= 1/2) is below this
_SERIES_TOL = 1e-16


def _series_terms(n):
    """Smallest L with n 2^{-L} / L <= _SERIES_TOL."""
    L = 1
    while n * 2.0**-L / L > _SERIES_TOL:
        L += 1
    return L


def _horner(coef, y):
    """sum_m coef[:, m] y^m, one coefficient row per output row, y shared."""
    acc = np.zeros((len(coef),) + y.shape, dtype=coef.dtype)
    for c in coef.T[::-1]:
        acc *= y
        acc += c[:, None]
    return acc


def _psi_star_stack(eigs, shifts, r):
    """psi*(r) = exp(-i r shift_a) prod_j (1 - 2i r lam_aj)^{-1/2} per row a.

    eigs is (A, n), shifts (A,); the result is (A,) + shape(r).  Around a
    centre c, with mu_j = lam_j / (1 - 2ic lam_j) and x_j = 2c lam_j,

        log psi*(r) = G(c) + (1/2) sum_{l <= L} (2i(r - c))^l P_l(c) / l - i r shift,

    G(c) = sum_j [i arctan(x_j) / 2 - log1p(x_j^2) / 4], P_l(c) = sum_j mu_j^l,
    by complex Horner over every row.  |2 (r - c) mu_j| <= 1/2 on the disc
    |r - c| <= rho(c) = sqrt(1 + 4 c^2 lam_max^2) / (4 lam_max), lam_max the
    largest |lam| of all rows: L from _series_terms meets its remainder bound
    and the principal logs add without a 2 pi wrap.  The discs start at c = 0
    and touch, c - rho(c) = c_prev + rho(c_prev); r < 0 is by conjugation.
    """
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1)
    order = np.argsort(np.abs(flat))
    radii = np.abs(flat)[order]
    n_rows, n = eigs.shape
    ell = np.arange(1, _series_terms(n) + 1)
    weights = 0.5 * np.array([1.0, 1j, -1.0, -1j])[ell % 4] / ell  # (2ih)^l = i^l (2h)^l
    lam_max = float(np.max(np.abs(eigs), initial=0.0))
    logs = np.empty((n_rows, len(radii)), dtype=complex)
    lo, kappa = 0, 0.0  # kappa = c lam_max; lam_max = 0 leaves one disc
    while lo < len(radii):
        edge = kappa + math.sqrt(1.0 + 4.0 * kappa * kappa) / 4.0  # (c + rho) lam_max
        hi = np.searchsorted(radii * lam_max, edge, side="right")
        c = kappa / lam_max if kappa else 0.0
        x = 2.0 * c * eigs
        mu = eigs / (1.0 - 1j * x)
        power = np.ones_like(mu)
        sums = np.stack([np.sum(power := power * mu, axis=1) for _ in ell], axis=1)
        g = 0.5j * np.sum(np.arctan(x), axis=1) - 0.25 * np.sum(np.log1p(x * x), axis=1)
        y = 2.0 * (radii[lo:hi] - c)
        logs[:, lo:hi] = y * _horner(sums * weights, y) + g[:, None]
        lo = hi
        # the root above edge of kappa - sqrt(1 + 4 kappa^2) / 4 = edge
        kappa = (8.0 * edge + math.sqrt(16.0 * edge * edge + 3.0)) / 6.0
    logs.imag -= np.multiply.outer(shifts, radii)
    psi = np.empty_like(logs)
    psi[:, order] = np.exp(logs)
    psi.imag[:, flat < 0.0] *= -1.0
    return psi.reshape((n_rows,) + r.shape)


# ---------------------------------------------------------------------------
# Edgeworth expansion

_BUDGET = 1_000_000


def _monomials(K, degree):
    """Multi-indices in K variables of the given total degree."""
    out = []
    for combo in combinations_with_replacement(range(K), degree):
        m = [0] * K
        for k in combo:
            m[k] += 1
        out.append(tuple(m))
    return out


def _power_sums(eigs, lmax):
    """[sum eig^l for l = 1..lmax]."""
    return np.array([np.sum(eigs**ell) for ell in range(1, lmax + 1)])


def _trace_polys_k1(ctx, Q):
    w = ctx.pencil_eigs(ctx.gamma_inv_sqrt[:, 0])
    ps = _power_sums(w, Q)
    return {ell: {(ell,): complex(ps[ell - 1])} for ell in range(3, Q + 1)}


def _trace_polys_k2(ctx, Q):
    # tr[(t1 D1 + t2 D2)^l] = sum_b c_{l-b,b} t1^{l-b} t2^b; the slice
    # z -> tr[(D1 + z D2)^l] is a degree-l polynomial whose coefficients
    # are exactly the c's, recovered from Chebyshev-node samples.
    nodes = np.cos(np.pi * (2 * np.arange(Q + 1) + 1) / (2 * (Q + 1)))
    samples = np.empty((Q + 1, Q))
    for i, z in enumerate(nodes):
        w = ctx.pencil_eigs(ctx.gamma_inv_sqrt @ np.array([1.0, z]))
        samples[i] = _power_sums(w, Q)
    polys = {}
    for ell in range(3, Q + 1):
        van = np.vander(nodes, ell + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(van, samples[:, ell - 1], rcond=None)
        polys[ell] = {(ell - b, b): complex(coef[b]) for b in range(ell + 1)}
    return polys


def _trace_polys_general(ctx, Q, seed):
    K = ctx.K
    monos = {ell: _monomials(K, ell) for ell in range(3, Q + 1)}
    total = sum(len(v) for v in monos.values())
    if total > _BUDGET:
        raise TermBudgetError(
            f"{total} monomials exceed the {_BUDGET} budget; reduce K or Q"
        )
    widest = max(len(v) for v in monos.values())
    ndir = 2 * widest
    rng = make_rng(seed)
    dirs = rng.standard_normal((ndir, K))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    samples = np.empty((ndir, Q))
    for i, u in enumerate(dirs):
        w = ctx.pencil_eigs(ctx.gamma_inv_sqrt @ u)
        samples[i] = _power_sums(w, Q)
    polys = {}
    for ell in range(3, Q + 1):
        design = np.stack(
            [np.prod(dirs**np.array(m), axis=1) for m in monos[ell]], axis=1
        )
        coef, res, *_ = np.linalg.lstsq(design, samples[:, ell - 1], rcond=None)
        fitted = design @ coef
        scale = max(np.max(np.abs(samples[:, ell - 1])), 1e-300)
        if np.max(np.abs(fitted - samples[:, ell - 1])) > 1e-8 * scale:
            raise AccuracyError(
                f"trace-polynomial interpolation unstable at degree {ell}"
            )
        polys[ell] = {
            m: complex(c) for m, c in zip(monos[ell], coef) if c != 0.0
        }
    return polys


def _poly_mul_truncated(p, q, max_deg):
    out = {}
    for ma, ca in p.items():
        da = sum(ma)
        for mb, cb in q.items():
            if da + sum(mb) > max_deg:
                continue
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0.0) + ca * cb
    return out


@dataclass
class EdgeworthExpansion:
    """Polynomial correction P(t) = 1 + sum nu_m t^m, degrees 3..Q."""

    Q: int
    K: int
    mu: float
    nu: dict = field(default_factory=dict)

    def poly_eval(self, t) -> complex:
        t = np.asarray(t, dtype=float)
        total = 1.0 + 0.0j
        for m, c in self.nu.items():
            total += c * np.prod(t ** np.array(m))
        return complex(total)

    def coefficient_bound(self, m) -> float:
        q = int(sum(m))
        multinomial = math.factorial(q)
        for mk in m:
            multinomial //= math.factorial(int(mk))
        return float(multinomial) * 2.0**q * self.mu ** (q / 3.0) * q**0.25

    @property
    def validity_radius(self) -> float:
        return edgeworth_radius(self.Q, self.K, self.mu)


def edgeworth_build(ctx, Q, seed=0) -> EdgeworthExpansion:
    """Exact degree-Q truncation of exp of the cumulant trace series.

    The trace polynomials t -> tr[(sum t_k D_k)^l] are recovered exactly
    (K = 1 directly, K = 2 from Chebyshev slices, K >= 3 from seeded
    directional interpolation), then the exponential is multiplied out,
    dropping every monomial above degree Q.
    """
    if Q < 2:
        raise PreconditionError("expansion order Q must be at least 2")
    K = ctx.K
    if K == 1:
        polys = _trace_polys_k1(ctx, Q)
    elif K == 2:
        polys = _trace_polys_k2(ctx, Q)
    else:
        polys = _trace_polys_general(ctx, Q, seed)

    zero = (0,) * K
    series = {}
    for ell, poly in polys.items():
        w = 0.5 * (2j) ** ell / ell
        for m, c in poly.items():
            series[m] = series.get(m, 0.0) + w * c

    result = {zero: 1.0 + 0.0j}
    term = {zero: 1.0 + 0.0j}
    for j in range(1, Q // 3 + 1):
        term = _poly_mul_truncated(term, series, Q)
        for m, c in term.items():
            result[m] = result.get(m, 0.0) + c / math.factorial(j)
    nu = {m: c for m, c in result.items() if sum(m) >= 3}
    return EdgeworthExpansion(Q=Q, K=K, mu=ctx.mu, nu=nu)


def edgeworth_radius(Q, K, mu) -> float:
    """Radius of the ball on which the remainder bound is finite.

    The geometric-series step behind the bound needs
    2 sqrt(K) mu^{1/3} (Q+1)^{1/(4Q+4)} |t| < 1, so the admissible radius
    carries (Q+1)^{1/(4Q+4)} in the denominator.
    """
    return mu ** (-1.0 / 3.0) / (2.0 * math.sqrt(K) * (Q + 1) ** (1.0 / (4 * Q + 4)))


def remainder_bound(t, expansion) -> float:
    """Closed-form bound on |exp-series minus polynomial| at t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tnorm = float(np.linalg.norm(t))
    Q, K, mu = expansion.Q, expansion.K, expansion.mu
    base = 2.0 * math.sqrt(K) * mu ** (1.0 / 3.0) * tnorm
    ratio = base * (Q + 1) ** (1.0 / (4 * Q + 4))
    if ratio >= 1.0:
        raise RangeError(
            f"|t| = {tnorm:.6g} outside the validity radius "
            f"{edgeworth_radius(Q, K, mu):.6g}"
        )
    return (Q + 1) ** 0.25 * base ** (Q + 1) / (1.0 - ratio)


# ---------------------------------------------------------------------------
# Fourier tails


def fourier_tail_bound(R, ctx) -> float:
    """Closed-form bound on the tail integral of |char_fn_standardized|."""
    K, n, mu = ctx.K, ctx.n, ctx.mu
    q = 1.0 / (16.0 * mu**2)
    return float(
        (n * math.pi) ** (K / 2.0)
        * (1.0 + R**2 / n) ** (-q + K / 2.0 + 1.0)
        / gamma_fn(K / 2.0)
    )


def _half_circle(n_angles):
    """(n_angles, 2) unit directions at angles (a + 1/2) pi / n_angles."""
    angles = (np.arange(n_angles) + 0.5) * np.pi / n_angles
    return np.array([[math.cos(phi), math.sin(phi)] for phi in angles])


def _profile_moduli(profiles, K):
    """r -> |psi*(r u)| r^{K-1}, one row per profile, one profile at a time."""
    return lambda r: np.stack([profile.abs_psi(r) for profile in profiles]) * r ** (K - 1)


def fourier_tail_integral(R, ctx, n_angles=64) -> CheckResult:
    """Numeric tail mass of |char_fn_standardized| beyond radius R vs bound.

    Returns a CheckResult with lhs = numeric, rhs = bound.  The numeric
    tail is 2 w sum_u int_R^inf |psi*(r u)| r^{K-1} dr over the direction
    [1] (w = 1) for K = 1, or the n_angles half-circle directions
    (w = pi / n_angles) for K = 2, each integral on the Gauss-Legendre
    ladder that starts at R.  When the integrability margin
    mu^{-2} > 8K + 16 fails, the check is reported as skipped with the
    margin recorded instead.
    """
    K = ctx.K
    if not (math.isfinite(R) and R > 0.0):
        raise PreconditionError(f"tail radius must be positive and finite, got {R!r}")
    margin = ctx.mu ** (-2.0)
    needed = 8.0 * K + 16.0
    if margin <= needed:
        return CheckResult(
            check_id=f"fourier-tail-R{R:g}",
            ref="tail-integrability",
            lhs=float(needed),
            rhs=float(margin),
            skipped=True,
        )
    if K == 1:
        dirs, weight = np.ones((1, 1)), 1.0
    elif K == 2:
        dirs, weight = _half_circle(n_angles), np.pi / n_angles
    else:
        raise PreconditionError("tail quadrature implemented for K <= 2 only")
    moduli = _profile_moduli([RadialProfile(ctx, u) for u in dirs], K)
    numeric = 2.0 * weight * np.sum(_ladder_tails(moduli, 40, start=R)[:, 0])
    return CheckResult(
        check_id=f"fourier-tail-R{R:g}",
        ref="tail-quadrature",
        lhs=float(numeric),
        rhs=fourier_tail_bound(R, ctx),
    )


# ---------------------------------------------------------------------------
# inversion and total variation


def _chirp_z(coeffs, x0, dx, dt, count):
    """sum_m coeffs[..., m] exp(-i (x0 + k dx) m dt) for k = 0..count-1.

    Bluestein's identity km = (k^2 + m^2 - (k - m)^2) / 2 turns the sum into
    one linear convolution with a chirp (the chirp-z transform of Rabiner,
    Schafer & Rader, 1969), done by FFT in O((M + count) log(M + count)).
    Leading axes of coeffs are a batch, transformed together.
    """
    m_len = coeffs.shape[-1]
    theta = dx * dt
    m = np.arange(m_len, dtype=float)
    k = np.arange(count, dtype=float)
    j = np.arange(-(m_len - 1), count, dtype=float)
    u = coeffs * np.exp(-1j * (x0 * dt * m + 0.5 * theta * m * m))
    v = np.exp(0.5j * theta * j * j)
    # circular length >= m_len + count - 1 keeps the needed outputs unaliased
    size = sfft.next_fast_len(m_len + count - 1)
    conv = sfft.ifft(sfft.fft(u, size) * sfft.fft(v, size))
    return np.exp(-0.5j * theta * k * k) * conv[..., m_len - 1 : m_len - 1 + count]


def invert_cf_1d(psi, T, x, steps=None):
    """Density values (1/pi) Re int_0^T exp(-i t x) psi(t) dt at points x.

    psi must accept a 1-d radius array and return its values, or one row
    of values per slice (a leading batch axis, kept in the result);
    Simpson weights on a uniform t grid.  x must be a uniformly spaced 1-d
    grid (relative 1e-9), so the Fourier sum is one chirp-z transform.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise PreconditionError("inversion points must be a nonempty 1-d grid")
    dx = (x[-1] - x[0]) / (len(x) - 1) if len(x) > 1 else 0.0
    # written as not(<=) so that a NaN in x is rejected too
    if not np.all(np.abs(x - (x[0] + dx * np.arange(len(x)))) <= 1e-9 * abs(dx)):
        raise PreconditionError("inversion points must be uniformly spaced")
    if steps is None:
        steps = max(2 * int(np.ceil(T / 0.02)), 64)
    if steps % 2 == 1:
        steps += 1
    tgrid = np.linspace(0.0, T, steps + 1)
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (T / steps) / 3.0
    weighted = np.asarray(psi(tgrid), dtype=complex) * w
    return _chirp_z(weighted, x[0], dx, T / steps, len(x)).real / np.pi


def tv_against_gaussian_1d(psi, T, x_max=20.0, dx=0.002, ref_pdf=None):
    """(1/2) int |f_psi - ref| dx with f_psi from invert_cf_1d.

    ref defaults to the standard normal density.
    """
    x = np.arange(-x_max, x_max + dx / 2, dx)
    dens = invert_cf_1d(psi, T, x)
    ref = np.exp(-(x**2) / 2.0) / np.sqrt(2.0 * np.pi) if ref_pdf is None else ref_pdf(x)
    return float(0.5 * np.trapezoid(np.abs(dens - ref), dx=dx))


# Ladder radii T_j = start * 1.5^j for j <= 40; the truncation search
# starts at 4 and takes its candidates from T_0..T_39.
_LADDER_RATIOS = 1.5 ** np.arange(41)
_TRUNCATION_START = 4.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _ladder_tails(moduli, count, start=_TRUNCATION_START):
    """int_{T_j}^inf moduli(r) dr for j < count, one row per direction.

    T_j = start * 1.5^j, count <= 40.  moduli maps a radius array to one
    row of values per direction.  Each segment [T_j, T_{j+1}] gets a
    Gauss-Legendre rule, and [T_count, inf) the same rule after
    r = T_count / s, s in (0, 1].
    """
    ladder = start * _LADDER_RATIOS[: count + 1]
    lo, hi = ladder[:-1], ladder[1:]
    half = 0.5 * (hi - lo)
    r_seg = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES
    s = 0.5 * (_GL_NODES + 1.0)
    r_far = ladder[count] / s
    vals = np.atleast_2d(moduli(np.concatenate([r_seg.ravel(), r_far])))
    seg = (vals[:, : r_seg.size].reshape(len(vals), count, -1) @ _GL_WEIGHTS) * half
    far = vals[:, r_seg.size :] @ (0.5 * _GL_WEIGHTS * ladder[count] / s**2)
    return far[:, None] + np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]


def _choose_truncation(moduli, tol_tail):
    """Per direction, the smallest ladder T with int_T^inf |psi| below tol_tail.

    moduli is as in _ladder_tails.  Tails are evaluated on the first 4
    ladder radii, then 12, then all 40, until every direction has its T.
    """
    for count in (4, 12, 40):
        below = _ladder_tails(moduli, count) <= tol_tail
        if np.all(below.any(axis=1)):
            return _TRUNCATION_START * _LADDER_RATIOS[np.argmax(below, axis=1)]
    raise RangeError("characteristic function tail does not decay; no usable T")


def _tv_oracle_k1(ctx, tol_tail, x_max, dx, cf_override):
    if cf_override is None:
        profile = RadialProfile(ctx, np.array([1.0]))
        psi = profile.psi_star
        abs_psi = profile.abs_psi
    else:
        psi = lambda r: cf_override(r, np.array([1.0]))
        abs_psi = lambda r: np.abs(psi(r))
    T = float(_choose_truncation(abs_psi, tol_tail)[0])
    return tv_against_gaussian_1d(psi, T, x_max=x_max, dx=dx), T


# Directions inverted together: one stacked psi* call, one batched chirp-z
# and one (chunk, 4, len(sgrid) - 1) spline table at a time.
_DIRECTION_CHUNK = 20


def _spline_table(y):
    """Not-a-knot cubic spline through each row of y on uniform knots.

    Returns (rows, 4, m - 1) power-form coefficients in the fraction
    f in [0, 1) of each knot interval, highest power first.  With
    d_i = y_{i+1} - y_i, the knot slopes m (per unit f) solve one
    tridiagonal system: m_{i-1} + 4 m_i + m_{i+1} = 3 (d_{i-1} + d_i)
    inside, and the not-a-knot end rows m_0 + 2 m_1 = (5 d_0 + d_1) / 2
    and 2 m_{-2} + m_{-1} = (d_{-2} + 5 d_{-1}) / 2 (negative indices
    count from the end).  Interval i is then the Hermite cubic of y_i,
    y_{i+1}, m_i, m_{i+1}.
    """
    m_len = y.shape[-1]
    if m_len < 4:
        raise PreconditionError("a not-a-knot spline needs at least 4 knots")
    d = np.diff(y, axis=-1)
    # rows of the tridiagonal matrix in solve_banded's (1, 1) layout
    ab = np.ones((3, m_len))
    ab[1, 1:-1] = 4.0
    ab[0, 1] = ab[2, -2] = 2.0
    rhs = np.empty((m_len, len(y)))
    rhs[1:-1] = 3.0 * (d[:, :-1] + d[:, 1:]).T
    rhs[0] = 0.5 * (5.0 * d[:, 0] + d[:, 1])
    rhs[-1] = 0.5 * (d[:, -2] + 5.0 * d[:, -1])
    slopes = solve_banded((1, 1), ab, rhs, overwrite_b=True).T
    table = np.empty((len(y), 4, m_len - 1))
    table[:, 0] = slopes[:, :-1] + slopes[:, 1:] - 2.0 * d
    table[:, 1] = d - slopes[:, :-1] - table[:, 0]
    table[:, 2] = slopes[:, :-1]
    table[:, 3] = y[:, :-1]
    return table


def _orbits(n_angles):
    """Per _half_circle direction, its orbit base b and accumulator view: 0 for
    b, 1 for the mirror n_angles - 1 - b, 2 for the quarter turn b + h and 3
    for h - 1 - b (the last two when n_angles = 2h)."""
    a = np.arange(n_angles)
    half = n_angles // 2
    # an orbit meets [0, h) (all directions when odd) in b and h - 1 - b
    period = n_angles if n_angles % 2 else half
    base = np.minimum(a % period, period - 1 - a % period)
    view = np.select([a == base, a == n_angles - 1 - base, a == base + half], [0, 1, 2], 3)
    return base, view


def _k2_density(psi_rows, truncations, x_max, dx):
    """(grid, density on grid x grid) by filtered back-projection,
    f(x) = (1/2pi) int_0^pi g_phi(<u_phi, x>) dphi with g_phi(s) =
    (1/pi) Re int_0^T psi*(r u_phi) r exp(-i r s) dr on the _half_circle
    directions, each with its truncation T.

    Directions with the same T are inverted in chunks of _DIRECTION_CHUNK
    (one psi_rows call, chirp-z and spline table each), and each spline is
    evaluated on the x grid through the knot index and fraction of <u, x>
    on the uniform knots sgrid.  When x_max is a multiple of dx the grid is
    exactly its own mirror: a T group is sorted by _orbits orbit, the knot
    array is formed once per orbit and chunk, and each member adds into a
    flipped or transposed view of the accumulator.  Every |<u, x>| <=
    max|x| sqrt(2) must lie inside sgrid, checked once.
    """
    n_angles = len(truncations)
    m = round(x_max / dx)
    mirrored = m > 0 and math.isclose(m * dx, x_max, rel_tol=1e-9)
    grid = dx * np.arange(-m, m + 1) if mirrored else np.arange(-x_max, x_max + dx / 2, dx)
    base, view = _orbits(n_angles) if mirrored else (np.arange(n_angles), np.zeros(n_angles, int))
    smax = x_max * math.sqrt(2.0) + 1.0
    ds = dx / 2.0
    sgrid = np.arange(-smax, smax + ds / 2, ds)
    reach = float(np.max(np.abs(grid))) * math.sqrt(2.0)
    if not (smax - reach >= 0.0 and (smax + reach) / ds < len(sgrid) - 1):
        raise PreconditionError(
            f"projections up to {reach:.6g} leave the slice grid [-{smax:.6g}, {smax:.6g}]"
        )
    dirs = _half_circle(n_angles)
    # knot coordinate (<u, x> + smax) / ds >= 0, split into knot index and fraction
    scaled = grid / ds
    frac, val, term, accum = np.zeros((4, len(grid), len(grid)))
    knot = np.empty(frac.shape, dtype=np.intp)
    views = (accum, accum[::-1], accum.T[:, ::-1], accum.T)
    for T in np.unique(truncations):
        group = np.flatnonzero(truncations == T)
        group = group[np.argsort(base[group], kind="stable")]
        for lo in range(0, len(group), _DIRECTION_CHUNK):
            rows = group[lo : lo + _DIRECTION_CHUNK]
            filtered = invert_cf_1d(lambda r: psi_rows(rows, r) * r, T, sgrid)
            # cubic interpolation; linear would cap the grid accuracy near 1e-5
            tables = _spline_table(filtered)
            for b in np.unique(base[rows]):
                np.add.outer(scaled * dirs[b, 0] + smax / ds, scaled * dirs[b, 1], out=frac)
                np.floor(frac, out=term)
                frac -= term
                np.copyto(knot, term, casting="unsafe")
                members = base[rows] == b
                for coef, v in zip(tables[members], view[rows[members]]):
                    # every knot index is in range (checked above); "clip"
                    # only spares the buffered bounds check that "raise" makes
                    np.take(coef[0], knot, out=val, mode="clip")
                    for c in coef[1:]:
                        val *= frac
                        val += np.take(c, knot, out=term, mode="clip")
                    np.add(views[v], val, out=views[v])
    return grid, accum * (np.pi / n_angles) / (2.0 * np.pi)


def _tv_oracle_k2(ctx, tol_tail, x_max, dx, n_angles, cf_override):
    dirs = _half_circle(n_angles)
    if cf_override is None:
        profiles = [RadialProfile(ctx, u) for u in dirs]
        eigs = np.stack([profile.eigs for profile in profiles])
        shifts = np.array([profile.shift for profile in profiles])
        psi_rows = lambda rows, r: _psi_star_stack(eigs[rows], shifts[rows], r)
        moduli = _profile_moduli(profiles, 2)
    else:
        psi_rows = lambda rows, r: np.stack([cf_override(r, u) for u in dirs[rows]])
        moduli = lambda r: np.abs(psi_rows(slice(None), r)) * r
    truncations = _choose_truncation(moduli, tol_tail)
    grid, dens = _k2_density(psi_rows, truncations, x_max, dx)
    ref = np.exp(-np.add.outer(grid**2, grid**2) / 2.0) / (2.0 * np.pi)
    return float(0.5 * np.sum(np.abs(dens - ref)) * dx * dx), float(np.max(truncations))


def tv_oracle(
    ctx,
    tol_tail=1e-8,
    x_max=None,
    dx=None,
    n_angles=180,
    cf_override=None,
    details=False,
):
    """Total-variation distance of the standardized law from N(0, I_K).

    Densities come from numeric Fourier inversion; only K <= 2 is
    supported.  cf_override replaces the characteristic function (radius
    array, unit direction) -> complex array, for cross-checks against
    closed-form laws.  With details=True returns (tv, info) where info
    records the truncation radius and the analytic tail bound at it.
    """
    K = ctx.K
    if K > 2:
        raise PreconditionError("tv_oracle supports K <= 2 only")
    if ctx.mu ** (-2.0) <= 8.0 * K and cf_override is None:
        raise RangeError(
            "characteristic function not certifiably integrable at this mu"
        )
    if K == 1:
        x_max = 20.0 if x_max is None else x_max
        dx = 0.002 if dx is None else dx
        val, t_used = _tv_oracle_k1(ctx, tol_tail, x_max, dx, cf_override)
    else:
        x_max = 8.0 if x_max is None else x_max
        dx = 0.04 if dx is None else dx
        val, t_used = _tv_oracle_k2(ctx, tol_tail, x_max, dx, n_angles, cf_override)
    tv = float(min(max(val, 0.0), 1.0))
    if not details:
        return tv
    if cf_override is None and ctx.mu ** (-2.0) > 8.0 * K + 16.0:
        tail = fourier_tail_bound(t_used, ctx)
    else:
        tail = None
    return tv, {"truncation": t_used, "tail_bound": tail}


# ---------------------------------------------------------------------------
# diagnostics for K > 2


def moment_diagnostics(ctx) -> dict:
    """Third-cumulant tensor of the standardized statistic.

    cum3[k, l, m] = 8 tr(D_k D_l D_m); for symmetric factors every ordering
    of the product has the same trace, and every entry tends to zero in
    the Gaussian limit.
    """
    K = ctx.K
    d = ctx.d_stack
    cum3 = np.zeros((K, K, K))
    for k in range(K):
        for l in range(k, K):
            prod = d[k] @ d[l]
            for m in range(l, K):
                val = 8.0 * float(np.sum(prod * d[m].T))
                for idx in {(k, l, m), (k, m, l), (l, k, m), (l, m, k), (m, k, l), (m, l, k)}:
                    cum3[idx] = val
    return {
        "third_cumulant": cum3,
        "max_abs_third_cumulant": float(np.max(np.abs(cum3))),
        "mu": ctx.mu,
    }
