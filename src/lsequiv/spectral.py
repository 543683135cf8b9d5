"""Tensor trig basis on [0,1] x [-pi,pi], densities, moving-average symbols.

The basis is cos(2*pi*j*t)*cos(j2*x) ("+" parity) and sin(2*pi*j*t)*cos(j2*x)
("-" parity, j >= 1), L2-normalized on the rectangle.  A density is a
SpectralDensity, a finite expansion in this basis, and never a callable.  It
carries a smoothness budget: the squared coefficients weighted by
(j^2 + j2^2)^s must stay below L, and the values must stay inside
[rho, 1/rho].  Everything here is exact trig algebra or quadrature, with no
FFT shortcuts, so the same code paths serve tests and verification reports.
Quadrature runs on one rule, the folded periodic trapezoid grid
QuadratureGrid: default_grid() is its order GRID_NODES = 256 (see
QuadratureGrid for why that suffices), and the white-noise pilot's
project_exp takes it at the least order whose error bound it certifies.  A
function on a grid is held as the plain array of its values at the nodes.
A moving-average symbol A(u, x) is one complex coefficient table
a[r + k1, m + k2] of e^{2 pi i r u} e^{i m x}, the layout of
circulant.FourierFunction, evaluated by the shared table_eval; its covariance
(basis_cov.build_vartheta) is a band of half-width 2 k2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, PreconditionError, RangeError
from .report import CheckResult

POS = "+"
NEG = "-"

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, order=True)
class BasisIndex:
    """One tensor basis element.  parity "+" is cos in time, "-" is sin."""

    parity: str
    j: int
    j2: int

    def __post_init__(self):
        if self.parity not in (POS, NEG):
            raise ConfigurationError(f"parity must be '+' or '-', got {self.parity!r}")
        if self.j < 0 or self.j2 < 0:
            raise ConfigurationError("basis frequencies must be nonnegative")
        if self.parity == NEG and self.j < 1:
            raise ConfigurationError("sin-parity index needs j >= 1")

    @property
    def weight(self) -> float:
        """Smoothness weight (j^2 + j2^2)^s uses this base."""
        return float(self.j * self.j + self.j2 * self.j2)


def basis_norm(idx: BasisIndex) -> float:
    """L2 normalizer on [0,1] x [-pi,pi]."""
    if idx.parity == POS:
        if idx.j >= 1 and idx.j2 >= 1:
            return math.sqrt(2.0 / math.pi)
        if idx.j == 0 and idx.j2 == 0:
            return math.sqrt(1.0 / TWO_PI)
        return math.sqrt(1.0 / math.pi)
    # sin parity, j >= 1 enforced
    if idx.j2 >= 1:
        return math.sqrt(2.0 / math.pi)
    return math.sqrt(1.0 / math.pi)


def basis_eval(idx: BasisIndex, t, x):
    """Evaluate one basis function on broadcastable arrays t, x."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if idx.parity == POS:
        tf = np.cos(TWO_PI * idx.j * t)
    else:
        tf = np.sin(TWO_PI * idx.j * t)
    return basis_norm(idx) * tf * np.cos(idx.j2 * x)


def enumerate_indices(k1: int, k2: int) -> list:
    """Cos block then sin block, j outer and j2 inner inside each block."""
    if k1 < 0 or k2 < 0:
        raise ConfigurationError("window sizes must be nonnegative")
    out = [BasisIndex(POS, j, j2) for j in range(k1 + 1) for j2 in range(k2 + 1)]
    out += [BasisIndex(NEG, j, j2) for j in range(1, k1 + 1) for j2 in range(k2 + 1)]
    return out


def leading_indices(count: int) -> list:
    """First `count` basis indices in frequency-shell order.

    Total order: weight j^2 + j2^2, then parity (cosine block first),
    then j, then j2.  Exhausts the whole countable family, unlike the
    rectangular window of enumerate_indices.
    """
    if count < 1:
        raise RangeError("count must be positive")
    reach = int(math.ceil(2.0 * math.sqrt(count))) + 2
    # (weight, parity, j, j2) tuples sort as the indices do; only count are built
    pool = [
        (j * j + j2 * j2, parity, j, j2)
        for parity, j0 in ((POS, 0), (NEG, 1))
        for j in range(j0, reach)
        for j2 in range(reach)
    ]
    if count > len(pool):
        raise RangeError(f"enumeration pool exhausted at {len(pool)}")
    pool.sort()
    return [BasisIndex(parity, j, j2) for _, parity, j, j2 in pool[:count]]


# nodes per axis of the default grid; index tuples whose factors a grid keeps
# at a time
GRID_NODES, _FACTOR_CACHE = 256, 32


def _separable(indices, t, x):
    """(T, X) with phi_k(t_a, x_b) = T[a, k] * X[b, k] at nodes t, x; norms sit in T."""
    j, j2 = (np.array([getattr(idx, f) for idx in indices], dtype=float) for f in ("j", "j2"))
    arg, norms = np.outer(t, TWO_PI * j), np.array([basis_norm(idx) for idx in indices])
    sin = np.array([idx.parity == NEG for idx in indices])
    return norms * np.where(sin, np.sin(arg), np.cos(arg)), np.cos(np.outer(x, j2))


class QuadratureGrid:
    """Folded periodic trapezoid rule of order N on [0,1) x [-pi,pi).

    The one quadrature of the package: every coefficient functional, range
    check and grid integral is taken on it, at N = GRID_NODES on
    default_grid() and at project_exp's certified orders there.  The nodes
    are t_a = a / N, of weight 1 / N, and x_b = 2 pi b / N for b = 0..N/2,
    of weight 4 pi / N, halved at b = 0 and b = N/2: the N-point rule in x
    folded onto [0, pi], since every integrand (a function of the density
    times basis functions cos(j2 x)) is even in x.  A grid function is the
    (N, N/2 + 1) array of its values at the nodes, t first.
    The integrands are periodic and analytic: trig polynomials, and exp, log
    or powers of them for densities bounded away from zero.  On such an
    integrand the N-point rule is exact below degree N per axis and
    otherwise misses by a multiple of e^{-aN}, a the half-width of its strip
    of analyticity (Trefethen & Weideman, SIAM Rev. 56, 2014), at no more
    nodes than an N-point Gauss rule needs.  The study densities' log and
    f^(-1/2) coefficients settle at rounding from N = 24, so N = 256 leaves
    the quadrature error far below the tolerances of the checks.  The basis
    is separable, so every coefficient map is two matrix products with the
    time and space factors that `factors` returns.
    """

    def __init__(self, order):
        self.t = np.arange(order) / order
        self.wt = np.full(order, 1.0 / order)
        self.x = TWO_PI * np.arange(order // 2 + 1) / order
        self.wx = np.full(order // 2 + 1, 2.0 * TWO_PI / order)
        self.wx[[0, -1]] = TWO_PI / order
        self._factors = {}

    def _cached(self, indices):
        """factors' (T, X), and (group, Xf) with X = Xf @ group.T: Xf holds
        one column per distinct j2 of the indices, in increasing order, and
        group[k, m] = 1 where index k has the m-th of them."""
        key = tuple(indices)
        if key not in self._factors:
            if len(self._factors) >= _FACTOR_CACHE:
                self._factors.clear()
            T, X = _separable(key, self.t, self.x)
            j2 = [idx.j2 for idx in key]
            freqs = sorted(set(j2))
            entry = T, X, np.equal.outer(j2, freqs).astype(float), X[:, [j2.index(f) for f in freqs]]
            for a in entry:
                a.flags.writeable = False
            self._factors[key] = entry
        return self._factors[key]

    def factors(self, indices):
        """(T, X) with phi_k(t_a, x_b) = T[a, k] * X[b, k]; norms sit in T.
        Cached on the grid per index tuple, so the arrays are read-only."""
        return self._cached(indices)[:2]

    def integrate(self, values) -> float:
        return float(self.wt @ np.asarray(values) @ self.wx)

    def inner(self, values, idx: BasisIndex) -> float:
        return float(self.project(values, [idx])[0])

    def project(self, values, indices) -> np.ndarray:
        """Coefficients <v, phi_k> in index order; values (..., t, x) -> (..., K)."""
        T, X = self.factors(indices)
        values = self.as_values(values)
        return np.sum((self.wt[:, None] * T) * (values @ (self.wx[:, None] * X)), axis=-2)

    def synthesize(self, indices, coeffs):
        """sum_k c_k phi_k on the grid; coeffs (..., K) -> (..., t, x).  The
        coefficients are first summed per distinct cos(j2 x), so the product
        with the x factor runs over those columns only."""
        T, _, group, Xf = self._cached(indices)
        coeffs = np.asarray(coeffs, dtype=float)
        return (T @ (coeffs[..., :, None] * group)) @ Xf.T

    def weighted_gram(self, indices, weight_vals):
        """[int w phi_k phi_l] by quadrature, exactly symmetric."""
        T, X = self.factors(indices)
        xx = np.einsum("bk,bl->bkl", self.wx[:, None] * X, X)
        wxx = np.tensordot(np.asarray(weight_vals, dtype=float), xx, axes=1)
        g = np.einsum("ak,al,akl->kl", self.wt[:, None] * T, T, wxx)
        return 0.5 * (g + g.T)

    def as_values(self, f):
        """Grid values of a density given as a SpectralDensity or as an array
        (..., N, N/2 + 1) of its values at the nodes; anything else raises."""
        if isinstance(f, SpectralDensity):
            return self.synthesize(list(f.coeffs), list(f.coeffs.values()))
        values, shape = np.asarray(f), (len(self.t), len(self.x))
        if values.dtype.kind not in "biuf" or values.shape[-2:] != shape:
            raise PreconditionError(
                f"grid values must be a SpectralDensity or a real (..., {shape[0]}, "
                f"{shape[1]}) array, got {type(f).__name__}"
            )
        return values.astype(float, copy=False)


@functools.cache
def _grid(order) -> QuadratureGrid:
    """The grid of one order, kept for the process: GRID_NODES and the
    multiples of _EXP_STEP up to _EXP_CAP that project_exp certifies."""
    return QuadratureGrid(order)


def default_grid() -> QuadratureGrid:
    """The order-GRID_NODES grid, built on first use."""
    return _grid(GRID_NODES)


def node_gap(coeffs) -> float:
    """How far sum_k c_k phi_k (a dict {index: c_k}) can move from its value
    at the nearest default-grid node: (pi / N) sum_k |c_k| |phi_k|_inf
    (j_k + j2_k), N = GRID_NODES.  The nearest node lies within 1 / (2N) in t
    and, for the even function on [0, pi], within pi / N in x, where the
    derivatives of phi_k are at most 2 pi j_k |phi_k|_inf and j2_k |phi_k|_inf."""
    return math.pi / GRID_NODES * sum(abs(c) * basis_norm(idx) * (idx.j + idx.j2) for idx, c in coeffs.items())


# project_exp's relative accuracy, its ladder step and largest order, the strip
# half-widths its bound tries, and the node values of one block of replicates (0.5 MB)
_EXP_TOL, _EXP_STEP, _EXP_CAP, _EXP_BLOCK = 1e-15, 16, 1024, 1 << 16
_EXP_STRIPS = 2.0 ** (np.arange(-24, 9) / 4.0)


def _exp_orders(lead, coeffs, indices):
    """Per row, the least order N on the ladder of _EXP_STEP multiples with
    min_a 4 pi (M_t + M_x) / (e^{aN} - 1) <= _EXP_TOL e^l over a in
    _EXP_STRIPS (see project_exp); RangeError above _EXP_CAP.  On each axis
    |cos|, |sin| <= cosh(f a) at frequency f, so log M - l <=
    sum_{j != 00} |c_j| |phi_j|_inf cosh(f_j a) + max_k f_k a."""
    sup = np.abs(coeffs) * [basis_norm(idx) for idx in lead]
    sup[:, [idx.j == idx.j2 == 0 for idx in lead]] = 0.0
    log_t, log_x = (
        sup @ np.cosh(np.outer([getattr(idx, f) for idx in lead], _EXP_STRIPS))
        + max(getattr(idx, f) for idx in indices) * _EXP_STRIPS
        for f in ("j", "j2")
    )
    log_m = math.log(2.0 * TWO_PI / _EXP_TOL) + np.logaddexp(log_t, log_x)
    need = np.logaddexp(0.0, log_m) / _EXP_STRIPS  # e^{aN} >= 1 + e^{log_m}
    orders = _EXP_STEP * np.ceil(np.min(need, axis=1, initial=math.inf) / _EXP_STEP)
    if np.any(orders > _EXP_CAP):
        raise RangeError(f"exp projection needs order {np.max(orders):.6g} > {_EXP_CAP}")
    return orders.astype(int)


def project_exp(lead, coeffs, indices) -> np.ndarray:
    """project(exp(synthesize(lead, c)), indices) for each row c of an (R, J)
    coeffs -> (R, K), to within _EXP_TOL e^l per coefficient, l = c_00 phi_00.

    exp(p) phi_k is entire and periodic, so the N-point product trapezoid
    rule misses its integral by at most 4 pi (M_t + M_x) / (e^{aN} - 1), M_t
    and M_x its bounds on |Im 2 pi t| <= a and |Im x| <= a (Trefethen &
    Weideman, SIAM Rev. 56, 2014, Thm 3.2, on each axis).  Each row takes the
    grid of its least certified order N (_exp_orders): 48 to 80 nodes per
    axis at n <= 4096 instead of GRID_NODES.  Rows are grouped by order and
    pass in blocks of at most _EXP_BLOCK node values, and each gets the
    result it gets alone."""
    coeffs = np.asarray(coeffs, dtype=float)
    orders = _exp_orders(lead, coeffs, indices)
    out = np.empty((len(coeffs), len(indices)))
    for order in sorted(set(orders.tolist())):
        grid, rows = _grid(order), np.flatnonzero(orders == order)
        step = max(1, _EXP_BLOCK // (order * (order // 2 + 1)))
        for block in np.split(rows, range(step, len(rows), step)):
            # exp in place: a second fresh block per step cost a third of
            # the call at n = 65536
            vals = grid.synthesize(lead, coeffs[block])
            out[block] = grid.project(np.exp(vals, out=vals), indices)
    return out


@dataclass
class SpectralDensity:
    """Finite basis expansion with a smoothness budget and a range band."""

    coeffs: dict
    s: float
    L: float
    rho_star: float

    def __post_init__(self):
        if not (0.0 < self.rho_star <= 1.0):
            raise ConfigurationError("rho_star must lie in (0, 1]")
        self.coeffs = {idx: float(v) for idx, v in self.coeffs.items()}

    def on_grid(self) -> np.ndarray:
        return default_grid().as_values(self)

    def mean_level(self) -> float:
        """Average of the density over the rectangle."""
        c00 = self.coeffs.get(BasisIndex(POS, 0, 0), 0.0)
        return c00 / math.sqrt(TWO_PI)

    def sobolev_sum(self) -> float:
        return float(
            sum(c * c * idx.weight ** self.s for idx, c in self.coeffs.items())
        )

    def range_on_grid(self):
        """An enclosure of the range on the rectangle: the extremes at the
        default-grid nodes widened by node_gap."""
        v, gap = self.on_grid(), node_gap(self.coeffs)
        return float(np.min(v)) - gap, float(np.max(v)) + gap

    def check_membership(self) -> list:
        """Smoothness and range checks as report entries."""
        lo, hi = self.range_on_grid()
        return [
            CheckResult("density.smoothness", "class-budget", self.sobolev_sum(), self.L),
            CheckResult("density.lower", "class-budget", self.rho_star, lo, tol=1e-12),
            CheckResult("density.upper", "class-budget", hi, 1.0 / self.rho_star, tol=1e-12),
        ]

    def require_membership(self):
        for chk in self.check_membership():
            if not chk.passed:
                raise RangeError(f"density violates {chk.check_id}: {chk.lhs} vs {chk.rhs}")

    def scaled_deviation(self, factor: float) -> "SpectralDensity":
        """Shrink every non-constant coefficient by a common factor."""
        zero = BasisIndex(POS, 0, 0)
        coeffs = {
            idx: (v if idx == zero else factor * v) for idx, v in self.coeffs.items()
        }
        return SpectralDensity(coeffs, self.s, self.L, self.rho_star)


def table_profiles(coeffs, u):
    """sum_r a[r + k1, m] exp(2 pi i r u) for each column m of a (2k1+1, w)
    table: u (...) -> (..., w), one matrix product with the exponentials."""
    k1 = len(coeffs) // 2
    u = np.asarray(u, dtype=float)
    return np.exp(2j * math.pi * np.multiply.outer(u, np.arange(-k1, k1 + 1))) @ coeffs


def table_eval(coeffs, u, x):
    """sum a[r + k1, m + k2] exp(2 pi i r u) exp(i m x) on broadcastable u, x.

    The one evaluator of the (2k1+1, 2k2+1) coefficient tables that
    TransferFunction and circulant.FourierFunction hold."""
    k2 = coeffs.shape[1] // 2
    u, x = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(x, dtype=float))
    xexp = np.exp(1j * np.multiply.outer(x, np.arange(-k2, k2 + 1)))
    return np.sum(table_profiles(coeffs, u) * xexp, axis=-1)


@dataclass
class TransferFunction:
    """Moving-average symbol A(u, x) = sum a[r + k1, m + k2] e^{2 pi i r u} e^{i m x}.

    Column m of the table holds the component c_m(u) = sum_r a[r, m]
    e^{2 pi i r u}, a real-valued trig polynomial of the scaled time u, so
    the table is Hermitian in r: a[-r, m] = conj a[r, m].  Products of
    components are exact coefficient convolutions, so |A|^2 expands exactly
    into the tensor cos/sin basis.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        a = self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if a.ndim != 2 or a.shape[0] % 2 == 0 or a.shape[1] % 2 == 0:
            raise ConfigurationError(f"symbol table has shape {a.shape}, not (2 k1 + 1, 2 k2 + 1)")
        if np.max(np.abs(a - np.conj(a[::-1]))) > 1e-10 * max(1.0, np.max(np.abs(a))):
            raise ConfigurationError("symbol components are not real-valued")

    def eval(self, u, x):
        return table_eval(self.coeffs, u, x)

    def components(self, u):
        """Component values c_m(u), u (...) -> (..., 2 k2 + 1), m = -k2..k2."""
        return table_profiles(self.coeffs, u).real

    def to_spectral_density(self, s: float, L: float, rho_star: float) -> SpectralDensity:
        """Exact expansion of |A|^2 in the tensor basis.

        The x-frequency k >= 0 profile of |A|^2 is g_k = sum_m c_{m+k} c_m,
        whose u-coefficients are the convolutions of the table's columns;
        its cos and sin parts give the "+" and "-" coefficients of (j, k).
        """
        a = self.coeffs
        w = a.shape[1]
        deg = len(a) - 1
        coeffs = {}
        for k in range(w):
            g = sum(np.convolve(a[:, m + k], a[:, m]) for m in range(w - k))
            # cos(k x) weight: 1 for k = 0, 2 for k >= 1 (conjugate pair);
            # the real parts of g are a0 and a_r / 2, its imaginary parts -b_r / 2
            xw = 1.0 if k == 0 else 2.0
            terms = [(POS, 0, g[deg].real)]
            terms += [(POS, j, 2.0 * g[deg + j].real) for j in range(1, deg + 1)]
            terms += [(NEG, j, -2.0 * g[deg + j].imag) for j in range(1, deg + 1)]
            for parity, j, v in terms:
                idx = BasisIndex(parity, j, k)
                c = xw * v / basis_norm(idx)
                if c != 0.0:
                    coeffs[idx] = c
        return SpectralDensity(coeffs, s, L, rho_star)


def random_transfer(k1: int, k2: int, rng) -> TransferFunction:
    """Random symbol with the constant floor 1, components decaying in |m|.

    Component m is a0 + sum_r a_r cos(2 pi r u) + b_r sin(2 pi r u), whose
    coefficients r and -r are (a_r -+ i b_r) / 2."""
    table = np.zeros((2 * k1 + 1, 2 * k2 + 1), dtype=complex)
    roll = (1.0 + np.arange(1, k1 + 1)) ** 2
    for m in range(-k2, k2 + 1):
        decay = 0.15 / (1.0 + m * m)
        a0 = 1.0 if m == 0 else decay * rng.standard_normal()
        a = decay * rng.standard_normal(k1) / roll
        b = decay * rng.standard_normal(k1) / roll
        col = table[:, m + k2]
        col[k1] = a0
        col[k1 + 1 :] = 0.5 * (a - 1j * b)
        col[:k1] = 0.5 * (a + 1j * b)[::-1]
    return TransferFunction(table)


# random_density's normalization sample, with no weights: the GRID_NODES x
# GRID_NODES Gauss-Legendre nodes (t, x).  max |f - mean| over them sets the
# scale of every study density, so of every figure a run reports; on the
# trapezoid nodes the maximum is larger (by 2.8e-5 relative for the default
# configuration's density), which would move them all.  Built at
# import, so a command line run pays its size-GRID_NODES eigensolve in set-up.
def _legendre_nodes():
    u = leggauss(GRID_NODES)[0]
    return 0.5 * (u + 1.0), math.pi * u


_LEGENDRE_NODES = _legendre_nodes()


def random_density(
    k1: int,
    k2: int,
    rng,
    s: float,
    L: float,
    rho_star: float,
    mean: float = None,
    amplitude: float = 0.8,
) -> SpectralDensity:
    """Seeded class member: random decaying coefficients, rescaled to fit.

    The deviation from the constant level is shrunk until both the range band
    and the smoothness budget hold with a little headroom, so the result is a
    strict interior point of the class.  Its sup is taken over
    _LEGENDRE_NODES.
    """
    if mean is None:
        mean = 0.5 * (rho_star + 1.0 / rho_star)
    lo_room = mean - rho_star
    hi_room = 1.0 / rho_star - mean
    if lo_room <= 0.0 or hi_room <= 0.0:
        raise ConfigurationError("mean level must sit strictly inside the range band")

    coeffs = {BasisIndex(POS, 0, 0): mean * math.sqrt(TWO_PI)}
    for idx in enumerate_indices(k1, k2):
        if idx.j == 0 and idx.j2 == 0:
            continue
        decay = (1.0 + idx.weight) ** (-(s + 1.0) / 2.0)
        coeffs[idx] = decay * rng.standard_normal()

    dens = SpectralDensity(coeffs, s, L, rho_star)
    T, X = _separable(list(dens.coeffs), *_LEGENDRE_NODES)
    dev_sup = float(np.max(np.abs((T * list(dens.coeffs.values())) @ X.T - mean)))
    if dev_sup > 0.0:
        target = amplitude * min(lo_room, hi_room)
        dens = dens.scaled_deviation(target / dev_sup)
    ssum = dens.sobolev_sum()
    if ssum > 0.9 * L:
        dens = dens.scaled_deviation(math.sqrt(0.9 * L / ssum))
    dens.require_membership()
    return dens
