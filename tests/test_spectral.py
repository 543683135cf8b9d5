import math

import numpy as np
import pytest

from lsequiv import spectral
from lsequiv.errors import ConfigurationError, RangeError
from lsequiv.rng import make_rng
from lsequiv.spectral import (
    GRID_NODES,
    BasisIndex,
    SpectralDensity,
    TransferFunction,
    basis_eval,
    basis_norm,
    default_grid,
    enumerate_indices,
    leading_indices,
    project_exp,
    random_density,
    random_transfer,
)
from lsequiv.whitenoise import _wn_means

GRID = default_grid()

NORM_CASES = [
    (BasisIndex("+", 0, 0), math.sqrt(1.0 / (2.0 * math.pi))),
    (BasisIndex("+", 1, 0), math.sqrt(1.0 / math.pi)),
    (BasisIndex("+", 0, 2), math.sqrt(1.0 / math.pi)),
    (BasisIndex("+", 3, 2), math.sqrt(2.0 / math.pi)),
    (BasisIndex("-", 1, 0), math.sqrt(1.0 / math.pi)),
    (BasisIndex("-", 2, 4), math.sqrt(2.0 / math.pi)),
]


@pytest.mark.parametrize("idx,expected", NORM_CASES)
def test_basis_norm_closed_form(idx, expected):
    assert basis_norm(idx) == pytest.approx(expected, rel=0, abs=1e-15)


def test_basis_index_validation():
    with pytest.raises(ConfigurationError):
        BasisIndex("-", 0, 1)
    with pytest.raises(ConfigurationError):
        BasisIndex("*", 1, 1)
    with pytest.raises(ConfigurationError):
        BasisIndex("+", -1, 0)


def test_basis_index_weight_and_order():
    assert BasisIndex("+", 2, 3).weight == 13
    got = [(i.parity, i.j, i.j2) for i in leading_indices(10)]
    assert got == [
        ("+", 0, 0),
        ("+", 0, 1),
        ("+", 1, 0),
        ("-", 1, 0),
        ("+", 1, 1),
        ("-", 1, 1),
        ("+", 0, 2),
        ("+", 2, 0),
        ("-", 2, 0),
        ("+", 1, 2),
    ]


def test_leading_indices_match_sorted_pool():
    # oracle: the whole pool of validated indices, sorted by their key
    for count in range(1, 301):
        reach = int(math.ceil(2.0 * math.sqrt(count))) + 2
        pool = [BasisIndex("+", j, j2) for j in range(reach) for j2 in range(reach)]
        pool += [BasisIndex("-", j, j2) for j in range(1, reach) for j2 in range(reach)]
        pool.sort(key=lambda idx: (idx.weight, idx.parity, idx.j, idx.j2))
        assert leading_indices(count) == pool[:count]


def test_enumerate_indices_layout():
    idx = enumerate_indices(2, 1)
    # (k1 + 1)(k2 + 1) cosine and k1 (k2 + 1) sine functions
    assert len(idx) == (2 * 2 + 1) * (1 + 1) == 10
    # cosine block first, j outer and j2 inner, then the sine block from j=1
    assert [(i.parity, i.j, i.j2) for i in idx[:6]] == [
        ("+", 0, 0), ("+", 0, 1), ("+", 1, 0), ("+", 1, 1), ("+", 2, 0), ("+", 2, 1),
    ]
    assert all(i.parity == "-" for i in idx[6:])
    assert [(i.j, i.j2) for i in idx[6:]] == [(1, 0), (1, 1), (2, 0), (2, 1)]


ORTHO_INDICES = enumerate_indices(2, 2)


@pytest.mark.parametrize("a", range(len(ORTHO_INDICES)))
def test_orthonormality_row(a):
    va = GRID.basis_values(ORTHO_INDICES[a])
    row = [GRID.inner(va, ORTHO_INDICES[b]) for b in range(len(ORTHO_INDICES))]
    expected = np.zeros(len(ORTHO_INDICES))
    expected[a] = 1.0
    np.testing.assert_allclose(row, expected, atol=5e-13)


def test_basis_eval_matches_factors():
    idx = BasisIndex("-", 2, 1)
    t, x = 0.3, 1.1
    expected = math.sqrt(2.0 / math.pi) * math.sin(2.0 * math.pi * 2 * t) * math.cos(x)
    assert basis_eval(idx, t, x) == pytest.approx(expected, rel=1e-14)


def test_grid_project_synthesize_roundtrip():
    rng = make_rng(11, stream=3)
    indices = enumerate_indices(2, 2)
    coeffs = rng.standard_normal(len(indices))
    values = GRID.synthesize(indices, coeffs)
    back = GRID.project(values, indices)
    for k in range(len(indices)):
        assert back[k] == pytest.approx(coeffs[k], rel=0, abs=1e-12)


def test_grid_l2_norm_parseval():
    rng = make_rng(12, stream=3)
    indices = enumerate_indices(1, 2)
    coeffs = rng.standard_normal(len(indices))
    values = GRID.synthesize(indices, coeffs)
    ssq = sum(c * c for c in coeffs)
    assert GRID.integrate(values**2) == pytest.approx(ssq, rel=1e-12)


# oracles for the separable grid maps: one basis_eval call per index
GRID_INDICES = enumerate_indices(3, 3)


def _basis_stack(indices):
    tt, xx = np.meshgrid(GRID.t, GRID.x, indexing="ij")
    return np.stack([basis_eval(idx, tt, xx) for idx in indices])


def test_grid_factors_match_basis_eval():
    T, X = GRID.factors(GRID_INDICES)
    assert T.shape == X.shape == (GRID_NODES, len(GRID_INDICES))
    np.testing.assert_allclose(np.einsum("ak,bk->kab", T, X), _basis_stack(GRID_INDICES), rtol=0, atol=1e-13)


def test_grid_factors_are_cached_read_only():
    # one read-only pair per index tuple, whatever iterable carries it, and
    # bitwise the pair a fresh grid computes
    T, X = GRID.factors(GRID_INDICES)
    again = GRID.factors(iter(GRID_INDICES))
    assert again[0] is T and again[1] is X
    assert not T.flags.writeable and not X.flags.writeable
    fresh = type(GRID)().factors(list(GRID_INDICES))
    assert np.array_equal(fresh[0], T) and np.array_equal(fresh[1], X)
    assert GRID.factors(GRID_INDICES[:2])[0].shape == (GRID_NODES, 2)


def test_grid_project_synthesize_gram_match_basis_eval():
    stack = _basis_stack(GRID_INDICES)
    w2 = np.outer(GRID.wt, GRID.wx)
    rng = make_rng(13, stream=3)
    values = np.exp(0.3 * GRID.synthesize(GRID_INDICES, rng.standard_normal(len(GRID_INDICES))))
    coeffs = rng.standard_normal(len(GRID_INDICES))
    np.testing.assert_allclose(
        GRID.project(values, GRID_INDICES), np.einsum("kab,ab->k", stack, w2 * values), rtol=0, atol=1e-13
    )
    np.testing.assert_allclose(
        GRID.synthesize(GRID_INDICES, coeffs), np.tensordot(coeffs, stack, axes=1), rtol=0, atol=1e-13
    )
    gram = GRID.weighted_gram(GRID_INDICES, values)
    np.testing.assert_allclose(gram, np.einsum("kab,lab->kl", stack * (w2 * values), stack), rtol=0, atol=1e-13)
    np.testing.assert_array_equal(gram, gram.T)
    assert GRID.inner(values, GRID_INDICES[5]) == pytest.approx(GRID.project(values, GRID_INDICES)[5], abs=1e-14)
    np.testing.assert_array_equal(GRID.basis_values(GRID_INDICES[5]), GRID.synthesize(GRID_INDICES[5:6], [1.0]))


def test_grid_stacked_maps_equal_row_by_row():
    rng = make_rng(14, stream=3)
    coeffs = rng.standard_normal((3, 2, len(GRID_INDICES)))
    values = GRID.synthesize(GRID_INDICES, coeffs)
    assert values.shape == (3, 2, GRID_NODES, GRID_NODES)
    back = GRID.project(values, GRID_INDICES)
    assert back.shape == coeffs.shape
    for a in range(3):
        for b in range(2):
            np.testing.assert_allclose(values[a, b], GRID.synthesize(GRID_INDICES, coeffs[a, b]), rtol=0, atol=1e-14)
            np.testing.assert_allclose(back[a, b], GRID.project(values[a, b], GRID_INDICES), rtol=0, atol=1e-14)


@pytest.mark.parametrize("reps", [1, 7, 8, 9, 15, 16, 17, 100])
def test_project_exp_equals_stacked_maps(reps):
    # one row, short blocks, rows of two orders, a ragged last block of the
    # 54-row blocks at order 48: the stacked call equals its row-at-a-time
    # maps bit for bit
    lead = leading_indices(16)
    coeffs = 0.3 * make_rng(reps, stream=4).standard_normal((reps, len(lead)))
    got = project_exp(lead, coeffs, GRID_INDICES)
    assert got.shape == (reps, len(GRID_INDICES))
    rows = [project_exp(lead, coeffs[r : r + 1], GRID_INDICES)[0] for r in range(reps)]
    assert np.array_equal(got, np.stack(rows))


@pytest.mark.parametrize("reps", [1, 17])
def test_project_exp_matches_unfolded_projection(reps):
    # oracle: exp of the synthesis on the full grid, projected unfolded
    lead = leading_indices(32)
    coeffs = 0.3 * make_rng(reps, stream=5).standard_normal((reps, len(lead)))
    want = GRID.project(np.exp(GRID.synthesize(lead, coeffs)), GRID_INDICES)
    got = project_exp(lead, coeffs, GRID_INDICES)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


def _pilot_draws(n, scale):
    """Five rows of the pilot's ceil(sqrt(n)) leading coefficients: scale times
    standard normals, or (scale None) chain-like draws around the projected
    log of a class density with the noise a_n."""
    lead, means, a_n = _wn_means(PILOT_DENSITY, n)
    z = make_rng(n, stream=6).standard_normal((5, len(lead)))
    return lead, (means + a_n * z if scale is None else scale * z)


def _trapezoid_bound(lead, coeff, order):
    """The certificate's bound on the error at one order for one row,
    relative to e^l: min over the strips a of 4 pi (M_t + M_x) / (e^{a order} - 1),
    each M bounding |exp(p) phi_k| e^-l on its axis's strip, summed term by term."""
    best = math.inf
    for a in spectral._EXP_STRIPS:
        logs = []
        for axis in ("j", "j2"):
            log_m = max(getattr(idx, axis) for idx in GRID_INDICES) * a
            for idx, c in zip(lead, coeff):
                if (idx.j, idx.j2) != (0, 0):
                    log_m += abs(c) * basis_norm(idx) * math.cosh(getattr(idx, axis) * a)
            logs.append(log_m)
        best = min(best, math.log(4.0 * math.pi) + np.logaddexp(*logs) - math.log(math.expm1(a * order)))
    return math.exp(best)


PILOT_DENSITY = random_density(2, 2, make_rng(0, stream=1), s=11.0, L=5.0, rho_star=0.5)
# not n = 65536 at scale 0.3: there p spans [-9, 8], the rows need 656 to 688
# nodes, and the 256-node Gauss-Legendre oracle is off by 3e-11 of the largest
# coefficient where the 1024-node trapezoid rule agrees to 2e-15
ORACLE_CASES = [(64, 0.3), (1024, 0.3), (16384, 0.3), (64, None), (1024, None), (16384, None), (65536, None)]


@pytest.mark.parametrize("n,scale", ORACLE_CASES)
def test_project_exp_matches_grid_oracle(n, scale):
    lead, coeffs = _pilot_draws(n, scale)
    want = GRID.project(np.exp(GRID.synthesize(lead, coeffs)), GRID_INDICES)
    got = project_exp(lead, coeffs, GRID_INDICES)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("n,scale", [(64, 0.3), (1024, 0.3), (1024, None), (16384, None)])
def test_project_exp_certificate_is_sound_and_minimal(n, scale):
    # every ladder order up to the chosen one stays within its own bound of
    # the oracle (plus its rounding), and the chosen order is the first whose
    # bound is at most the tolerance
    lead, coeffs = _pilot_draws(n, scale)
    want = GRID.project(np.exp(GRID.synthesize(lead, coeffs)), GRID_INDICES)
    level = np.exp(coeffs[:, 0] * basis_norm(lead[0]))[:, None]
    orders = spectral._exp_orders(lead, coeffs, GRID_INDICES)
    step = spectral._EXP_STEP
    for r, chosen in enumerate(orders):
        bounds = [_trapezoid_bound(lead, coeffs[r], m) for m in range(step, chosen + 1, step)]
        assert bounds[-1] <= spectral._EXP_TOL < min(bounds[:-1], default=math.inf)
        for m, bound in zip(range(step, chosen + 1, step), bounds):
            got = spectral._trapezoid_project_exp(lead, coeffs[r : r + 1], GRID_INDICES, m)[0]
            err = np.max(np.abs(got - want[r]))
            assert err <= bound * level[r, 0] + 1e-14 * np.max(np.abs(want[r]))


def test_project_exp_groups_rows_by_order():
    # rows of three scales need three orders; each row is its own order's
    # rule, bit for bit, wherever it sits in the call
    lead = leading_indices(32)
    z = make_rng(7, stream=7).standard_normal((9, len(lead)))
    coeffs = np.repeat([0.02, 0.1, 0.3], 3)[:, None] * z
    orders = spectral._exp_orders(lead, coeffs, GRID_INDICES)
    assert len(set(orders.tolist())) == 3
    got = project_exp(lead, coeffs, GRID_INDICES)
    for r, order in enumerate(orders):
        alone = spectral._trapezoid_project_exp(lead, coeffs[r : r + 1], GRID_INDICES, order)
        assert np.array_equal(got[r], alone[0])


def test_project_exp_cap_raises_before_allocating(traced_peak):
    # a 1024-node row block alone would take 4 MB
    lead = leading_indices(32)
    coeffs = np.full((100, len(lead)), 50.0)

    def call():
        with pytest.raises(RangeError, match="exp projection needs order"):
            project_exp(lead, coeffs, GRID_INDICES)

    assert traced_peak(call) < 2e5


def test_trapezoid_fold_equals_full_period_sum():
    # the folded rule's premise: on the nodes 2 pi b / N the integrand is even
    # in x, so the N / 2 + 1 nodes x in [0, pi] with the inner ones doubled
    # give the full N-point trapezoid sum on the period
    lead = leading_indices(32)
    coeffs = 0.3 * make_rng(3, stream=8).standard_normal((2, len(lead)))
    order = 48
    t = (np.arange(order) / order)[:, None]
    x = (2.0 * math.pi * np.arange(order) / order)[None, :]
    p = sum(c[:, None, None] * basis_eval(idx, t, x) for idx, c in zip(lead, coeffs.T))
    want = [
        [np.sum(np.exp(p[r]) * basis_eval(idx, t, x)) * 2.0 * math.pi / order**2 for idx in GRID_INDICES]
        for r in range(2)
    ]
    got = spectral._trapezoid_project_exp(lead, coeffs, GRID_INDICES, order)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


RANDOM_DENSITY_SEEDS = list(range(6))


@pytest.mark.parametrize("seed", RANDOM_DENSITY_SEEDS)
def test_random_density_membership(seed):
    f = random_density(2, 2, make_rng(seed, stream=1), s=11.0, L=5.0, rho_star=0.5)
    checks = f.check_membership()
    assert [c.check_id for c in checks] == [
        "density.smoothness", "density.lower", "density.upper",
    ]
    assert all(c.passed for c in checks)
    lo, hi = f.range_on_grid()
    assert lo >= f.rho_star
    assert hi <= 1.0 / f.rho_star
    assert f.sobolev_sum() <= f.L ** 2


def test_random_density_default_mean():
    f = random_density(1, 1, make_rng(0, stream=1), s=11.0, L=5.0, rho_star=0.5)
    # default centering at the midpoint of the admissible band
    assert f.mean_level() == pytest.approx(0.5 * (0.5 + 2.0), rel=1e-12)


def test_require_membership_raises_on_violation():
    f = SpectralDensity({BasisIndex("+", 0, 0): 0.01}, s=11.0, L=5.0, rho_star=0.5)
    with pytest.raises(RangeError):
        f.require_membership()


def test_scaled_deviation_keeps_mean():
    f = random_density(2, 2, make_rng(9, stream=1), s=11.0, L=5.0, rho_star=0.5)
    g = f.scaled_deviation(0.5)
    assert g.mean_level() == pytest.approx(f.mean_level(), rel=1e-12)
    idx = BasisIndex("+", 1, 1)
    assert g.coeffs[idx] == pytest.approx(0.5 * f.coeffs[idx], rel=1e-12)


def _real_form_symbol(k1, k2, seed):
    """Symbol with components c_m = a0 + sum_r a_r cos(2 pi r u) + b_r sin(2 pi r u)
    of random (a0, a, b), and c_m itself as an oracle callable."""
    rng = make_rng(seed, stream=31)
    a0 = rng.standard_normal(2 * k2 + 1)
    a, b = rng.standard_normal((2, k1, 2 * k2 + 1))
    table = np.zeros((2 * k1 + 1, 2 * k2 + 1), dtype=complex)
    table[k1] = a0
    table[k1 + 1 :] = 0.5 * (a - 1j * b)
    table[:k1] = 0.5 * (a + 1j * b)[::-1]
    r = np.arange(1, k1 + 1)

    def components(u):
        w = 2.0 * math.pi * np.multiply.outer(u, r)
        return a0 + np.cos(w) @ a + np.sin(w) @ b

    return TransferFunction(table), components


@pytest.mark.parametrize("k1,k2", [(2, 2), (0, 1), (3, 0)])
def test_symbol_table_eval(k1, k2):
    # column m of the table is the real component c_m(u), A = sum_m c_m(u) e^{imx}
    sym, components = _real_form_symbol(k1, k2, seed=k1 + 3 * k2)
    u = np.linspace(0.0, 1.0, 23)
    x = np.linspace(-math.pi, math.pi, 19)
    expected = components(u) @ np.exp(1j * np.outer(np.arange(-k2, k2 + 1), x))
    np.testing.assert_allclose(sym.components(u), components(u), rtol=0, atol=1e-14)
    np.testing.assert_allclose(sym.eval(u[:, None], x[None, :]), expected, rtol=0, atol=1e-13)
    scalar = components(0.3) @ np.exp(-1.2j * np.arange(-k2, k2 + 1))
    assert sym.eval(0.3, -1.2) == pytest.approx(scalar, rel=0, abs=1e-13)


def test_symbol_table_must_be_hermitian():
    table = random_transfer(2, 1, make_rng(3, stream=1)).coeffs.copy()
    table[3, 0] += 1e-6j
    with pytest.raises(ConfigurationError, match="not real-valued"):
        TransferFunction(table)
    with pytest.raises(ConfigurationError, match="shape"):
        TransferFunction(np.ones((2, 3)))


@pytest.mark.parametrize("k1,k2,seed,stream", [(2, 2, 5, 1), (1, 1, 4, 30), (3, 2, 7, 9), (0, 1, 1, 2)])
def test_transfer_density_matches_grid_projection(k1, k2, seed, stream):
    # the exact expansion of |A|^2 against quadrature on the one grid
    a = random_transfer(k1, k2, make_rng(seed, stream=stream))
    f = a.to_spectral_density(11.0, 5.0, 0.5)
    indices = enumerate_indices(2 * k1, 2 * k2)
    assert set(f.coeffs) <= set(indices)
    tt, xx = np.meshgrid(GRID.t, GRID.x, indexing="ij")
    projected = GRID.project(np.abs(a.eval(tt, xx)) ** 2, indices)
    exact = np.array([f.coeffs.get(idx, 0.0) for idx in indices])
    np.testing.assert_allclose(exact, projected, rtol=0, atol=1e-12)


def test_transfer_squared_modulus_matches_density():
    a = random_transfer(2, 2, make_rng(5, stream=1))
    f = a.to_spectral_density(11.0, 5.0, 0.5)
    t, x = 0.35, -0.8
    value = sum(c * basis_eval(idx, t, x) for idx, c in f.coeffs.items())
    assert abs(a.eval(t, x)) ** 2 == pytest.approx(float(value), rel=1e-10)
    lo, hi = f.range_on_grid()
    assert lo >= 0.5 and hi <= 2.0
