import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsequiv._linalg import DENSE_N_MAX, band_to_dense
from lsequiv.circulant import (
    CirculantElement,
    FourierFunction,
    build_mcheck_basis,
    hom_defect,
    lambda_phase,
    mcheck_diagonal,
    mcheck_element,
    psi_forward,
    psi_inverse,
    psi_inverse_real,
    real_expansion_to_element,
    real_function_table,
    window_guard,
)
from lsequiv.errors import ConfigurationError, PreconditionError
from lsequiv.report import csv_text
from lsequiv.rng import make_rng
from lsequiv.spectral import BasisIndex, basis_norm, enumerate_indices

RNG = make_rng(7, stream=20)
PRODUCT_QUADS = [tuple(int(v) for v in RNG.integers(0, 4, size=4)) for _ in range(12)]
HOM_SEEDS = list(range(8))


def _adjoint(a):
    """A* in coefficient space: the conjugated, reversed table times
    lambda(n, j j2) (oracle)."""
    j, j2 = np.arange(-a.k1, a.k1 + 1)[:, None], np.arange(-a.k2, a.k2 + 1)[None, :]
    return CirculantElement(a.n, a.k1, a.k2, np.conj(a.coeffs[::-1, ::-1]) * lambda_phase(a.n, j * j2))


def _element(n, j, j2):
    """Dense dictionary element Lambda^j S^j2."""
    return CirculantElement.basis(n, j, j2).to_matrix()


def test_cm_small_literal():
    # one nonzero per row: row i carries exp(2*pi*i*j*i/n) at column (i + j2) mod n
    got = _element(4, 1, 1)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        expected[i, (i + 1) % 4] = np.exp(2j * np.pi * i / 4.0)
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_cm_frobenius_exact():
    for n in (8, 64):
        for j, j2 in ((0, 0), (1, 2), (3, 3)):
            assert np.linalg.norm(_element(n, j, j2)) ** 2 == pytest.approx(n, rel=0, abs=1e-11)


def test_shift_permutation_matches_cm():
    # Lambda^0 S^1 is the cyclic shift S with S[i, (i + 1) mod n] = 1
    n = 6
    np.testing.assert_allclose(np.roll(np.eye(n), 1, axis=1), _element(n, 0, 1), atol=0)


def _window_projection(a, k1, k2):
    """Coefficients <Lambda^j S^j2, A>_F / n for |j| <= k1, |j2| <= k2: the
    orthogonal projection onto the window, as the dictionary elements are
    orthogonal with squared Frobenius norm n."""
    n = len(a)
    return np.array([
        [np.vdot(_element(n, j, j2), a) / n for j2 in range(-k2, k2 + 1)] for j in range(-k1, k1 + 1)
    ])


@pytest.mark.parametrize("a1,a2,b1,b2", PRODUCT_QUADS)
def test_cm_product_law(a1, a2, b1, b2):
    # matrix product shifts by the second window and picks up one phase twist
    n = 16
    lhs = _element(n, a1, a2) @ _element(n, b1, b2)
    rhs = lambda_phase(n, b1 * a2) * _element(n, a1 + b1, a2 + b2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_element_roundtrip_and_algebra():
    rng = make_rng(3, stream=21)
    n, k1, k2 = 12, 2, 2
    coeffs = rng.standard_normal((2 * k1 + 1, 2 * k2 + 1)) + 1j * rng.standard_normal((2 * k1 + 1, 2 * k2 + 1))
    a = CirculantElement(n, k1, k2, coeffs)
    np.testing.assert_allclose(_window_projection(a.to_matrix(), k1, k2), a.coeffs, atol=1e-13)
    np.testing.assert_allclose((2.0 * a).to_matrix(), 2.0 * a.to_matrix(), atol=1e-13)
    b = CirculantElement.basis(n, 1, 0)
    np.testing.assert_allclose((a - b).to_matrix(), a.to_matrix() - b.to_matrix(), atol=1e-13)
    np.testing.assert_allclose(_adjoint(a).to_matrix(), a.to_matrix().conj().T, atol=1e-13)
    assert a.frob_sq == pytest.approx(np.linalg.norm(a.to_matrix()) ** 2, rel=1e-12)


def test_psi_roundtrip_and_isometry():
    rng = make_rng(5, stream=21)
    n, k1, k2 = 16, 2, 1
    a = CirculantElement(n, k1, k2, rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    fn = psi_forward(a)
    assert fn.l2n_sq == pytest.approx(a.frob_sq, rel=1e-12)
    back = psi_inverse(fn)
    np.testing.assert_allclose(back.coeffs, a.coeffs, atol=1e-12)


@pytest.mark.parametrize("n", [16, 64])
def test_hom_defect_pinned_value(n):
    a = (1.0 / math.sqrt(n)) * CirculantElement.basis(n, 1, 1)
    lhs, bound = hom_defect(a, a)
    expected = (2.0 - 2.0 * math.cos(2.0 * math.pi / n)) / n
    assert lhs == pytest.approx(expected, rel=0, abs=1e-15)
    assert lhs <= bound


@pytest.mark.parametrize("seed", HOM_SEEDS)
@pytest.mark.parametrize("convention", ["plain", "symmetric"])
def test_hom_defect_bounded(seed, convention):
    rng = make_rng(seed, stream=22)
    n = int(rng.choice([32, 64]))
    k1a, k2a, k1b, k2b = (int(v) for v in rng.integers(0, 3, size=4))
    a = CirculantElement(n, k1a, k2a, rng.standard_normal((2 * k1a + 1, 2 * k2a + 1)))
    b = CirculantElement(n, k1b, k2b, rng.standard_normal((2 * k1b + 1, 2 * k2b + 1)))
    lhs, bound = hom_defect(a, b, convention=convention)
    assert lhs <= bound * (1.0 + 1e-12)


def test_element_algebra_past_dense_limit():
    # an element holds only its coefficient table; the dense view is capped
    rng = make_rng(2, stream=22)
    n = 2 * DENSE_N_MAX
    a = CirculantElement(n, 2, 1, rng.standard_normal((5, 3)))
    b = CirculantElement(n, 1, 2, rng.standard_normal((3, 5)))
    prod = a * b
    assert prod.coeffs.shape == (7, 7) and np.all(np.isfinite(prod.coeffs))
    for convention in ("plain", "symmetric"):
        lhs, bound = hom_defect(a, b, convention=convention)
        assert math.isfinite(lhs) and lhs <= bound * (1.0 + 1e-12)
    with pytest.raises(PreconditionError, match="dense matrix size"):
        a.to_matrix()


MCHECK_INDICES = enumerate_indices(2, 2)


@pytest.mark.parametrize("pos", range(len(MCHECK_INDICES)))
def test_mcheck_element_symmetric_with_exact_norm(pos):
    n = 32
    m = mcheck_element(n, MCHECK_INDICES[pos])
    assert m.dtype == np.float64
    np.testing.assert_allclose(m, m.T, atol=0)
    assert np.linalg.norm(m) ** 2 == pytest.approx(n / (2.0 * math.pi), rel=1e-13)


def test_mcheck_via_psi_matches_direct():
    # the real table mapped back through the symmetric Psi is the real Mcheck
    n = 24
    for idx in (BasisIndex("+", 1, 2), BasisIndex("-", 2, 0)):
        dense = psi_inverse(real_function_table(n, idx)).to_matrix()
        assert np.max(np.abs(dense.imag)) <= 1e-10
        np.testing.assert_allclose(dense.real, mcheck_element(n, idx), atol=1e-12)


def test_mcheck_stack_orthonormal():
    n, k1, k2 = 64, 1, 1
    stack = build_mcheck_basis(n, k1, k2)
    assert stack.shape == (6, n, n)
    gram = np.einsum("aij,bij->ab", stack, stack)
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)


def test_real_function_table_matches_symmetric_psi():
    n, idx = 16, BasisIndex("+", 1, 1)
    elem = CirculantElement(n, 1, 1, _window_projection(mcheck_element(n, idx), 1, 1))
    fn = psi_forward(elem)
    tab = real_function_table(n, idx)
    np.testing.assert_allclose(fn.coeffs, tab.coeffs, atol=1e-13)
    assert tab.l2n_sq == pytest.approx(n / (2.0 * math.pi), rel=1e-12)


def test_psi_inverse_real_constant_density_gives_identity():
    n = 20
    w = psi_inverse_real(n, [BasisIndex("+", 0, 0)], [math.sqrt(2.0 * math.pi)])
    assert w.shape == (1, n)
    np.testing.assert_allclose(band_to_dense(w), np.eye(n), atol=1e-12)


def test_psi_inverse_real_single_mode():
    n = 20
    idx = BasisIndex("-", 1, 1)
    got = psi_inverse_real(n, [idx], [2.5])
    assert got.shape == (2, n)
    np.testing.assert_allclose(band_to_dense(got), 2.5 * mcheck_element(n, idx), atol=1e-12)


def _mcheck_element_fill(n, idx):
    """mcheck_element filled entry by entry from the cosine form (oracle)."""
    nrm = basis_norm(idx)
    j, j2 = idx.j, idx.j2
    out = np.zeros((n, n))
    i = np.arange(n)
    trig = np.cos if idx.parity == "+" else np.sin
    if j2 == 0:
        out[i, i] = nrm * trig(math.pi * j * 2 * i / n)
        return out
    vals = 0.5 * nrm * trig(math.pi * j * (2 * i + j2) / n)
    out[i, (i + j2) % n] = vals
    out[(i + j2) % n, i] = vals
    return out


def _dense_expansion(n, indices, coeffs):
    """sum_k c_k mcheck_element(n, idx_k), accumulated densely in index order (oracle)."""
    out = np.zeros((n, n))
    for idx, c in zip(indices, coeffs):
        if c != 0.0:
            elem = mcheck_element(n, idx)
            elem *= float(c)
            out += elem
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k1=st.integers(0, 3),
    k2=st.integers(0, 3),
    n=st.sampled_from([32, 64]),
    seed=st.integers(0, 2**16),
)
def test_psi_inverse_real_wrapped_matches_dense_accumulation(k1, k2, n, seed):
    indices = enumerate_indices(k1, k2)
    rng = make_rng(seed, stream=23)
    coeffs = rng.standard_normal(len(indices)) * (rng.random(len(indices)) < 0.8)
    wd = psi_inverse_real(n, indices, coeffs)
    assert wd.shape == (k2 + 1, n)
    np.testing.assert_array_equal(band_to_dense(wd), _dense_expansion(n, indices, coeffs))
    for idx in indices:
        np.testing.assert_array_equal(mcheck_element(n, idx), _mcheck_element_fill(n, idx))
        np.testing.assert_array_equal(
            mcheck_diagonal(n, idx), mcheck_element(n, idx)[(np.arange(n) + idx.j2) % n, np.arange(n)]
        )


def test_matrix_csv_layout():
    text = csv_text(np.array([[1.0, 0.5], [-2.0, 0.25]]))
    lines = text.split("\r\n")
    assert lines[0] == "1,0.5"
    assert lines[1] == "-2,0.25"
    assert text.endswith("\r\n")


def test_window_guard():
    assert window_guard(64, 3, 3) is None
    with pytest.raises(PreconditionError):
        window_guard(16, 4, 4)


@pytest.mark.parametrize("cls", [CirculantElement, FourierFunction])
def test_window_table_shared_methods(cls):
    rng = make_rng(6, stream=22)
    a = cls(12, 1, 2, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
    # table zero-fills a larger window and truncates a smaller one
    wide = cls(12, 2, 3, a.table(2, 3))
    np.testing.assert_array_equal(wide.table(1, 2), a.coeffs)
    assert not np.any(wide.coeffs[[0, -1]]) and not np.any(wide.coeffs[:, [0, -1]])
    np.testing.assert_array_equal(a.table(0, 1), a.coeffs[1:2, 1:4])
    zero = cls.zero(12, 1, 1)
    assert type(zero) is cls and not np.any(zero.coeffs)
    diff = wide - a
    assert type(diff) is cls and (diff.k1, diff.k2) == (2, 3) and not np.any(diff.coeffs)
    np.testing.assert_array_equal((a - zero).table(1, 2), a.coeffs)



def test_psi_rejects_unknown_convention():
    # hom_defect takes the plain and the symmetric convention, nothing else
    a = CirculantElement.basis(32, 1, 1)
    with pytest.raises(ConfigurationError, match="convention must be"):
        hom_defect(a, a, convention="skew")


def test_real_expansion_to_element_matches_mcheck_sum():
    n = 32
    indices = enumerate_indices(1, 2)
    coeffs = make_rng(8, stream=22).standard_normal(len(indices))
    elem = real_expansion_to_element(n, indices, coeffs)
    assert (elem.k1, elem.k2) == (1, 2)
    np.testing.assert_allclose(
        elem.to_matrix(), band_to_dense(psi_inverse_real(n, indices, coeffs)), atol=1e-12
    )


# the twisted-convolution kernel, property-tested against dense matrices and the
# per-entry loops it replaced

WINDOW = st.integers(0, 3)
KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _random_table(cls, n, k1, k2, seed, stream):
    rng = make_rng(seed, stream=stream)
    shape = (2 * k1 + 1, 2 * k2 + 1)
    return cls(n, k1, k2, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _pair(cls, n, windows, seed):
    k1a, k2a, k1b, k2b = windows
    return _random_table(cls, n, k1a, k2a, seed, 23), _random_table(cls, n, k1b, k2b, seed, 24)


def _loop_defect(a, b, convention):
    """The per-entry double loop that hom_defect's lhs replaced, kept as an oracle."""
    n = a.n
    k1, k2 = a.k1 + b.k1, a.k2 + b.k2
    defect = np.zeros((2 * k1 + 1, 2 * k2 + 1), dtype=complex)
    for j1 in range(-a.k1, a.k1 + 1):
        for j1p in range(-a.k2, a.k2 + 1):
            ca = a.coeffs[j1 + a.k1, j1p + a.k2]
            for j2 in range(-b.k1, b.k1 + 1):
                for j2p in range(-b.k2, b.k2 + 1):
                    cb = b.coeffs[j2 + b.k1, j2p + b.k2]
                    if convention == "plain":
                        twist = lambda_phase(n, j1p * j2) - 1.0
                    else:
                        twist = lambda_phase(n, 0.5 * (j1p * j2 - j1 * j2p)) - 1.0
                    defect[j1 + j2 + k1, j1p + j2p + k2] += ca * cb * twist
    return float(n * np.sum(np.abs(defect) ** 2))


@KERNEL_SETTINGS
@given(n=st.sampled_from([32, 64]), windows=st.tuples(WINDOW, WINDOW, WINDOW, WINDOW), seed=st.integers(0, 2**16))
def test_element_product_matches_dense(n, windows, seed):
    a, b = _pair(CirculantElement, n, windows, seed)
    np.testing.assert_allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix(), rtol=0, atol=1e-11)


@KERNEL_SETTINGS
@given(n=st.sampled_from([32, 64]), windows=st.tuples(WINDOW, WINDOW, WINDOW, WINDOW), seed=st.integers(0, 2**16))
def test_function_product_is_pointwise(n, windows, seed):
    f, g = _pair(FourierFunction, n, windows, seed)
    rng = make_rng(seed, stream=25)
    u, x = rng.uniform(0.0, 1.0, 50), rng.uniform(-math.pi, math.pi, 50)
    np.testing.assert_allclose((f * g).eval(u, x), f.eval(u, x) * g.eval(u, x), rtol=0, atol=1e-11)


@KERNEL_SETTINGS
@given(n=st.sampled_from([32, 64]), k1=WINDOW, k2=WINDOW, seed=st.integers(0, 2**16))
def test_adjoint_is_conjugate_transpose(n, k1, k2, seed):
    a = _random_table(CirculantElement, n, k1, k2, seed, 23)
    np.testing.assert_allclose(_adjoint(a).to_matrix(), a.to_matrix().conj().T, rtol=0, atol=1e-12)


@KERNEL_SETTINGS
@given(n=st.sampled_from([32, 64]), k1=WINDOW, k2=WINDOW, seed=st.integers(0, 2**16))
def test_psi_roundtrip_and_isometry_property(n, k1, k2, seed):
    a = _random_table(CirculantElement, n, k1, k2, seed, 23)
    fn = psi_forward(a)
    np.testing.assert_allclose(psi_inverse(fn).coeffs, a.coeffs, rtol=0, atol=1e-14)
    assert fn.l2n_sq == pytest.approx(a.frob_sq, rel=1e-13)


@KERNEL_SETTINGS
@given(
    n=st.sampled_from([32, 64]),
    windows=st.tuples(WINDOW, WINDOW, WINDOW, WINDOW),
    seed=st.integers(0, 2**16),
    convention=st.sampled_from(["plain", "symmetric"]),
)
def test_hom_defect_matches_loop_oracle(n, windows, seed, convention):
    a, b = _pair(CirculantElement, n, windows, seed)
    lhs, bound = hom_defect(a, b, convention=convention)
    assert lhs == pytest.approx(_loop_defect(a, b, convention), rel=1e-13, abs=0)
    assert lhs <= bound * (1.0 + 1e-12)


def test_twisted_product_accumulates_in_order_of_a():
    # every term lands on the (0, 0) cell; 1 + 1e16 - 1e16 is 0 in this order, 1 in reverse
    f = FourierFunction(16, 1, 0, [[1.0], [1e16], [-1e16]])
    g = FourierFunction(16, 1, 0, [[1.0], [1.0], [1.0]])
    assert (f * g).coeffs[2, 0] == 0.0
    assert (g * f).coeffs[2, 0] == 1.0
