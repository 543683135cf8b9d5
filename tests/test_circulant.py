import math

import numpy as np
import pytest

from lsequiv.circulant import (
    CirculantElement,
    FourierFunction,
    PsiMap,
    build_mcheck_basis,
    cm,
    fourier_vector,
    hom_defect,
    lambda_phase,
    matrix_csv,
    mcheck_element,
    mcheck_via_psi,
    psi_forward,
    psi_inverse,
    psi_inverse_real,
    real_function_table,
    shift_permutation,
    window_guard,
)
from lsequiv.errors import PreconditionError, RangeError
from lsequiv.rng import make_rng
from lsequiv.spectral import BasisIndex, enumerate_indices

RNG = make_rng(7, stream=20)
PRODUCT_QUADS = [tuple(int(v) for v in RNG.integers(0, 4, size=4)) for _ in range(12)]
HOM_SEEDS = list(range(8))


def test_cm_small_literal():
    # one nonzero per row: row i carries exp(2*pi*i*j*i/n) at column (i + j2) mod n
    got = cm(4, 1, 1)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        expected[i, (i + 1) % 4] = np.exp(2j * np.pi * i / 4.0)
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_cm_frobenius_exact():
    for n in (8, 64):
        for j, j2 in ((0, 0), (1, 2), (3, 3)):
            assert np.linalg.norm(cm(n, j, j2)) ** 2 == pytest.approx(n, rel=0, abs=1e-11)


def test_shift_permutation_matches_cm():
    n = 6
    np.testing.assert_allclose(shift_permutation(n), cm(n, 0, 1).real, atol=0)


def test_fourier_vector_unit_rows():
    v = fourier_vector(8, 3)
    np.testing.assert_allclose(np.abs(v), np.ones(8), atol=1e-15)
    assert v[1] == pytest.approx(np.exp(2j * np.pi * 3 / 8.0), abs=1e-15)


@pytest.mark.parametrize("a1,a2,b1,b2", PRODUCT_QUADS)
def test_cm_product_law(a1, a2, b1, b2):
    # matrix product shifts by the second window and picks up one phase twist
    n = 16
    lhs = cm(n, a1, a2) @ cm(n, b1, b2)
    rhs = lambda_phase(n, b1 * a2) * cm(n, a1 + b1, a2 + b2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_element_roundtrip_and_algebra():
    rng = make_rng(3, stream=21)
    n, k1, k2 = 12, 2, 2
    coeffs = rng.standard_normal((2 * k1 + 1, 2 * k2 + 1)) + 1j * rng.standard_normal((2 * k1 + 1, 2 * k2 + 1))
    a = CirculantElement(n, k1, k2, coeffs)
    back = CirculantElement.from_matrix(a.to_matrix(), k1, k2)
    np.testing.assert_allclose(back.coeffs, a.coeffs, atol=1e-13)
    np.testing.assert_allclose((2.0 * a).to_matrix(), 2.0 * a.to_matrix(), atol=1e-13)
    b = CirculantElement.basis(n, 1, 0)
    np.testing.assert_allclose((a + b).to_matrix(), a.to_matrix() + b.to_matrix(), atol=1e-13)
    np.testing.assert_allclose(a.adjoint().to_matrix(), a.to_matrix().conj().T, atol=1e-13)
    assert a.frob_sq == pytest.approx(np.linalg.norm(a.to_matrix()) ** 2, rel=1e-12)


def test_element_inner_matches_dense():
    rng = make_rng(4, stream=21)
    n = 10
    a = CirculantElement(n, 1, 1, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    b = CirculantElement(n, 1, 1, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    dense = np.trace(a.to_matrix() @ b.to_matrix().conj().T)
    assert a.inner(b) == pytest.approx(complex(dense), rel=1e-12)


@pytest.mark.parametrize("convention", ["plain", "symmetric"])
def test_psi_roundtrip_and_isometry(convention):
    rng = make_rng(5, stream=21)
    n, k1, k2 = 16, 2, 1
    a = CirculantElement(n, k1, k2, rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    fn = psi_forward(a, convention=convention)
    assert fn.l2n_sq == pytest.approx(a.frob_sq, rel=1e-12)
    back = psi_inverse(fn, convention=convention)
    np.testing.assert_allclose(back.coeffs, a.coeffs, atol=1e-12)
    pm = PsiMap(n, k1, k2, convention=convention)
    np.testing.assert_allclose(pm.inverse(pm.forward(a)).coeffs, a.coeffs, atol=1e-12)


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


MCHECK_INDICES = enumerate_indices(2, 2)


@pytest.mark.parametrize("pos", range(len(MCHECK_INDICES)))
def test_mcheck_element_symmetric_with_exact_norm(pos):
    n = 32
    m = mcheck_element(n, MCHECK_INDICES[pos])
    assert m.dtype == np.float64
    np.testing.assert_allclose(m, m.T, atol=0)
    assert np.linalg.norm(m) ** 2 == pytest.approx(n / (2.0 * math.pi), rel=1e-13)


def test_mcheck_via_psi_matches_direct():
    n = 24
    for idx in (BasisIndex("+", 1, 2), BasisIndex("-", 2, 0)):
        np.testing.assert_allclose(mcheck_via_psi(n, idx), mcheck_element(n, idx), atol=1e-12)


def test_mcheck_stack_orthonormal():
    n, k1, k2 = 64, 1, 1
    stack = build_mcheck_basis(n, k1, k2)
    assert stack.shape == (6, n, n)
    gram = np.einsum("aij,bij->ab", stack, stack)
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)


def test_real_function_table_matches_symmetric_psi():
    n, idx = 16, BasisIndex("+", 1, 1)
    elem = CirculantElement.from_matrix(mcheck_element(n, idx), 1, 1)
    fn = psi_forward(elem, convention="symmetric")
    tab = real_function_table(n, idx)
    np.testing.assert_allclose(fn.coeffs, tab.coeffs, atol=1e-13)
    assert tab.l2n_sq == pytest.approx(n / (2.0 * math.pi), rel=1e-12)


def test_psi_inverse_real_constant_density_gives_identity():
    n = 20
    w = psi_inverse_real(n, {BasisIndex("+", 0, 0): math.sqrt(2.0 * math.pi)})
    np.testing.assert_allclose(w, np.eye(n), atol=1e-12)


def test_psi_inverse_real_single_mode():
    n = 20
    idx = BasisIndex("-", 1, 1)
    got = psi_inverse_real(n, {idx: 2.5})
    np.testing.assert_allclose(got, 2.5 * mcheck_element(n, idx), atol=1e-12)


def test_matrix_csv_layout():
    text = matrix_csv(np.array([[1.0, 0.5], [-2.0, 0.25]]))
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
    padded = a.pad(2, 3)
    assert type(padded) is cls
    assert (padded.k1, padded.k2) == (2, 3)
    for j in range(-2, 3):
        for j2 in range(-3, 4):
            assert padded.coeff(j, j2) == a.coeff(j, j2)
    assert a.coeff(2, 0) == 0.0
    with pytest.raises(RangeError):
        a.pad(0, 2)
    zero = cls.zero(12, 1, 1)
    assert type(zero) is cls and not np.any(zero.coeffs)
    total = a + padded
    assert type(total) is cls and type(a - zero) is cls
    np.testing.assert_array_equal(total.table(1, 2), 2.0 * a.coeffs)
    np.testing.assert_array_equal((total - a).table(1, 2), a.coeffs)
    assert not np.any((a - padded).coeffs)


def test_psi_inverse_accepts_oversize_container_only_with_fitting_support():
    fn = FourierFunction.zero(16, 3, 1)
    fn.coeffs[3 + 1, 1 + 1] = 2.0 - 1.0j  # (j, j2) = (1, 1)
    elem = PsiMap(16, 1, 2).inverse(fn)
    assert (elem.k1, elem.k2) == (1, 2)
    assert elem.coeff(1, 1) == 2.0 - 1.0j
    assert np.count_nonzero(elem.coeffs) == 1
    fn.coeffs[0, 1] = 1.0  # (j, j2) = (-3, 0) lies outside the map window
    with pytest.raises(RangeError):
        PsiMap(16, 1, 2).inverse(fn)
