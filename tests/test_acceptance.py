"""Acceptance gate: ten end-to-end criteria, one test (and one line) each.

Each test prints `criterion-NN <name>: PASS` on success; a pytest failure in
this module is the corresponding FAIL line.  Tolerances are pinned next to
each assertion.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from lsequiv._linalg import band_extremes, band_to_dense
from lsequiv.basis_cov import (
    abstract_rho,
    build_basis,
    build_theta,
    build_vartheta,
    presmoothing_residual,
    theta_spectral_check,
)
from lsequiv.circulant import CirculantElement, hom_defect, lambda_phase, window_guard
from lsequiv.cli import main
from lsequiv.cltcheck import (
    build_char_context,
    char_fn_standardized,
    edgeworth_build,
    fourier_tail_integral,
    remainder_bound,
)
from lsequiv.gaussianize import (
    ExperimentState,
    LocalizationConfig,
    build_localized_C,
    gaussian_summaries,
    goe_sample,
    pilot_risk_bound,
    sp_perturbation_check,
)
from lsequiv.harness import (
    RunConfig,
    config_density,
    run_equivalence_chain,
    run_tv_decay,
    whitening_matrix,
)
from lsequiv.rng import make_rng
from lsequiv.spectral import random_density, random_transfer
from lsequiv.whitenoise import goe_connection

from oracles import dense_mats, dense_mchecks


def _element(n, j, j2):
    """Dense dictionary element Lambda^j S^j2."""
    return CirculantElement.basis(n, j, j2).to_matrix()


def test_criterion_01_exact_algebra():
    t0 = time.perf_counter()
    for n in (64, 256):
        window_guard(n, 3, 3)
        basis = build_basis(n, 3, 3)
        assert basis.K == 28

        # cyclic dictionary norms are exactly n
        for j in (0, 1, 3):
            for j2 in (0, 2, 3):
                assert abs(np.linalg.norm(_element(n, j, j2)) ** 2 - n) <= 1e-9

        # raw band norms 2 pi (n - j2), exact up to accumulation
        for k, idx in enumerate(basis.indices):
            raw_sq = np.linalg.norm(basis.raw_norms[k] * basis.mat(k)) ** 2
            assert abs(raw_sq - 2.0 * math.pi * (n - idx.j2)) <= 1e-10 * n

        # both orthonormal stacks have identity Grams
        stack = dense_mats(basis)
        gram = np.einsum("aij,bij->ab", stack, stack)
        assert np.max(np.abs(gram - np.eye(28))) <= 1e-10
        stack = dense_mchecks(basis)
        gram = np.einsum("aij,bij->ab", stack, stack)
        assert np.max(np.abs(gram - np.eye(28))) <= 1e-10

        # multiplication law of the cyclic dictionary, phase included
        rng = make_rng(7, stream=n)
        for _ in range(5):
            a1, a2, b1, b2 = (int(v) for v in rng.integers(0, 4, size=4))
            lhs = _element(n, a1, a2) @ _element(n, b1, b2)
            rhs = lambda_phase(n, b1 * a2) * _element(n, a1 + b1, a2 + b2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

        # pinned multiplicativity defect of the normalized generator
        elem = (1.0 / math.sqrt(n)) * CirculantElement.basis(n, 1, 1)
        defect, bound = hom_defect(elem, elem)
        assert abs(defect - (2.0 - 2.0 * math.cos(2.0 * math.pi / n)) / n) <= 1e-12
        assert defect <= bound

        # drift identity d = Gamma alpha / 2 of the summary experiment
        f = random_density(3, 3, make_rng(n, stream=81), s=11.0, L=5.0, rho_star=0.5)
        theta = build_theta(f, n)
        alpha = basis.project(theta.band)
        _, _, inverse, _, _, extremes = build_localized_C(alpha, np.zeros(basis.K), basis)
        d, _, g_mat = gaussian_summaries(inverse, basis, alpha, extremes[1])
        rel = np.linalg.norm(d - 0.5 * g_mat @ alpha) / np.linalg.norm(d)
        assert rel <= 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion-01 exact-algebra: PASS ({elapsed:.1f}s)")


def test_criterion_02_hom_defect_bound():
    violations = 0
    sizes = (32, 64, 128)
    for seed in range(100):
        rng = make_rng(seed, stream=82)
        n = sizes[seed % 3]
        k1a, k2a, k1b, k2b = (int(v) for v in rng.integers(0, 4, size=4))
        a = CirculantElement(
            n, k1a, k2a,
            rng.standard_normal((2 * k1a + 1, 2 * k2a + 1))
            + 1j * rng.standard_normal((2 * k1a + 1, 2 * k2a + 1)),
        )
        b = CirculantElement(
            n, k1b, k2b,
            rng.standard_normal((2 * k1b + 1, 2 * k2b + 1))
            + 1j * rng.standard_normal((2 * k1b + 1, 2 * k2b + 1)),
        )
        for convention in ("plain", "symmetric"):
            lhs, bound = hom_defect(a, b, convention=convention)
            if lhs > bound * (1.0 + 1e-12):
                violations += 1
    assert violations == 0
    print("criterion-02 hom-defect-bound: PASS (100 pairs, both conventions)")


def test_criterion_03_covariance_window_and_transfer_decay():
    # 20 seeded class members keep every eigenvalue in the widened band
    for seed in range(20):
        f = random_density(2, 2, make_rng(seed, stream=80), s=11.0, L=5.0, rho_star=0.5)
        theta = build_theta(f, 512)
        assert all(c.passed for c in theta_spectral_check(theta, 0.5))
        lo, hi = band_extremes(theta.band)
        assert lo >= math.pi - 0.5 and hi <= 4.0 * math.pi + 0.5

    # finite-order transfer covariances converge to the density covariance
    a = random_transfer(2, 2, make_rng(5, stream=1))
    f = a.to_spectral_density(11.0, 5.0, 0.5)
    gaps = []
    for n in (64, 128, 256, 512):
        gap = np.linalg.norm(band_to_dense(build_vartheta(a, n).band) - band_to_dense(build_theta(f, n).band), 2)
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert gaps[0] == pytest.approx(0.0803566, rel=1e-3)
    assert gaps[3] == pytest.approx(0.0110704, rel=1e-3)
    print(f"criterion-03 covariance-window: PASS (decay {gaps[0]:.4f} -> {gaps[3]:.4f})")


def test_criterion_04_presmoothing_decay():
    t0 = time.perf_counter()
    cfg = RunConfig(n_grid=(128, 256, 512, 1024))
    f = config_density(cfg)
    f.require_membership()
    rels = []
    for n in cfg.n_grid:
        sched = cfg.window(n)
        basis = build_basis(n, sched.k1, sched.k2)
        rels.append(presmoothing_residual(build_theta(f, n), basis))
    assert rels[0] > rels[1] > rels[2] > rels[3]
    assert rels[3] <= 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion-04 presmoothing-decay: PASS ({rels[0]:.3e} -> {rels[3]:.3e}, {elapsed:.1f}s)")


def test_criterion_05_tv_decay_with_quadrature_cross_check():
    header, rows = run_tv_decay(RunConfig(n_grid=(64, 256, 1024, 2048)))
    tvs = [row[header.index("tv")] for row in rows]
    assert tvs[0] > tvs[1] > tvs[2] > tvs[3]
    assert tvs[3] <= 0.05

    # independent oracle: quadrature TV between standardized chi-square and normal
    def chi2_tv(n):
        def gap(x):
            v = math.sqrt(2.0 * n) * x + n
            d = stats.chi2.pdf(v, n) * math.sqrt(2.0 * n) if v > 0 else 0.0
            return abs(d - stats.norm.pdf(x))
        val, _ = integrate.quad(gap, -12.0, 12.0, limit=400)
        return 0.5 * val

    assert abs(tvs[0] - chi2_tv(64)) <= 1e-6
    print(f"criterion-05 tv-decay: PASS ({tvs[0]:.5f} -> {tvs[3]:.5f}, oracle gap {abs(tvs[0]-chi2_tv(64)):.1e})")


EXPANSION_CASES = [(256, (0, 0), 8), (1024, (0, 0), 8), (256, (0, 1), 5), (1024, (0, 1), 5)]


def test_criterion_06_expansion_coefficients_and_remainder():
    for n, window, q in EXPANSION_CASES:
        ctx = build_char_context(np.eye(n), np.eye(n), build_basis(n, *window))
        exp = edgeworth_build(ctx, q)
        for m, coef in exp.nu.items():
            assert abs(coef) <= exp.coefficient_bound(m)
        radius = exp.validity_radius
        rng = make_rng(123, stream=n + q)
        for i in range(50):
            u = rng.standard_normal(ctx.K)
            u /= np.linalg.norm(u)
            t = (0.02 + 0.96 * i / 49.0) * radius * u
            diff = abs(
                complex(char_fn_standardized(t, ctx)) * math.exp(0.5 * float(t @ t))
                - exp.poly_eval(t)
            )
            # 1e-12 absolute floor: cf evaluation noise near zero remainders
            assert diff <= remainder_bound(t, exp) + 1e-12
    print("criterion-06 expansion-bounds: PASS (4 windows, 50 points each)")


def test_criterion_07_tail_integrals():
    n = 1024
    ctx = build_char_context(np.eye(n), np.eye(n), build_basis(n, 0, 0))
    for radius in (5.0, 10.0, 20.0):
        chk = fourier_tail_integral(radius, ctx)
        assert not chk.skipped
        assert chk.lhs <= chk.rhs
    print("criterion-07 tail-integrals: PASS (R = 5, 10, 20)")


def test_criterion_08_pilot_risk():
    # abstract experiment: one-observation quadratic-form estimator at n = 256
    cfg = RunConfig(n_grid=(256,), replicates=500)
    f = config_density(cfg)
    n = 256
    sched = cfg.window(n)
    basis = build_basis(n, sched.k1, sched.k2)
    theta = build_theta(f, n)
    alpha = basis.project(theta.band)
    root = np.linalg.cholesky(band_to_dense(theta.band))
    rng = make_rng(cfg.seed, stream=13_000_000 + n)
    errs = np.empty(cfg.replicates)
    for r in range(cfg.replicates):
        alpha_hat = basis.quad_form(root @ rng.standard_normal(n))
        errs[r] = float(np.sum((alpha_hat - alpha) ** 2))
    mean = float(errs.mean())
    se = float(errs.std(ddof=1) / math.sqrt(len(errs)))
    bound = pilot_risk_bound(basis.K, abstract_rho(cfg.rho_star))
    assert mean + 4.0 * se <= bound

    # sheet experiment: per-window risk stays under the fixed budget, read
    # from the chain's white-noise pilot columns
    header, rows = run_equivalence_chain(RunConfig(n_grid=(256, 1024), replicates=500))
    for row in rows:
        assert row[header.index("risk_pass")] is True
        assert row[header.index("pilot_risk_wn")] / row[header.index("K")] <= 50.0
    print(f"criterion-08 pilot-risk: PASS (abstract {mean:.0f}+4se <= {bound:.0f}; sheet ok)")


def test_criterion_09_ensemble_match():
    # sampler second moments: 5 percent relative at 10^4 draws
    rng = make_rng(1, stream=83)
    draws = np.array([goe_sample(8, rng) for _ in range(10_000)])
    assert draws[:, 0, 0].var() == pytest.approx(2.0, rel=0.05)
    assert draws[:, 1, 1].var() == pytest.approx(2.0, rel=0.05)
    assert draws[:, 0, 1].var() == pytest.approx(1.0, rel=0.05)

    # whitened inverse-difference inequality on 100 seeded SPD pairs
    rng = make_rng(2, stream=84)
    for _ in range(100):
        dim = int(rng.integers(4, 9))
        base = rng.standard_normal((dim, dim))
        a = base @ base.T + dim * np.eye(dim)
        pert = rng.standard_normal((dim, dim))
        sym = pert + pert.T
        b = a + 0.05 * np.linalg.norm(a, 2) * sym / np.linalg.norm(sym, 2)
        chk = sp_perturbation_check(a, b)
        assert chk.passed and not chk.skipped

    # ensemble-shift divergence shrinks along the schedule (fixed noise draw)
    cfg = RunConfig(n_grid=(256, 512, 1024))
    f = config_density(cfg)
    fv = f.on_grid()
    kls = []
    for n in cfg.n_grid:
        sched = cfg.window(n)
        basis = build_basis(n, sched.k1, sched.k2)
        theta = build_theta(f, n)
        loc = LocalizationConfig(beta=sched.beta, gamma=sched.gamma)
        state = ExperimentState.build(
            basis, loc, theta=theta, rng=make_rng(cfg.seed, stream=11_000_000)
        )
        w_dense = whitening_matrix(fv, basis)
        kls.append(goe_connection(state, w_dense, gamma=sched.gamma).kl)
    assert kls[0] > kls[1] > kls[2]
    assert all(0.0 < v < 0.05 for v in kls)
    assert kls[0] / kls[2] > 2.0
    print(f"criterion-09 ensemble-match: PASS (kl {kls[0]:.4f} -> {kls[2]:.4f})")


def test_criterion_10_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--n", "64", "--seed", "0", "--out", str(out1)]) == 0
    assert main(["verify", "--n", "64", "--seed", "0", "--out", str(out2)]) == 0
    v1 = (out1 / "verify_report.csv").read_bytes()
    assert v1 == (out2 / "verify_report.csv").read_bytes()

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(RunConfig(n_grid=(64, 128), seed=3, replicates=25).to_json())
    assert main(["chain", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["chain", "--config", str(cfg_path), "--out", str(out2)]) == 0
    c1 = (out1 / "chain_study.csv").read_bytes()
    assert c1 == (out2 / "chain_study.csv").read_bytes()
    assert len(v1) > 0 and len(c1) > 0
    print("criterion-10 reproducibility: PASS (verify and chain byte-identical)")
