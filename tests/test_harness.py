import importlib.util
import json
import math
import os
import struct
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import lsequiv
import lsequiv._linalg as linalg
import lsequiv.cli as cli
import lsequiv.gaussianize as gaussianize
import lsequiv.harness as harness
from lsequiv._linalg import DENSE_N_MAX, band_cholesky, band_to_dense
from lsequiv.basis_cov import BasisSystem, build_basis, build_theta
from lsequiv.cli import main
from lsequiv.errors import ConfigurationError, PreconditionError, RangeError, SingularMatrixError
from lsequiv.harness import (
    CHAIN_HEADER,
    DEFAULT_BUDGETS,
    RISK_HEADER,
    TV_HEADER,
    RunConfig,
    condition_checker,
    config_density,
    export_basis,
    gaussian_kl,
    pinned_hom_defect,
    run_equivalence_chain,
    run_risk_study,
    run_tv_decay,
    run_verify,
    schedule,
    whitening_matrix,
)
from lsequiv.rng import make_rng
from lsequiv.spectral import GRID_NODES, QuadratureGrid

DIV_PAIRS = []
_rng = make_rng(17, stream=70)
for _ in range(30):
    dim = int(_rng.integers(2, 6))
    m1 = _rng.standard_normal(dim)
    m2 = _rng.standard_normal(dim)
    a = _rng.standard_normal((dim, dim))
    b = _rng.standard_normal((dim, dim))
    DIV_PAIRS.append((m1, a @ a.T + dim * np.eye(dim), m2, b @ b.T + dim * np.eye(dim)))


def test_divergences_identical_vanish():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert gaussian_kl(np.zeros(2), cov, np.zeros(2), cov) == 0.0


def test_divergences_mean_shift_closed_form():
    m = np.array([1.0, -0.5])
    assert gaussian_kl(np.zeros(2), np.eye(2), m, np.eye(2)) == pytest.approx(float(m @ m) / 2.0, rel=1e-12)


def _hellinger_sq(m1, c1, m2, c2):
    """1 - BC, BC the Bhattacharyya coefficient of two Gaussian laws, from slogdet."""
    mid, diff = 0.5 * (c1 + c2), m2 - m1
    ld1, ld2, ldm = (np.linalg.slogdet(a)[1] for a in (c1, c2, mid))
    log_bc = 0.25 * (ld1 + ld2) - 0.5 * ldm - 0.125 * diff @ np.linalg.solve(mid, diff)
    return -math.expm1(log_bc)


@pytest.mark.parametrize("m1,c1,m2,c2", DIV_PAIRS)
def test_hellinger_never_exceeds_kl(m1, c1, m2, c2):
    # KL >= -2 log BC >= 2 (1 - BC)
    kl = gaussian_kl(m1, c1, m2, c2)
    assert 0.0 <= 2.0 * _hellinger_sq(m1, c1, m2, c2) <= kl + 1e-12


def test_tv_upper_dominates_quadrature_tv():
    # Bretagnolle-Huber: TV <= sqrt(1 - exp(-KL)); for this 1-D shifted pair
    # the exact total variation is 2 Phi(1/2) - 1
    kl = gaussian_kl(np.zeros(1), np.eye(1), np.ones(1), np.eye(1))
    assert math.sqrt(-math.expm1(-kl)) >= 0.3829249225480262


def test_divergences_guards():
    with pytest.raises(PreconditionError):
        gaussian_kl(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3))
    with pytest.raises(SingularMatrixError):
        gaussian_kl(np.zeros(2), np.zeros((2, 2)), np.zeros(2), np.eye(2))
    # a non-finite mean or covariance is refused before LAPACK sees it
    with pytest.raises(PreconditionError, match="second mean has a non-finite entry"):
        gaussian_kl(np.zeros(2), np.eye(2), np.array([0.0, np.inf]), np.eye(2))
    with pytest.raises(PreconditionError, match="first covariance has a non-finite entry"):
        gaussian_kl(np.zeros(2), np.diag([1.0, np.nan]), np.zeros(2), np.eye(2))


SCHEDULE_CASES = [
    (64, 6, 8.707075251653993, 9, 5.804716834435996),
    (256, 6, 10.30828169461056, 11, 7.289055888640282),
    (1024, 6, 11.622653565090967, 12, 8.443662057669044),
]


@pytest.mark.parametrize("n,K,gamma,q,r", SCHEDULE_CASES)
def test_schedule_frozen_values(n, K, gamma, q, r):
    s = schedule(n)
    assert (s.k1, s.k2) == (1, 1)
    assert s.K == K
    assert s.gamma == pytest.approx(gamma, rel=1e-12)
    assert s.beta_sq == pytest.approx(gamma, rel=1e-12)
    assert s.beta == pytest.approx(math.sqrt(gamma), rel=1e-12)
    assert s.Q == q
    assert s.R == pytest.approx(r, rel=1e-12)


def test_schedule_window_override():
    s = schedule(1024, 0, 1)
    assert s.K == 2
    assert s.gamma == pytest.approx(2.0 * math.log(math.log(1024.0 + math.e**2)), rel=1e-12)


def test_condition_checker_flags_large_window_budget():
    checks = condition_checker(1024, sched=schedule(1024, 0, 1))
    by_id = {c.check_id: c for c in checks}
    assert sorted(by_id) == sorted(
        ["condition-" + key for key in DEFAULT_BUDGETS] + ["condition-admissible-radius"]
    )
    flagged = by_id["condition-k10-log-over-n"]
    assert not flagged.passed
    assert flagged.lhs == pytest.approx(math.log(1024.0), rel=1e-9)
    assert by_id["condition-admissible-radius"].passed
    assert sum(not c.passed for c in checks) == 1


def test_run_config_defaults_and_roundtrip():
    cfg = RunConfig()
    assert cfg.n_grid == (64, 128, 256)
    assert cfg.density_mean == 0.6
    back = RunConfig.from_json(cfg.to_json())
    assert back == cfg
    assert cfg.window(64) == schedule(64)


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(n_grid=())
    with pytest.raises(ConfigurationError):
        RunConfig(n_grid=(64, 32))
    with pytest.raises(ConfigurationError):
        RunConfig(n_grid=(4, 64))
    with pytest.raises(ConfigurationError):
        RunConfig(replicates=0)
    with pytest.raises(ConfigurationError):
        RunConfig(rho_star=1.5)
    with pytest.raises(ConfigurationError):
        RunConfig.from_json('{"n_grid": [64], "bogus": 1}')
    malformed = [
        {"n_grid": "8888"},
        {"n_grid": [64.7]},
        {"n_grid": [16.0, 32]},
        {"n_grid": [True, 64]},
        {"n_grid": [64, 64]},
        {"n_grid": 64},
        {"replicates": 2.5},
        {"replicates": True},
        {"replicates": "many"},
        {"seed": 1.5},
        {"seed": "0"},
        {"seed": False},
        {"k1": -1},
        {"k1": 1.0},
        {"k2": "1"},
        {"k2": True},
        {"timings": 1},
        {"timings": "yes"},
        {"s": "11"},
        {"L": None},
        {"rho_star": "0.5"},
        {"density_mean": True},
        {"density_amplitude": math.nan},
    ]
    for fields in malformed:
        with pytest.raises(ConfigurationError):
            RunConfig(**fields)
        with pytest.raises(ConfigurationError):
            RunConfig.from_json(json.dumps(fields))
    # lists from JSON are accepted and held as tuples
    assert RunConfig.from_json('{"n_grid": [16, 32], "k1": 0, "k2": null}').n_grid == (16, 32)


def test_config_density_deterministic_and_in_span():
    cfg = RunConfig(n_grid=(32, 64))
    f = config_density(cfg)
    g = config_density(cfg)
    assert f == g
    f.require_membership()
    sched = cfg.window(32)
    assert max(idx.j for idx in f.coeffs) <= sched.k1 and max(idx.j2 for idx in f.coeffs) <= sched.k2
    assert f.mean_level() == pytest.approx(cfg.density_mean, rel=1e-12)


def test_chain_row_past_dense_limit_keeps_band_stages():
    # every chain-row matrix, theta included, is a band: no stage hits the limit
    n = 2 * DENSE_N_MAX
    _, rows = run_equivalence_chain(RunConfig(n_grid=(n,), replicates=2))
    row = dict(zip(CHAIN_HEADER, rows[0]))
    assert row["error"] == ""
    assert row["tv"] is None  # K = 6 > 2: the TV oracle is not defined
    for key in CHAIN_HEADER:
        if key not in ("tv", "error"):
            assert row[key] is not None and math.isfinite(row[key]), key


def test_whitening_matrix_constant_density_is_identity():
    basis = build_basis(32, 1, 1)
    ones = np.ones((GRID_NODES, GRID_NODES // 2 + 1))
    w = whitening_matrix(ones, basis)
    assert w.shape == (basis.k2 + 1, 32)
    np.testing.assert_allclose(band_to_dense(w), np.eye(32), atol=1e-12)


def test_run_verify_passes_and_serializes_stably():
    rep = run_verify(n=32, seed=0)
    assert rep.all_passed
    assert len(rep.entries) == 56
    rep2 = run_verify(n=32, seed=0)
    assert rep.to_json() == rep2.to_json()
    assert rep.to_csv() == rep2.to_csv()
    payload = json.loads(rep.to_json())
    assert payload["schema"] == "lsp-equiv/1"
    assert payload["all_pass"] is True
    assert all(e["pass"] for e in payload["checks"])


def test_run_verify_builds_gamma_once(monkeypatch):
    # Gamma = [int phi_j phi_j' / f_hat^2] is built once, for its min-eig check
    calls = []
    weighted_gram = QuadratureGrid.weighted_gram

    def counted(self, indices, weights):
        calls.append(len(indices))
        return weighted_gram(self, indices, weights)

    monkeypatch.setattr(QuadratureGrid, "weighted_gram", counted)
    assert run_verify(n=32, seed=0).all_passed
    assert calls == [schedule(32).K]


def test_equivalence_chain_row_layout():
    cfg = RunConfig(n_grid=(32, 64), replicates=5)
    header, rows = run_equivalence_chain(cfg)
    assert header == CHAIN_HEADER
    assert len(rows) == 2
    for row, n in zip(rows, (32, 64)):
        assert row[0] == n
        assert row[3] == 6
        assert row[-1] == ""  # no stage errors at these sizes
    # decreasing presmoothing residual along the grid
    assert rows[0][5] > rows[1][5]


def test_equivalence_chain_records_stage_errors():
    header, rows = run_equivalence_chain(RunConfig(n_grid=(8,), k1=0, k2=1, replicates=5))
    row = rows[0]
    assert row[header.index("tv")] is None
    assert row[-1] == "tv:RangeError"


def test_tv_decay_defaults_to_scalar_window():
    header, rows = run_tv_decay(RunConfig(n_grid=(16, 32)))
    assert header == TV_HEADER
    assert [r[0] for r in rows] == [16, 32]
    for row in rows:
        assert row[1] == 1
        assert row[2] == pytest.approx(1.0 / math.sqrt(2.0 * row[0]), rel=1e-12)
        assert row[5] is None  # runtimes stay off without the timings flag
    assert rows[0][3] > rows[1][3]


def test_tv_decay_k2_forms_no_n_by_n_array(monkeypatch, traced_peak):
    # the closed-form context: no eigensolve of size n, dense or banded (every
    # LAPACK call of the package goes through _linalg._lapack), and a traced
    # peak below one n x n float64 array
    n, sizes = 4096, []

    def counted(fn):
        return lambda a, *args, **kwargs: sizes.append(np.shape(a)[-1]) or fn(a, *args, **kwargs)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    lapack = linalg._lapack

    def counted_lapack(routine, *args, **kwargs):
        if routine in ("dsbevx", "dsbevd"):
            sizes.append(np.shape(args[0])[-1])
        return lapack(routine, *args, **kwargs)

    monkeypatch.setattr(linalg, "_lapack", counted_lapack)
    out = []
    peak = traced_peak(lambda: out.extend(run_tv_decay(RunConfig(n_grid=(n,), k1=0, k2=1))))
    header, rows = out
    assert max(sizes) <= 2  # the K x K Gamma_theta only
    assert peak < 8 * n * n
    row = dict(zip(header, rows[0]))
    assert row["K"] == 2 and row["tail_bound_used"] <= 1e-8 and 0.0 < row["tv"] < 0.02


def test_tv_decay_edgeworth_gap_falls_as_n_to_the_minus_three_halves():
    # |tv - TV_1| = O(n^{-3/2}): the next Edgeworth term is even, sign(He_3) odd
    ns = (64, 256, 1024, 4096)
    header, rows = run_tv_decay(RunConfig(n_grid=ns))
    gaps = [row[header.index("edgeworth_gap")] for row in rows]
    slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
    assert abs(slope + 1.5) <= 0.1
    assert all(row[header.index("tail_bound_used")] <= 1e-8 for row in rows)


def test_tv_decay_rejects_wide_window():
    with pytest.raises(ConfigurationError):
        run_tv_decay(RunConfig(n_grid=(64,), k1=1, k2=0))


def test_risk_study_row_layout():
    header, rows = run_risk_study(RunConfig(n_grid=(16,), replicates=5))
    assert header == RISK_HEADER
    assert rows[0][:4] == [16, 6, 4, 5]
    assert rows[0][6] == (rows[0][4] <= rows[0][5])


def test_export_basis_csv_and_binary(tmp_path):
    out = tmp_path / "csvdump"
    manifest = export_basis(16, 0, 1, str(out), fmt="csv")
    assert manifest["n"] == 16
    assert manifest["count"] == 2  # window size; each index ships both families
    assert len(manifest["files"]) == 4
    names = {f["file"] for f in manifest["files"]}
    assert (out / "manifest.json").exists()
    for name in names:
        assert (out / name).exists()
    kinds = {f["kind"] for f in manifest["files"]}
    assert kinds == {"m", "mcheck"}

    out2 = tmp_path / "bindump"
    manifest2 = export_basis(16, 0, 1, str(out2), fmt="binary")
    basis = build_basis(16, 0, 1)
    entry = next(f for f in manifest2["files"] if f["kind"] == "m" and f["k"] == 0)
    raw = (out2 / entry["file"]).read_bytes()
    (n,) = struct.unpack("<Q", raw[:8])
    assert n == 16
    mat = np.frombuffer(raw[8:], dtype="<f8").reshape(16, 16)
    np.testing.assert_allclose(mat, basis.mats[0], atol=0)


# CLI behavior, exercised in process through the argv entry point


def test_cli_verify_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--n", "32", "--out", str(out1)]) == 0
    assert main(["verify", "--n", "32", "--out", str(out2)]) == 0
    assert (out1 / "verify_report.csv").read_bytes() == (out2 / "verify_report.csv").read_bytes()
    assert main(["verify", "--n", "32", "--format", "json", "--out", str(out1)]) == 0
    assert json.loads((out1 / "verify_report.json").read_text())["all_pass"] is True


def test_cli_verify_summary_names_the_tightest_relative_margin(tmp_path, capsys):
    # margin / max(|rhs| + tol, tiny) over the checks that were not skipped,
    # recomputed from the report file: the tightest two, in order
    assert main(["verify", "--n", "32", "--out", str(tmp_path)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    lines = (tmp_path / "verify_report.csv").read_text().splitlines()
    cols = lines[0].split(",")
    rows = [dict(zip(cols, row.split(","))) for row in lines[1:]]
    tiny = sys.float_info.min
    rel = {
        r["check_id"]: float(r["margin"]) / max(abs(float(r["rhs"])) + float(r["tol"]), tiny)
        for r in rows
        if r["skipped"] == "false"
    }
    tight, second = sorted(rel, key=rel.get)[:2]
    head = f"verify: {len(rows)}/{len(rows)} checks passed, tightest {tight} at "
    assert line.startswith(head)
    value, rest = line[len(head) :].split(f", then {second} at ")
    assert float(value) == pytest.approx(rel[tight], rel=5e-3)
    assert float(rest.split(" ->")[0]) == pytest.approx(rel[second], rel=5e-3)


def test_cli_chain_with_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(RunConfig(n_grid=(32, 64), replicates=5).to_json())
    assert main(["chain", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "chain_study.csv").read_text()
    assert text.splitlines()[0] == ",".join(CHAIN_HEADER)


def test_cli_chain_exit_on_stage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(RunConfig(n_grid=(8,), k1=0, k2=1, replicates=5).to_json())
    assert main(["chain", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


def test_cli_tvdecay_and_riskstudy(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(RunConfig(n_grid=(16, 32), replicates=5).to_json())
    assert main(["tvdecay", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "tv_decay.csv").exists()
    risk_cfg = tmp_path / "risk.json"
    risk_cfg.write_text(RunConfig(n_grid=(16,), replicates=5).to_json())
    assert main(["riskstudy", "--config", str(risk_cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "risk_study.csv").exists()


def test_cli_conditions_flags_at_desk_scale(capsys):
    assert main(["conditions", "--n", "64"]) == 1
    out = capsys.readouterr().out
    assert "condition-k10-log-over-n" in out
    assert "FLAG" in out


def test_cli_export_basis(tmp_path):
    assert main(["export-basis", "--n", "16", "--k1", "0", "--k2", "1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "manifest.json").exists()


def test_cli_bad_config_returns_one(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"bogus": true}')
    assert main(["chain", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


def test_cli_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--timings"],
        ["riskstudy", "--timings"],
        ["conditions", "--timings"],
        ["export-basis", "--timings"],
        ["conditions", "--seed", "0"],
        ["conditions", "--out", "x"],
        ["conditions", "--format", "csv"],
        ["export-basis", "--seed", "0"],
    ],
)
def test_cli_rejects_flags_a_subcommand_ignores(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_timings_on_verify_and_tvdecay(tmp_path):
    assert main(["verify", "--n", "32", "--timings", "--out", str(tmp_path)]) == 0
    header = (tmp_path / "verify_report.csv").read_text().splitlines()[0]
    assert header.endswith(",runtime_ms")
    assert main(["tvdecay", "--n", "16", "--timings", "--out", str(tmp_path)]) == 0
    row = (tmp_path / "tv_decay.csv").read_text().splitlines()[1]
    assert float(row.split(",")[TV_HEADER.index("runtime_ms")]) > 0.0


def test_config_rejects_tolerances_key():
    with pytest.raises(ConfigurationError, match="unknown config keys: \\['tolerances'\\]"):
        RunConfig.from_json('{"tolerances": {}}')


def _fresh_interpreter(code):
    """stdout of code run by a fresh interpreter with this package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lsequiv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return out.stdout


# what every CLI run does before its command: the set-up a benchmark times
SETUP = "import sys, lsequiv.cli; from lsequiv.spectral import default_grid; default_grid(); "


def _modules_after_cli_import():
    return _fresh_interpreter(SETUP + "print('\\n'.join(sys.modules))").split()


def test_cli_import_loads_only_the_lapack_extension_of_scipy():
    # the scipy package (scipy.stats, .integrate, .optimize, .interpolate,
    # .fft, .special and scipy.linalg itself) would double every CLI
    # start-up; _linalg loads the one extension module it calls
    modules = _modules_after_cli_import()
    assert [m for m in modules if m.split(".")[0] == "scipy"] == ["scipy.linalg._flapack"]
    assert "numpy.random" in modules


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats costs about half a second of every CLI start-up
    assert [m for m in _modules_after_cli_import() if m.startswith("scipy.stats")] == []


def test_cli_import_leaves_integrate_optimize_interpolate_unloaded():
    # the tail integrals and the TV oracle's spline need none of them; together
    # they cost about a quarter second of every CLI start-up
    heavy = {"scipy.integrate", "scipy.optimize", "scipy.interpolate"}
    loaded = [m for m in _modules_after_cli_import() if ".".join(m.split(".")[:2]) in heavy]
    assert loaded == []


def test_cli_import_leaves_scipy_fft_unloaded():
    # both TV oracles sum on a frequency lattice by matrix products; no FFT
    assert [m for m in _modules_after_cli_import() if m.split(".")[:2] == ["scipy", "fft"]] == []


def test_lapack_routines_are_the_ones_scipy_exports():
    # loaded before scipy, the extension is the module scipy.linalg.lapack
    # then uses; a scipy that moved it would fail here, not in a wrong answer
    names = ("dpbtrf", "dpbtrs", "dsbevx", "dsbevd", "dpotrs", "dlamch")
    code = (
        "import lsequiv._linalg as linalg; import scipy.linalg.lapack as lapack; "
        "print(lapack._flapack is linalg._flapack, "
        f"*(getattr(lapack, f) is getattr(linalg._flapack, f) for f in {names!r}))"
    )
    assert _fresh_interpreter(code).split() == ["True"] * (1 + len(names))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "64"],
        ["chain", "--n", "64"],
        ["tvdecay", "--config", "{tv_k2}", "--n", "64"],
        ["tvdecay", "--n", "64"],
        ["riskstudy", "--n", "64"],
    ],
    ids=["verify", "chain", "tvdecay-k2", "tvdecay", "riskstudy"],
)
def test_commands_import_nothing_after_setup(argv, tmp_path):
    # a module a command loads on first use is paid inside its timed run; the
    # last line printed is the exit code and the modules the command added.
    # A plain np.unique loads numpy.ma on its first call (about 15 ms):
    # riskstudy runs pilot_risk_row and the default tvdecay (K = 1) calls
    # np.unique with counts
    config = tmp_path / "tv-k2.json"
    config.write_text(json.dumps({"k1": 0, "k2": 1}))
    argv = [a.format(tv_k2=config) for a in argv] + ["--out", str(tmp_path)]
    code = SETUP + (
        "before = set(sys.modules); code = lsequiv.cli.main(" + repr(argv) + "); "
        "print(code, *sorted(set(sys.modules) - before))"
    )
    assert _fresh_interpreter(code).splitlines()[-1].split() == ["0"]


def test_benchmark_tracer_resolves_every_target():
    # the benchmark's tracer wraps these names by attribute; one deleted from
    # the package would fail every traced run.  The module is only loaded.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import lsequiv.cli  # noqa: F401  (the drivers' modules, as a traced run loads them)

    paths = {path for _, _, path, _ in tracer.TARGETS}
    assert {"build_char_context", "RadialProfile.__init__", "invert_cf_1d", "QuadratureGrid.inner", "_stage"} <= paths
    for name, module, path, _ in tracer.TARGETS:
        bindings = tracer._bindings(module, path)
        assert bindings, name
        for owner, attr in bindings:
            assert callable(vars(owner)[attr]) or isinstance(vars(owner)[attr], classmethod), (name, attr)


def test_chain_propagates_untyped_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("shape bug")

    monkeypatch.setattr(harness, "pilot_risk_row", broken)
    with pytest.raises(ValueError, match="shape bug"):
        run_equivalence_chain(RunConfig(n_grid=(8,), k1=0, k2=1, replicates=5))

    def typed(*args, **kwargs):
        raise RangeError("out of range")

    monkeypatch.setattr(harness, "pilot_risk_row", typed)
    header, rows = run_equivalence_chain(RunConfig(n_grid=(8,), k1=0, k2=1, replicates=5))
    assert rows[0][-1] == "tv:RangeError;pilot-wn:RangeError"


def test_chain_builds_no_dense_stack(monkeypatch):
    def forbidden(self):
        raise AssertionError("dense basis stack built")

    monkeypatch.setattr(BasisSystem, "mats", property(forbidden))
    monkeypatch.setattr(BasisSystem, "mcheck", property(forbidden))
    header, rows = run_equivalence_chain(RunConfig(n_grid=(64,), replicates=5))
    assert rows[0][header.index("K")] == 6
    assert rows[0][-1] == ""
    assert rows[0][header.index("goe_kl")] is not None


def test_verify_builds_no_dense_stack(monkeypatch, traced_peak, linalg_calls):
    # the Gram identities come from the band profiles, the affinity draws and
    # the tail radii in blocks: verify at n = 256 holds no (K, n, n) array
    def forbidden(self):
        raise AssertionError("dense basis stack built")

    monkeypatch.setattr(BasisSystem, "mats", property(forbidden))
    monkeypatch.setattr(BasisSystem, "mcheck", property(forbidden))
    # its one n x n array is B: every spectrum, draw and solve of a covariance
    # comes from band storage.  random_density's 256-node Gauss-Legendre
    # sample took an eigvalsh of that size when spectral was imported.
    eig_calls = linalg_calls("eigh", "eigvalsh")
    dense_callers = []
    real = linalg.band_to_dense

    def logged(ab):
        dense_callers.append(sys._getframe(1).f_code.co_name)
        return real(ab)

    for name, module in list(sys.modules.items()):
        if name.startswith("lsequiv") and getattr(module, "band_to_dense", None) is real:
            monkeypatch.setattr(module, "band_to_dense", logged)
    report = run_verify(n=256)
    assert report.all_passed and len(report.entries) == 56
    assert [shape for _, shape in eig_calls if shape[-2:] == (256, 256)] == []
    assert dense_callers == ["_loglik_differences"]
    # 4.36 MB measured, at the GOE sampler check and the localized drift; a
    # 15 % margin
    assert traced_peak(lambda: run_verify(n=256)) <= 5e6


def test_pinned_hom_defect_reference_does_not_cancel():
    # 4 sin^2(pi / n) / n against 40 digits at n = 2^18, where the cosine
    # form 2 (1 - cos(2 pi / n)) / n is 1.6e-7 relative off
    n = 2**18
    with mpmath.workdps(40):
        want = 4 * mpmath.sin(mpmath.pi / n) ** 2 / n
        assert abs(mpmath.mpf(pinned_hom_defect(n)) / want - 1) <= 1e-15
        cosine_form = (2.0 - 2.0 * math.cos(2.0 * math.pi / n)) / n
        assert abs(mpmath.mpf(cosine_form) / want - 1) > 1e-8


def test_verify_timings_only_add_runtimes():
    plain = run_verify(n=32)
    timed = run_verify(n=32, timings=True)
    assert all(e.runtime_ms is None for e in plain.entries)
    assert all(e.runtime_ms is not None and e.runtime_ms >= 0.0 for e in timed.entries)
    assert timed.to_csv() == plain.to_csv()


def test_cli_malformed_config_returns_one(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    # a seed outside [0, 2^64) would wrap onto another seed's stream
    for text in (
        "{",
        "[64, 128]",
        '{"n_grid": 64}',
        '{"replicates": "many"}',
        '{"seed": -1}',
        '{"seed": 18446744073709551616}',
    ):
        cfg_path.write_text(text)
        assert main(["chain", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["riskstudy", "--config", "{cfg}", "--out", "{out}"],
        ["chain", "--config", "{cfg}", "--out", "{out}"],
        ["chain", "--n", "64", "64", "--out", "{out}"],
    ],
    ids=["riskstudy-fractional-replicates", "chain-fractional-replicates", "repeated-n"],
)
def test_cli_malformed_values_exit_one_with_one_line(argv, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"n_grid": [16], "replicates": 2.5}')
    argv = [a.format(cfg=cfg_path, out=tmp_path / "out") for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigurationError:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_untyped_error_propagates(tmp_path, monkeypatch):
    # only typed errors become exit 1; anything else is a bug and keeps its traceback
    def broken(cfg):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "run_equivalence_chain", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["chain", "--n", "16", "--out", str(tmp_path)])


def _run_cli_with_threads(out_dir, threads):
    src = os.path.dirname(os.path.dirname(os.path.abspath(lsequiv.__file__)))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
    )
    script = (
        "import sys; from lsequiv.cli import main; out = sys.argv[1]; "
        "main(['verify', '--n', '128', '--seed', '0', '--out', out]); "
        "main(['chain', '--n', '64', '256', '--seed', '0', '--out', out])"
    )
    subprocess.run([sys.executable, "-c", script, str(out_dir)], env=env, check=True, capture_output=True)


def test_cli_outputs_agree_across_blas_thread_counts(tmp_path):
    # the README contract: text cells equal, numbers within 1e-12 relative + 1e-14 absolute
    one, two = tmp_path / "t1", tmp_path / "t2"
    _run_cli_with_threads(one, 1)
    _run_cli_with_threads(two, 2)
    for name in ("verify_report.csv", "chain_study.csv"):
        rows1 = (one / name).read_text().splitlines()
        rows2 = (two / name).read_text().splitlines()
        assert len(rows1) == len(rows2) > 1
        for line1, line2 in zip(rows1, rows2):
            cells1, cells2 = line1.split(","), line2.split(",")
            assert len(cells1) == len(cells2)
            for a, b in zip(cells1, cells2):
                if a == b:
                    continue
                try:
                    x, y = float(a), float(b)
                except ValueError:
                    pytest.fail(f"{name}: text cell {a!r} != {b!r}")
                assert abs(x - y) <= 1e-12 * max(abs(x), abs(y)) + 1e-14, (name, line1, line2)


def test_abstract_pilot_risk_block_draws_match_per_replicate_loop():
    # banded-factor draws from one (replicates, n) normal block against
    # dense-Cholesky draws, one per replicate
    n, reps = 256, 100
    basis = build_basis(n, 1, 1)
    cov = build_theta(config_density(RunConfig(n_grid=(n,))), n)
    theta = band_to_dense(cov.band)
    alpha = basis.project(cov.band)
    got = harness._abstract_pilot_risk(cov.band, alpha, basis, reps, make_rng(0, stream=13_000_256))
    rng = make_rng(0, stream=13_000_256)
    chol = np.linalg.cholesky(theta)
    total = 0.0
    for _ in range(reps):
        x = chol @ rng.standard_normal(n)
        total += float(np.sum((basis.quad_form(x) - alpha) ** 2))
    assert abs(got - total / reps) <= 1e-12 * (total / reps)


def test_abstract_pilot_risk_row_blocks_match_one_block():
    # at n = 1024 the 100 replicates take two row blocks (64 + 36); the oracle
    # is the single-block formula, one (replicates, n) draw and one quad_form
    n, reps = 1024, 100
    basis = build_basis(n, 1, 1)
    cov = build_theta(config_density(RunConfig(n_grid=(n,))), n)
    alpha = basis.project(cov.band)
    assert gaussianize._DRAW_BLOCK // n < reps
    got = harness._abstract_pilot_risk(cov.band, alpha, basis, reps, make_rng(0, stream=1024))
    factor = band_cholesky(cov.band)
    z = make_rng(0, stream=1024).standard_normal((reps, n))
    xs = z * factor[0]
    for j in range(1, len(factor)):
        xs[:, j:] += z[:, : n - j] * factor[j, : n - j]
    want = float(np.sum((basis.quad_form(xs) - alpha) ** 2)) / reps
    assert abs(got - want) <= 1e-10 * want
