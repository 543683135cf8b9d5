"""Tests of the benchmark's own logic: span arithmetic, statistics, the gate.

Run with ``python3 -m pytest perfbench/tests``.
"""

import math
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 5.0, 6.5, 0),
        (3, "leaf", 2.0, 3.0, 1),
    ]
    self_s = tracer.self_times(spans)
    assert self_s[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert self_s[1] == pytest.approx(3.0 - 1.0)
    assert self_s[2] == pytest.approx(1.5)
    assert self_s[3] == pytest.approx(1.0)
    # self times of a tree add up to the root's duration
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 3.0, 6.0, 0),
        (3, "c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_inclusive_time_skips_same_name_nesting():
    spans = [
        (0, "f", 0.0, 4.0, None),
        (1, "f", 1.0, 2.0, 0),
        (2, "g", 2.0, 3.0, 0),
        (3, "f", 5.0, 6.0, None),
    ]
    totals = tracer.inclusive_times(spans)
    assert totals["f"] == pytest.approx(5.0)
    assert totals["g"] == pytest.approx(1.0)
    by_name = tracer.self_time_by_name(spans)
    assert by_name["f"] == pytest.approx(2.0 + 1.0 + 1.0)


def test_coverage_excludes_driver_spans():
    driver = tracer.DRIVERS[0]
    spans = [
        (0, driver, 0.0, 10.0, None),
        (1, "a", 1.0, 5.0, 0),
        (2, "b", 4.0, 8.0, 0),
    ]
    assert tracer.coverage(spans, 10.0) == pytest.approx(0.7)


def test_tracer_restores_every_binding_and_records_spans():
    from lsequiv import basis_cov, harness
    import numpy as np

    originals = (basis_cov.build_basis, harness.build_basis, np.linalg.eigh)
    t = tracer.Tracer("spans", run_id="test")
    assert t.install() > len(tracer.TARGETS)
    assert harness.build_basis is not originals[1]
    basis = harness.build_basis(8, 0, 0)
    np.linalg.eigh(np.eye(4))
    assert t.restore() == []
    assert (basis_cov.build_basis, harness.build_basis, np.linalg.eigh) == originals
    snap = t.snapshot()
    names = [s[1] for s in snap["spans"]]
    assert "basis_cov.build_basis" in names
    assert snap["counts"]["linalg.dense_eig"] == 1
    assert snap["work"]["linalg.dense_eig"] == 4**3
    assert basis.n == 8


def test_matrix_work_counts_stacked_matrices():
    import numpy as np

    assert tracer._matrix_work(np.zeros((3, 5, 5))) == 3 * 125
    assert tracer._matrix_work(np.zeros(4)) == 0


# ---------------------------------------------------------------------------
# statistics


def test_summary_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    s = run.summary(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert (s["q1"], s["median"], s["q3"], s["count"]) == (q1, med, q3, 6)
    assert s["median"] == 3.5


def test_summary_of_one_sample():
    assert run.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "count": 1}


# ---------------------------------------------------------------------------
# correctness gate


def _chain_reference():
    return gate.reference_rows("chain-dense")


def _copy(rows):
    return [dict(r) for r in rows]


def test_reference_passes_its_own_gate():
    for workload in gate.SPECS:
        ref = gate.reference_rows(workload)
        res = gate.check_rows(workload, _copy(ref), ref, gate.REFERENCE_SEED)
        assert res.failed == 0, res.reasons
        assert res.attempted == len(ref)


def test_row_perturbed_past_tolerance_fails():
    ref = _chain_reference()
    rows = _copy(ref)
    kind, tol = gate.CHAIN.at_reference["presmooth_rel"]
    assert kind == "rel"
    rows[1]["presmooth_rel"] = repr(float(ref[1]["presmooth_rel"]) * (1.0 + 10 * tol))
    res = gate.check_rows("chain-dense", rows, ref, gate.REFERENCE_SEED)
    assert (res.attempted, res.failed) == (2, 1)
    assert "presmooth_rel" in res.reasons[0]


def test_row_perturbed_within_tolerance_passes():
    ref = _chain_reference()
    rows = _copy(ref)
    _, tol = gate.CHAIN.at_reference["pilot_risk_wn"]
    rows[0]["pilot_risk_wn"] = repr(float(ref[0]["pilot_risk_wn"]) * (1.0 + tol / 10))
    assert gate.check_rows("chain-dense", rows, ref, gate.REFERENCE_SEED).failed == 0


def test_draw_dependent_column_is_not_compared():
    ref = _chain_reference()
    rows = _copy(ref)
    for col in ("summary_kl", "pilot_risk_abstract", "goe_kl"):
        rows[0][col] = repr(float(ref[0][col]) * 3.0 + 1.0)
    assert gate.check_rows("chain-dense", rows, ref, gate.REFERENCE_SEED).failed == 0
    rows[0]["goe_kl"] = "-0.5"
    res = gate.check_rows("chain-dense", rows, ref, gate.REFERENCE_SEED)
    assert res.failed == 1 and "goe_kl" in res.reasons[0]


def test_other_seeds_skip_reference_but_keep_invariants():
    ref = _chain_reference()
    rows = _copy(ref)
    rows[0]["presmooth_rel"] = repr(float(ref[0]["presmooth_rel"]) * 2.0)
    res = gate.check_rows("chain-dense", rows, ref, gate.REFERENCE_SEED + 1)
    assert res.failed == 0
    assert not any(a.startswith("reference at seed") for a in res.applied)
    rows[1]["summary_kl"] = "nan"
    rows[0]["K"] = "7"
    res = gate.check_rows("chain-dense", rows, ref, gate.REFERENCE_SEED + 1)
    assert res.failed == 2


def test_error_tag_and_missing_row_fail():
    ref = _chain_reference()
    rows = _copy(ref)
    rows[0]["error"] = "localize:SingularMatrixError"
    res = gate.check_rows("chain-dense", rows[:1], ref, gate.REFERENCE_SEED)
    assert (res.attempted, res.failed) == (2, 2)


def test_tv_tolerance_is_absolute():
    ref = gate.reference_rows("tv-k2")
    rows = _copy(ref)
    _, tol = gate.TV.at_reference["tv"]
    rows[0]["tv"] = repr(float(ref[0]["tv"]) + tol / 2)
    assert gate.check_rows("tv-k2", rows, ref, gate.REFERENCE_SEED).failed == 0
    rows[0]["tv"] = repr(float(ref[0]["tv"]) + 2 * tol)
    assert gate.check_rows("tv-k2", rows, ref, gate.REFERENCE_SEED).failed == 1


def test_verify_check_set_and_pass_flag():
    ref = gate.reference_rows("verify-256")
    rows = _copy(ref)
    rows[3]["pass"] = "false"
    dropped = rows.pop(0)
    rows.append(dict(dropped, check_id="unexpected-check"))
    res = gate.check_rows("verify-256", rows, ref, gate.REFERENCE_SEED)
    assert res.attempted == len(ref) + 1
    assert res.failed == 3
    rows = _copy(ref)
    rows[5]["lhs"] = "inf"
    assert gate.check_rows("verify-256", rows, ref, 7).failed == 1


def test_crash_fails_every_operation(tmp_path):
    res = gate.check_output("tv-k2", str(tmp_path), gate.REFERENCE_SEED, crash="RuntimeError: x")
    assert res.attempted == res.failed == 1


def test_within():
    assert gate.within("6", "6", ("exact", None))
    assert not gate.within("6.0", "6", ("exact", None))
    assert gate.within("1.0000000001", "1", ("rel", 1e-9))
    assert not gate.within("nan", "1", ("abs", 1.0))
    assert not math.isfinite(gate._number(""))


def test_benchmark_json_names_every_metric():
    import json

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)
