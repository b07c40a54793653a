import multiprocessing
import os
import sys

import numpy as np
import pytest

from robrsvd.simulate import (
    BenchmarkResult,
    Rank2Config,
    SimScenario,
    generate,
    mask_random,
    metric_frobenius,
    metric_l2,
    metric_principal_angle,
    metric_singular_value,
    run_benchmark,
    write_summary_csv,
)
from robrsvd.simulate import _worker_count


def test_clean_noise_free_surface_is_exact_rank_one():
    scen = SimScenario(grid_size=(50, 40), noise_variance=0.0, contamination="none", seed=1)
    res = generate(scen)
    truth = res.truth
    np.testing.assert_allclose(res.data.values, truth.signal, atol=1e-12)
    assert np.linalg.norm(truth.left[:, 0]) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(truth.right[:, 0]) == pytest.approx(1.0, abs=1e-12)
    svals = np.linalg.svd(res.data.values, compute_uv=False)
    assert svals[0] == pytest.approx(773.0, abs=1e-8)
    assert svals[1] == pytest.approx(0.0, abs=1e-8)
    assert res.contaminated_cells == ()


def test_outlying_cells_count_and_range():
    scen = SimScenario(grid_size=(40, 40), noise_variance=0.0, contamination="outlying_cells", seed=2)
    res = generate(scen)
    clean = generate(SimScenario(grid_size=(40, 40), noise_variance=0.0, contamination="none", seed=2))
    diff = res.data.values != clean.data.values
    assert diff.sum() == 100
    assert len(res.contaminated_cells) == 100
    c1 = clean.data.values.max()
    replaced = res.data.values[diff]
    assert np.all(replaced >= c1) and np.all(replaced <= 2 * c1)
    rows, cols = zip(*res.contaminated_cells)
    np.testing.assert_array_equal(sorted(zip(rows, cols)), np.argwhere(diff))


def test_outlying_rows_structure():
    scen = SimScenario(grid_size=(30, 25), noise_variance=0.0, contamination="outlying_rows", seed=3)
    res = generate(scen)
    clean = generate(SimScenario(grid_size=(30, 25), noise_variance=0.0, contamination="none", seed=3))
    changed_rows = np.unique([i for i, _ in res.contaminated_cells])
    assert changed_rows.size == 5
    z = res.data.col_grid
    v_out = 1.0 + np.sin(4 * np.pi * z)
    v_out /= np.linalg.norm(v_out)
    u0 = res.truth.left[:, 0]
    for i in changed_rows:
        np.testing.assert_allclose(res.data.values[i], 773.0 * u0[i] * v_out, rtol=1e-12)
    untouched = np.setdiff1d(np.arange(30), changed_rows)
    np.testing.assert_array_equal(res.data.values[untouched], clean.data.values[untouched])


def test_outlying_block_is_shifted_square():
    scen = SimScenario(grid_size=(40, 40), noise_variance=0.0, contamination="outlying_block", seed=4)
    res = generate(scen)
    clean = generate(SimScenario(grid_size=(40, 40), noise_variance=0.0, contamination="none", seed=4))
    delta = res.data.values - clean.data.values
    changed = np.argwhere(delta != 0)
    assert len(res.contaminated_cells) == 100
    i0, j0 = changed.min(axis=0)
    i1, j1 = changed.max(axis=0)
    assert (i1 - i0 + 1, j1 - j0 + 1) == (10, 10)
    shifts = delta[i0 : i1 + 1, j0 : j1 + 1]
    c1 = clean.data.values.max()
    assert np.all(shifts >= 2 * c1) and np.all(shifts <= 3 * c1)
    # the whole block moved by one common amount
    assert np.ptp(shifts) == 0.0


def test_block_requires_large_enough_grid():
    with pytest.raises(ValueError, match="block"):
        generate(SimScenario(grid_size=(8, 40), contamination="outlying_block"))


def test_diagonal_contamination():
    scen = SimScenario(grid_size=(20, 30), noise_variance=0.0, contamination="diagonal", seed=5)
    res = generate(scen)
    assert res.contaminated_cells == tuple((i, i) for i in range(20))
    clean = generate(SimScenario(grid_size=(20, 30), noise_variance=0.0, contamination="none", seed=5))
    c1 = clean.data.values.max()
    diag = res.data.values[np.arange(20), np.arange(20)]
    assert np.all(diag >= c1) and np.all(diag <= 2 * c1)


def test_generation_is_deterministic():
    scen = SimScenario(grid_size=(25, 25), noise_variance=0.8, contamination="outlying_cells", seed=11)
    a = generate(scen)
    b = generate(scen)
    np.testing.assert_array_equal(a.data.values, b.data.values)
    assert a.contaminated_cells == b.contaminated_cells


def test_rank_two_truth_is_orthonormal():
    scen = SimScenario(rank=2, grid_size=(30, 30), noise_variance=0.0, contamination="none", seed=6)
    res = generate(scen)
    gram_left = res.truth.left.T @ res.truth.left
    gram_right = res.truth.right.T @ res.truth.right
    np.testing.assert_allclose(gram_left, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(gram_right, np.eye(2), atol=1e-12)
    assert res.truth.singular_values == (773.0, pytest.approx(0.35 * 773.0))
    svals = np.linalg.svd(res.data.values, compute_uv=False)
    np.testing.assert_allclose(svals[:2], [773.0, 0.35 * 773.0], rtol=1e-10)


def test_mask_random_counts_and_determinism():
    scen = SimScenario(grid_size=(20, 20), noise_variance=0.5, seed=7)
    res = generate(scen)
    assert mask_random(res, 0, seed=1) is res
    masked = mask_random(res, 100, seed=1)
    assert (~masked.data.mask).sum() == 100
    again = mask_random(res, 100, seed=1)
    np.testing.assert_array_equal(masked.data.mask, again.data.mask)
    keep = masked.data.mask
    np.testing.assert_array_equal(masked.data.values[keep], res.data.values[keep])
    assert np.all(masked.data.values[~keep] == 0.0)  # placeholder convention
    with pytest.raises(ValueError):
        mask_random(res, 400, seed=1)


def test_metric_l2_examples():
    v = np.array([0.6, 0.8])
    assert metric_l2(v, v) == 0.0
    assert metric_l2(-v, v) == 0.0  # sign ambiguity removed
    rng = np.random.default_rng(8)
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    expect = min(np.sqrt(np.sum((a - b) ** 2)), np.sqrt(np.sum((a + b) ** 2)))
    assert metric_l2(a, b) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        metric_l2(np.ones(3), np.ones(4))


def test_metric_singular_value_examples():
    assert metric_singular_value(773.0) == 0.0
    assert metric_singular_value(780.0) == pytest.approx(7.0)


def test_metric_principal_angle_examples():
    e = np.eye(4)
    same = metric_principal_angle(e[:, :2], e[:, :2])
    assert same == pytest.approx(0.0, abs=1e-6)
    orth = metric_principal_angle(e[:, :2], e[:, 2:])
    assert orth == pytest.approx(90.0)
    tilted = np.column_stack([e[:, 0], (e[:, 1] + e[:, 2]) / np.sqrt(2)])
    assert metric_principal_angle(e[:, :2], tilted) == pytest.approx(45.0, abs=1e-9)
    with pytest.raises(ValueError, match="rank"):
        metric_principal_angle(np.column_stack([e[:, 0], e[:, 0]]), e[:, :2])


def test_metric_frobenius_examples():
    a = np.zeros((3, 3))
    assert metric_frobenius(a, a) == 0.0
    b = a.copy()
    b[1, 2] = 3.0
    assert metric_frobenius(a, b) == pytest.approx(3.0)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 5))
    y = rng.standard_normal((4, 5))
    assert metric_frobenius(x, y) == pytest.approx(np.sqrt(np.sum((x - y) ** 2)), rel=1e-12)


def test_benchmark_noise_free_svd_is_exact():
    scen = SimScenario(grid_size=(20, 20), noise_variance=0.0, contamination="none")
    res = run_benchmark([scen], methods=("svd",), replications=1, base_seed=0)
    med = {r["metric"]: r["median"] for r in res.summary}
    assert med["l2_u"] < 1e-8
    assert med["l2_v"] < 1e-8
    assert med["s_abs_error"] < 1e-6
    assert not res.failures


def test_benchmark_reproducible_and_thread_invariant():
    scen = SimScenario(grid_size=(15, 15), noise_variance=0.5, contamination="outlying_cells")
    # an 8x8 grid cannot host the 10x10 outlying block, so its replications fail
    bad = SimScenario(grid_size=(8, 8), noise_variance=0.0, contamination="outlying_block")
    for mask_count in (0, 10):
        kwargs = dict(methods=("svd", "rsvd"), replications=3, base_seed=123, mask_count=mask_count)
        a = run_benchmark([scen, bad], threads=1, **kwargs)
        b = run_benchmark([scen, bad], threads=4, **kwargs)
        assert multiprocessing.active_children() == []
        assert a.summary == b.summary
        assert a.records == b.records
        assert len(a.failures) == 6
        assert a.failures == b.failures


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="worker processes run on Linux only")
def test_unpicklable_argument_fails_before_any_worker_starts():
    scen = SimScenario(rank=2, grid_size=(12, 12), noise_variance=0.5, contamination="none",
                       rank2_config=Rank2Config(left_shape=lambda t: t**2))
    kwargs = dict(methods=("svd",), replications=2, base_seed=0)
    with pytest.raises(ValueError, match=r"argument scenarios\[0\] does not pickle.*threads=1"):
        run_benchmark([scen], threads=2, **kwargs)
    assert multiprocessing.active_children() == []
    res = run_benchmark([scen], threads=1, **kwargs)
    assert not res.failures
    assert {r["replications"] for r in res.summary} == {2}


def test_worker_count_is_bounded_by_jobs_and_cores():
    # pure arithmetic: no pool is built, so no process starts
    cores = len(os.sched_getaffinity(0))
    assert _worker_count(10**6, 300) == min(300, cores)
    assert _worker_count(10**6, 1) == 1
    assert _worker_count(1, 300) == 1


def test_benchmark_records_failures_without_aborting():
    # an 8x8 grid cannot host the 10x10 outlying block
    bad = SimScenario(grid_size=(8, 8), noise_variance=0.0, contamination="outlying_block")
    good = SimScenario(grid_size=(12, 12), noise_variance=0.0, contamination="none")
    res = run_benchmark([bad, good], methods=("svd",), replications=2, base_seed=0)
    assert len(res.failures) == 2
    assert any(r["scenario"] == "none" for r in res.summary)


def test_benchmark_rejects_unknown_methods_before_any_replication(monkeypatch):
    import robrsvd.simulate as simulate

    ran = []
    monkeypatch.setattr(simulate, "_one_replication", lambda *args: ran.append(args))
    scen = SimScenario(grid_size=(12, 12), noise_variance=0.0, contamination="none")
    with pytest.raises(ValueError, match=r"\['bogus', 'qr'\]"):
        run_benchmark([scen], methods=("bogus", "svd", "qr"), replications=2, base_seed=0)
    assert ran == []


def test_summary_csv_schema(tmp_path):
    scen = SimScenario(grid_size=(12, 12), noise_variance=0.2, contamination="none")
    res = run_benchmark([scen], methods=("svd",), replications=2, base_seed=5)
    path = tmp_path / "summary.csv"
    write_summary_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "scenario,method,sigma2,metric,median,q1,q3,replications"
    assert all(line.split(",")[0] == "none" for line in lines[1:])
    assert len(lines) == 1 + 4  # four metrics for a rank-one scenario


def test_scenario_validation():
    with pytest.raises(ValueError):
        SimScenario(rank=3)
    with pytest.raises(ValueError):
        SimScenario(noise_variance=-1.0)
    with pytest.raises(ValueError):
        SimScenario(contamination="rows")
    assert SimScenario(rank=2).rank2_config == Rank2Config()
