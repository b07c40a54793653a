import ast
import csv
import json
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robrsvd import cli
from robrsvd.cli import main, read_config_file
from robrsvd.dataio import MatrixFile, load, save
from robrsvd.decompose import FitOptions, fit
from robrsvd.matrices import ObservedMatrix
from robrsvd.simulate import BenchmarkResult, SimScenario, generate, mask_random
from conftest import dense_gcv_v
from robrsvd.penalties import TwoWayPenaltySpec, build_roughness_penalty
from robrsvd.robust import estimate_scale_mad, huber_weight


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def write_diag_csv(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("r,0,1\n0,3.0,0.0\n1,0.0,1.0\n")
    return str(path)


def contaminated_fixture(tmp_path):
    res = generate(SimScenario(grid_size=(24, 20), noise_variance=0.2,
                               contamination="outlying_rows", seed=9))
    path = str(tmp_path / "contaminated.csv")
    save(res.data, MatrixFile(path))
    return path, res


def test_decompose_rank_one_svd_on_diagonal(tmp_path):
    path = write_diag_csv(tmp_path)
    out = tmp_path / "out"
    rc = main(["decompose", path, "--method", "svd", "--rank", "1", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out / "components.csv")
    assert rows[0][:2] == ["component", "s"]
    assert float(rows[1][1]) == pytest.approx(3.0, abs=1e-10)
    assert (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "decompose"
    assert manifest["config"]["method"] == "svd"


def test_decompose_robust_differs_from_nonrobust_at_contaminated_rows(tmp_path):
    path, res = contaminated_fixture(tmp_path)
    out_rob = tmp_path / "rob"
    out_rs = tmp_path / "rs"
    assert main(["decompose", path, "--method", "robrsvd", "--out", str(out_rob)]) == 0
    assert main(["decompose", path, "--method", "rsvd", "--out", str(out_rs)]) == 0

    def read_u(out):
        rows = read_rows(out / "component_1_u.csv")[1:]
        return np.array([float(r[1]) for r in rows])

    u_rob, u_rs = read_u(out_rob), read_u(out_rs)
    if u_rob @ u_rs < 0:
        u_rs = -u_rs
    bad_rows = sorted({i for i, _ in res.contaminated_cells})
    assert np.max(np.abs(u_rob[bad_rows] - u_rs[bad_rows])) > 1e-4
    # spline exports exist for plotting
    assert (out_rob / "component_1_u_dense.csv").exists()
    assert (out_rob / "component_1_gcv_v.csv").exists()


def test_decompose_missing_input_reports_imputation(tmp_path):
    res = generate(SimScenario(grid_size=(16, 14), noise_variance=0.0,
                               contamination="none", seed=10))
    masked = mask_random(res, 20, seed=3)
    path = str(tmp_path / "masked.csv")
    save(masked.data, MatrixFile(path))
    out = tmp_path / "out"
    rc = main(["decompose", path, "--method", "rsvd", "--lambda-min", "1e-12",
               "--lambda-max", "1e-10", "--lambda-count", "2", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out / "components.csv")
    s_hat = float(rows[1][1])
    assert s_hat == pytest.approx(773.0, rel=1e-4)
    # the residual keeps the missing cells masked
    resid = load(MatrixFile(str(out / "residual.csv")))
    assert (~resid.mask).sum() == 20


def test_decompose_json_output(tmp_path):
    path = write_diag_csv(tmp_path)
    out = tmp_path / "out"
    rc = main(["decompose", path, "--method", "svd", "--output-format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "decomposition.json").read_text())
    assert payload["components"][0]["s"] == pytest.approx(3.0, abs=1e-10)
    assert len(payload["components"][0]["u"]) == 2
    assert (out / "reconstruction.json").exists()


def test_simulate_deterministic_across_runs_and_threads(tmp_path):
    args = ["simulate", "--scenario", "outlying_cells", "--rows", "15", "--cols", "15",
            "--sigma2", "0.5", "--methods", "svd,rsvd", "--replications", "3",
            "--seed", "7", "--lambda-count", "8"]
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        assert main(args + ["--threads", threads, "--out", str(out)]) == 0
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_simulate_rejects_unknown_scenario(tmp_path):
    rc = main(["simulate", "--scenario", "bogus", "--out", str(tmp_path / "x")])
    assert rc == 1


def test_simulate_rejects_unknown_method(tmp_path):
    out = tmp_path / "x"
    rc = main(["simulate", "--scenario", "none", "--rows", "12", "--cols", "12",
               "--replications", "1", "--methods", "bogus,svd", "--out", str(out)])
    assert rc == 1
    assert not (out / "summary.csv").exists()


def test_simulate_rejects_threads_below_one(tmp_path, capsys):
    out = tmp_path / "x"
    rc = main(["simulate", "--scenario", "none", "--rows", "12", "--cols", "12",
               "--replications", "1", "--threads", "-3", "--out", str(out)])
    assert rc == 1
    assert "threads must be at least 1, got -3" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["decompose", "{diag}", "--rank", "99"], "rank must be between 1 and 2, got 99"),
    (["decompose", "{diag}", "--sigma", "inf"], "fixed sigma must be a positive finite number, got inf"),
    (["decompose", "{missing}"], "absent.csv"),
    (["decompose", "{diag}", "--spline-points", "-1"], "--spline-points must be at least 2, got -1"),
    (["decompose", "{diag}", "--spline-points", "0"], "--spline-points must be at least 2, got 0"),
    (["simulate", "--rows", "12", "--cols", "12", "--replications", "1", "--methods", "foo"], "unknown method"),
    (["simulate", "--rows", "12", "--cols", "12", "--replications", "2", "--mask-count", "-5"],
     "mask_count must be in [0, 144) for a 12x12 scenario, got -5"),
    (["simulate", "--scenario", "none", "--rows", "12", "--cols", "12", "--replications", "2", "--sigma2", "nan"],
     "noise_variance must be a finite number >= 0, got nan"),
    (["simulate", "--scenario", "none", "--rows", "12", "--cols", "12", "--replications", "2", "--sigma2", "inf"],
     "noise_variance must be a finite number >= 0, got inf"),
], ids=["decompose-rank", "decompose-sigma", "decompose-missing", "decompose-spline-points-negative",
        "decompose-spline-points-zero", "simulate-methods", "simulate-mask-count", "simulate-sigma2-nan",
        "simulate-sigma2-inf"])
def test_a_rejected_command_creates_no_out_folder(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    paths = {"diag": write_diag_csv(tmp_path), "missing": str(tmp_path / "absent.csv")}
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_decompose_rejects_lambda_freeze_after_zero(tmp_path, capsys):
    path, _ = contaminated_fixture(tmp_path)
    rc = main(["decompose", path, "--lambda-freeze-after", "0", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "lambda_freeze_after must be None or at least 1, got 0" in capsys.readouterr().err


def test_simulate_failures_saved_under_csv_output(tmp_path, monkeypatch, capsys):
    import robrsvd.simulate as simulate

    def broken_fit(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(simulate, "fit", broken_fit)
    out = tmp_path / "x"
    rc = main(["simulate", "--scenario", "none", "--rows", "12", "--cols", "12",
               "--replications", "2", "--methods", "svd", "--out", str(out)])
    assert rc == 0
    assert "see summary.json" in capsys.readouterr().err
    failures = json.loads((out / "summary.json").read_text())["failures"]
    assert [f["replication"] for f in failures] == [0, 1]
    assert all(f["error"] == "FloatingPointError: injected" for f in failures)


def test_gcv_trace_single_point_grid(tmp_path):
    path, _ = contaminated_fixture(tmp_path)
    out = tmp_path / "trace.csv"
    rc = main(["gcv-trace", path, "--trace", "v", "--lambda-min", "0.5",
               "--lambda-max", "0.5", "--lambda-count", "1", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["lambda", "gcv", "hat_trace", "chosen"]
    assert len(rows) == 2
    assert rows[1][3] == "1"
    assert float(rows[1][0]) == pytest.approx(0.5)


def test_gcv_trace_names_a_matrix_too_small_for_a_spline_penalty(tmp_path, capsys):
    path = tmp_path / "two_by_two.csv"
    path.write_text("r,0,1\n0,3.0,0.4\n1,0.7,1.0\n")
    assert main(["gcv-trace", str(path), "--out", str(tmp_path / "trace.csv")]) == 1
    assert "a spline penalty needs at least 3 rows and 3 columns, got 2x2" in capsys.readouterr().err


def test_gcv_trace_matches_dense_oracle_on_tiny_instance(tmp_path):
    rng = np.random.default_rng(12)
    values = rng.uniform(1.0, 2.0, (4, 3))
    X = ObservedMatrix(values)
    path = str(tmp_path / "tiny.csv")
    save(X, MatrixFile(path))
    out = tmp_path / "trace.csv"
    rc = main(["gcv-trace", path, "--trace", "v", "--lambda-min", "1e-3",
               "--lambda-max", "1e1", "--lambda-count", "5", "--out", str(out)])
    assert rc == 0

    # rebuild the conditional problem exactly as the command does
    u_mat, s_vec, vt = np.linalg.svd(values, full_matrices=False)
    s, u = float(s_vec[0]), u_mat[:, 0]
    resid = values - s * np.outer(u, vt[0])
    sigma = estimate_scale_mad(resid)
    w = huber_weight(resid / sigma)
    spec0 = TwoWayPenaltySpec(build_roughness_penalty(X.row_grid),
                              build_roughness_penalty(X.col_grid))
    rows = read_rows(out)[1:]
    for lam_text, score_text, trace_text, _ in rows:
        want, want_tr = dense_gcv_v(values, u, w, spec0.with_lambdas(0.0, float(lam_text)))
        assert float(score_text) == pytest.approx(want, rel=1e-9)
        assert float(trace_text) == pytest.approx(want_tr, rel=1e-9)


@pytest.mark.parametrize("masked", [False, True])
def test_gcv_trace_matches_first_v_sweep_of_decompose(tmp_path, masked):
    res = generate(SimScenario(grid_size=(30, 25), contamination="outlying_rows", seed=4))
    if masked:
        res = mask_random(res, 60, seed=4)
    path = str(tmp_path / "input.csv")
    save(res.data, MatrixFile(path))
    out = tmp_path / "trace.csv"
    assert main(["gcv-trace", path, "--trace", "v", "--out", str(out)]) == 0

    X = load(MatrixFile(path))
    decomp = fit(X, rank=1, opts=FitOptions(max_iter=1))
    want = decomp.components[0].history["gcv_trace_v"].records
    rows = read_rows(out)[1:]
    assert [float(r[0]) for r in rows] == [rec.lam for rec in want]
    assert [r[3] == "1" for r in rows] == [rec.chosen for rec in want]
    np.testing.assert_allclose([float(r[1]) for r in rows], [rec.score for rec in want], rtol=1e-12)
    np.testing.assert_allclose([float(r[2]) for r in rows], [rec.hat_trace for rec in want], rtol=1e-12)


def test_transform_through_file_interface(tmp_path):
    src = tmp_path / "raw.csv"
    src.write_text("r,0,1\n0,0.0,0.5\n1,3.5,.\n")
    out = tmp_path / "log.csv"
    rc = main(["transform", str(src), "--out", str(out)])
    assert rc == 0
    X = load(MatrixFile(str(out)))
    assert X.values[0, 0] == pytest.approx(-1.0)
    assert X.values[0, 1] == pytest.approx(0.0)
    assert X.values[1, 0] == pytest.approx(2.0)
    assert not X.mask[1, 1]


def test_transform_rejects_negative_values(tmp_path):
    src = tmp_path / "raw.csv"
    src.write_text("r,0,1\n0,-1.0,0.5\n1,3.5,2.0\n")
    rc = main(["transform", str(src), "--out", str(tmp_path / "log.csv")])
    assert rc == 1


def test_config_file_with_flag_precedence(tmp_path):
    path = write_diag_csv(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(
        "# decomposition settings\n"
        "method = rsvd\n"
        "rank = 1\n"
        "lambda-count = 3\n"
        f"out = {tmp_path / 'cfg_out'}\n"
    )
    rc = main(["decompose", path, "--config", str(config), "--method", "svd"])
    assert rc == 0
    manifest = json.loads((tmp_path / "cfg_out" / "manifest.json").read_text())
    assert manifest["config"]["method"] == "svd"  # flag beats config
    assert manifest["config"]["lambda_count"] == 3  # config beats default


def test_config_file_unknown_key_rejected(tmp_path):
    path = write_diag_csv(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("methodd = rsvd\n")
    rc = main(["decompose", path, "--config", str(config)])
    assert rc == 1


def test_read_config_file_parsing(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text("a = 3\nb = 0.5\nc = true\nd = hello # trailing\ne = -999\n")
    parsed = read_config_file(config)
    # values stay text; argparse reads them through each option's type
    assert parsed == {"a": "3", "b": "0.5", "c": "true", "d": "hello", "e": "-999"}


def test_config_missing_token_is_read_like_the_flag(tmp_path):
    # a numeric-looking token must stay the text that marks the cells
    path = tmp_path / "holes.csv"
    values = generate(SimScenario(grid_size=(12, 10), noise_variance=0.2, seed=3)).data.values
    rows = [",".join(["r"] + [str(j) for j in range(10)])]
    rows += [",".join([str(i)] + ["-999" if (i + j) % 7 == 0 else repr(x) for j, x in enumerate(row)])
             for i, row in enumerate(values.tolist())]
    path.write_text("\n".join(rows) + "\n")
    (tmp_path / "run.cfg").write_text("missing-token = -999\nmethod = rsvd\n")
    assert main(["decompose", str(path), "--config", str(tmp_path / "run.cfg"),
                 "--out", str(tmp_path / "by_config")]) == 0
    assert main(["decompose", str(path), "--missing-token", "-999", "--method", "rsvd",
                 "--out", str(tmp_path / "by_flag")]) == 0
    residual = (tmp_path / "by_config" / "residual.csv").read_bytes()
    assert residual == (tmp_path / "by_flag" / "residual.csv").read_bytes()
    assert residual.count(b"-999") == sum((i + j) % 7 == 0 for i in range(12) for j in range(10))


@pytest.mark.parametrize("entry, message", [
    ("max-iter = 1.5", "argument --max-iter: invalid int value: '1.5'"),
    ("log2-half = yes", "argument --log2-half: expected true or false, got 'yes'"),
])
def test_config_value_is_converted_like_flag_text(tmp_path, monkeypatch, capsys, entry, message):
    write_diag_csv(tmp_path)
    (tmp_path / "bad.cfg").write_text(entry + "\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "diag.csv", "--config", "bad.cfg", "--out", "out"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "diag.csv"]


def test_nonzero_exit_on_missing_file(tmp_path):
    rc = main(["decompose", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
    assert rc == 1


MATRIX_OPTIONS = {"format": "dense_csv", "missing_token": "."}
GRID_OPTIONS = {"theta": 1.345, "lambda_min": 1e-6, "lambda_max": 1e4, "lambda_count": 20}


def test_manifests_record_every_default(tmp_path, monkeypatch):
    path, _ = contaminated_fixture(tmp_path)
    positive = str(tmp_path / "pos.csv")  # the log transform needs nonnegative input
    (tmp_path / "pos.csv").write_text("r,0,1\n0,1.0,0.5\n1,3.5,.\n")
    monkeypatch.chdir(tmp_path)
    # the default simulate run is the full 100x100 benchmark; only its
    # resolved configuration is under test here
    calls = []
    monkeypatch.setattr(cli, "run_benchmark",
                        lambda *a, **kw: calls.append(kw) or BenchmarkResult((), (), ()))
    runs = {
        "decompose": (["decompose", path], "decompose_out/manifest.json", dict(
            MATRIX_OPTIONS, **GRID_OPTIONS, input=path, method="robrsvd", rank=1, sigma="mad",
            tol=1e-6, max_iter=100, lambda_freeze_after=5, log2_half=False, out="decompose_out",
            output_format="csv", spline_points=200)),
        "simulate": (["simulate"], "simulate_out/manifest.json", dict(
            GRID_OPTIONS, scenario="none,outlying_cells,outlying_rows,outlying_block,diagonal",
            rank=1, rows=100, cols=100, sigma2="1.0", methods="svd,rsvd,robrsvd", replications=20,
            seed=0, threads=1, mask_count=0, out="simulate_out", output_format="csv")),
        "gcv-trace": (["gcv-trace", path], "gcv_trace.csv.manifest.json", dict(
            MATRIX_OPTIONS, **GRID_OPTIONS, input=path, trace="v", sigma="mad",
            out="gcv_trace.csv")),
        "transform": (["transform", positive], "transformed.csv.manifest.json", dict(
            MATRIX_OPTIONS, input=positive, log2_half=True, out="transformed.csv")),
    }
    assert [len(cfg) for _, _, cfg in runs.values()] == [17, 16, 10, 5]
    for command, (argv, manifest_path, cfg) in runs.items():
        assert main(argv) == 0, command
        manifest = json.loads((tmp_path / manifest_path).read_text())
        assert manifest["command"] == command
        assert manifest["config"] == cfg, command
        assert set(manifest["blas_threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    assert calls[0]["methods"] == ["svd", "rsvd", "robrsvd"]


def test_manifests_record_blas_threading(tmp_path, monkeypatch):
    path, _ = contaminated_fixture(tmp_path)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "trace.csv"
    assert main(["gcv-trace", path, "--lambda-count", "3", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
    assert manifest["blas_threads"] == {
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": None}


def test_config_file_precedence_for_shared_options(tmp_path):
    path, _ = contaminated_fixture(tmp_path)
    config = tmp_path / "grid.cfg"
    config.write_text("lambda-count = 3\ntheta = 2.5\n")
    out = tmp_path / "trace.csv"
    rc = main(["gcv-trace", path, "--config", str(config), "--theta", "1.5", "--out", str(out)])
    assert rc == 0
    cfg = json.loads((tmp_path / "trace.csv.manifest.json").read_text())["config"]
    assert cfg["theta"] == 1.5  # flag beats file
    assert cfg["lambda_count"] == 3  # file beats default
    assert cfg["lambda_min"] == 1e-6  # default
    assert len(read_rows(out)) == 1 + 3


def test_transform_config_can_switch_log_off(tmp_path):
    src = tmp_path / "raw.csv"
    src.write_text("r,0,1\n0,0.0,0.5\n1,3.5,.\n")
    config = tmp_path / "t.cfg"
    config.write_text("log2_half = false\n")
    out = tmp_path / "same.csv"
    assert main(["transform", str(src), "--config", str(config), "--out", str(out)]) == 0
    X = load(MatrixFile(str(out)))
    assert X.values[0, 1] == 0.5
    assert X.values[1, 0] == 3.5
    assert not X.mask[1, 1]
    cfg = json.loads((tmp_path / "same.csv.manifest.json").read_text())["config"]
    assert cfg["log2_half"] is False


@pytest.mark.parametrize("argv, entry", [
    (["simulate"], "output_format = xml"),
    (["decompose", "diag.csv"], "method = bogus"),
    (["decompose", "diag.csv"], "output_format = xml"),
    (["gcv-trace", "diag.csv"], "trace = w"),
])
def test_config_value_outside_choices_rejected(tmp_path, monkeypatch, argv, entry):
    write_diag_csv(tmp_path)
    (tmp_path / "bad.cfg").write_text(entry + "\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", "bad.cfg"])
    assert exc.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "diag.csv"]


# (subcommand, option string) of every option that takes a value text
_, _COMMANDS = cli.build_parser()
VALUE_OPTIONS = [(name, action.option_strings[-1]) for name, command in _COMMANDS.items()
                 for action in command._actions
                 if action.option_strings and action.nargs != 0 and action.dest not in ("help", "config")]


# value texts a config line keeps as written: no '#', no line break, no edge whitespace
VALUE_TEXT = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "2.5", "1e-3", "-0.5", "inf", "nan", "none", "true", "1_0", "",
                     "dense_csv", "hmd_triplet", "svd", "rsvd", "robrsvd", "csv", "json", "both", "u", "v",
                     "none,diagonal", "0.5,1"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#"), max_size=8)
    .filter(lambda t: t == t.strip()),
)


@pytest.mark.parametrize("command, option", VALUE_OPTIONS, ids=[c + o for c, o in VALUE_OPTIONS])
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=VALUE_TEXT)
def test_flag_and_config_entry_resolve_alike(tmp_path, monkeypatch, capsys, command, option, text):
    # every command receives the options as resolved; capture them instead of running
    seen = []
    for name in ("cmd_decompose", "cmd_simulate", "cmd_gcv_trace", "cmd_transform"):
        monkeypatch.setattr(cli, name, lambda cfg: seen.append(cfg) or 0)
    config = tmp_path / "entry.cfg"
    config.write_text(f"{option.lstrip('-')} = {text}\n")

    def resolve(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        return code, repr(seen.pop()) if code == 0 else err.splitlines()[-1:]

    by_flag = resolve([command, f"{option}={text}"])
    assert by_flag[0] in (0, 2)
    assert resolve([command, "--config", str(config)]) == by_flag


def test_cli_and_demos_import_public_names_only():
    root = pathlib.Path(__file__).resolve().parents[1]
    files = [root / "src" / "robrsvd" / "cli.py", *sorted((root / "demos").glob("*.py"))]
    assert len(files) > 1
    private = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "robrsvd"):
                names = (node.module or "").split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names if alias.name.split(".")[0] == "robrsvd"
                         for part in alias.name.split(".")]
            else:
                continue
            private += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.startswith("_") and not name.endswith("__")]
    assert private == []
