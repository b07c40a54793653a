"""Checks of the benchmark itself (not of robrsvd): python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402

# counts that depend only on the input, never on timing
DETERMINISTIC_COUNTS = ("decompose.irls_iterations", "selection.candidates",
                        "penalties.spec_builds", "imputation.rounds")


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def short_run(trace: int):
    proc, lines = run_bench("--workload", "decompose_masked", "--seed", "1",
                            "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    context = json.loads(next(line for line in lines if line.startswith("context "))[8:])
    return result, context


def declared(kind: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_traced_counts_repeat_exactly():
    first, _ = short_run(trace=1)
    second, _ = short_run(trace=1)
    assert set(first["metrics"]) == declared("per_layer")
    for name in DETERMINISTIC_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0, name


def test_timed_run_has_tracing_off():
    result, context = short_run(trace=0)
    assert set(result["metrics"]) == declared("end_to_end")
    assert context["tracing"] == "off"
    assert context["hooks_active_while_timed"] == 0


def test_absent_hook_is_reported_not_raised():
    gone = (tracing.Hook("robrsvd.decompose", "no_such_callable", "decompose.gone"),
            tracing.Hook("robrsvd.no_such_module", "main", "cli.gone"))
    tracer = tracing.Tracer(tracing.HOOKS + gone)
    with tracer:
        assert tracing.active_hooks() == len(tracing.HOOKS)
    assert tracing.active_hooks() == 0
    assert tracer.absent == ["robrsvd.decompose:no_such_callable", "robrsvd.no_such_module:main"]
    assert tracer.layer_metrics()["trace.hooks_absent"]["value"] == 2


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run_bench("--workload", "decompose_masked", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_gate_flags_an_altered_observed_cell(tmp_path):
    import workload

    spec = workload.Decompose(24, 1, 20, ceiling=1.0)
    case, = spec.prepare(seed=1, workdir=str(tmp_path))
    code, _ = workload.run_command(case)
    assert spec.check(case, code)[:2] == ([], 0)

    path = tmp_path / "out" / "residual.csv"
    rows = path.read_text().splitlines()
    cells = rows[1].split(",")
    j = next(j for j, c in enumerate(cells[1:], start=1) if c != workload.MISSING)
    cells[j] = repr(float(cells[j]) + 1e-6)
    rows[1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    problems, failed, _ = spec.check(case, code)
    assert failed == 1 and "misses the input" in problems[0]
