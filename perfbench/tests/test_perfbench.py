"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import binmpec  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("grid-image", "modularity-blocks", "oracle-mixed")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds; keep 20 epm+adm solves a pass."""
    monkeypatch.setattr(workloads, "GRID_SIDES", (6,) * 4)
    monkeypatch.setattr(workloads, "GRID_PINS", 1)
    monkeypatch.setattr(workloads, "MODULARITY_NODES", (12,) * 10)
    monkeypatch.setattr(workloads, "ORACLE_GROUPS", 2)


def bench(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def metric_lines(lines):
    out = {}
    for ln in lines:
        if ln.startswith("metric "):
            name, value, unit = ln.split()[1:4]
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_metric_with_unit(tiny, capsys, workload):
    code, lines, result = bench(capsys, workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = metric_lines(lines)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert printed[m["name"]][1] == m["unit"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert printed["failed_frac"][0] == 0.0
    assert printed["speed_factor"][0] > 0
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert env["backend"] == binmpec.active_backend()
    assert set(env["blas_threads"].values()) == {"1"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reaches_every_layer_within_wall_time(tiny, capsys, workload):
    t0 = time.perf_counter()
    code, lines, result = bench(capsys, workload, 1)
    wall = time.perf_counter() - t0
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    printed = metric_lines(lines)
    for span in run.EXPECTED_LAYERS[workload]:
        assert printed[span + ".calls"][0] > 0, span
    self_total = sum(v for name, (v, _) in printed.items() if name.endswith(".self_s"))
    assert 0 < self_total <= wall


def test_counts_and_quality_repeat_for_one_seed(tiny, capsys):
    _, lines_a, _ = bench(capsys, "oracle-mixed", 1)
    _, lines_b, _ = bench(capsys, "oracle-mixed", 1)
    counts_a, counts_b = metric_lines(lines_a), metric_lines(lines_b)
    repeatable = [n for n, (_, unit) in counts_a.items()
                  if unit in ("count", "bytes") or n.endswith(("_frac", "_ratio"))]
    repeatable.remove("trace.overhead_frac")
    assert repeatable
    assert {n: counts_a[n] for n in repeatable} == {n: counts_b[n] for n in repeatable}
    _, lines_a, _ = bench(capsys, "oracle-mixed", 0)
    _, lines_b, _ = bench(capsys, "oracle-mixed", 0)
    quality = ("epm_objective_excess", "adm_objective_excess", "optimal_frac")
    assert ([metric_lines(lines_a)[n] for n in quality]
            == [metric_lines(lines_b)[n] for n in quality])


def test_checks_catch_wrong_outputs():
    g = binmpec.generate("erdos_renyi", {"n": 8, "p": 0.5}, seed=1)
    problem = binmpec.build_dense_subgraph(g, 3)
    report = binmpec.solve_epm(problem)
    parsed = binmpec.SolveReport.from_json(report.to_json())
    x_star, f_star, count = binmpec.brute_force(problem)
    assert checks.report_failures(problem, report, parsed, f_star) == []
    assert checks.oracle_failures(problem, (x_star, f_star, count)) == []

    bad_value = binmpec.SolveReport.from_json(report.to_json())
    bad_value.objective_binary -= 1.0
    assert any("recomputed" in f for f in checks.report_failures(problem, bad_value, bad_value))
    assert any("beats" in f for f in checks.report_failures(problem, report, parsed,
                                                            report.objective_binary + 1.0))
    off_sum = list(report.x_binary)
    off_sum[off_sum.index(0.0)] = 1.0
    assert any("sum" in f for f in checks.binary_violations(problem, off_sum))
    half = [0.5] * problem.n
    assert any("binary" in f for f in checks.binary_violations(problem, half))
    assert checks.report_failures(problem, report, bad_value)[-1].startswith("SolveReport")
    assert checks.objective_floor(problem) <= f_star


def test_tracer_rebinds_every_import_and_restores():
    original = binmpec.subsolver.minimize_fista
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in (binmpec.subsolver, binmpec.epm, binmpec.adm, binmpec.baselines):
            assert mod.minimize_fista is not original
            assert mod.minimize_fista.__wrapped__ is original
        assert binmpec.solve_epm is binmpec.epm.solve_epm
        tracer.recording = True
        g = binmpec.generate("cycle", {"n": 6})
        binmpec.solve_epm(binmpec.build_bisection(g))
    finally:
        tracer.uninstall()
    for mod in (binmpec.subsolver, binmpec.epm, binmpec.adm, binmpec.baselines):
        assert mod.minimize_fista is original
    assert tracer.stats["subsolver.fista"]["calls"] > 0
    assert tracer.stats["epm"]["calls"] == 1
    assert tracer.stats["linalg.matvec"]["self_s"] <= tracer.stats["epm"]["total_s"]
    assert set(run.EXPECTED_LAYERS["oracle-mixed"]) == set(spans.FUNCTIONS) | set(spans.METHODS)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-image", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    import compare

    def log(name, backend, value):
        path = tmp_path / name
        path.write_text(
            'env {"backend": "%s", "workload": "grid-image", "seed": 1}\n'
            '{"correct": true, "attempted": 1, "failed": 0, '
            '"metrics": {"epm_ms_p50": {"value": %r, "unit": "ms"}}}\n' % (backend, value))
        return str(path)

    base = [log("a.log", "numpy", 100.0)]
    assert compare.main(["--base"] + base + ["--new", log("b.log", "numpy", 101.0)]) == 0
    assert compare.main(["--base"] + base + ["--new", log("c.log", "numpy", 200.0)]) == 1
    assert compare.main(["--base"] + base + ["--new", log("d.log", "numba", 100.0)]) == 2
    assert "different kernel backends" in capsys.readouterr().err
