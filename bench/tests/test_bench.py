"""Tests of the benchmark itself (not of sfem2d).

    python3 -m pytest -q bench/tests

The smoke tests run bench/run.py at tiny sizes in a subprocess; the gate
tests feed perturbed outputs to the correctness gate and expect it to
trip.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gates  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 4 + 22 * len(SPEC["workloads"]) * (SPEC["run_seconds"] + 6) < 3420
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "small-problems", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gates_pass_good_outputs():
    assert gates.check_energy(gates.EXACT_ENERGY * 1.001) is None
    assert gates.check_patch(1e-14) is None
    assert gates.check_rate_gap(0.95, 0.90) is None
    assert gates.check_residual(1e-14) is None
    assert gates.check_rank(3) is None
    assert gates.check_reference("u", 1.0 + 1e-12, 1.0) is None


def test_gates_trip_on_perturbed_outputs():
    assert gates.check_energy(gates.EXACT_ENERGY * 1.02) is not None
    assert gates.check_energy(float("nan")) is not None
    assert gates.check_patch(1e-8) is not None
    assert gates.check_patch(float("nan")) is not None
    assert gates.check_rate_gap(0.95, 0.7) is not None
    assert gates.check_residual(1e-9) is not None
    assert gates.check_rank(4) is not None
    assert gates.check_reference("u", 1.0 + 1e-8, 1.0) is not None


def test_equilibrium_gate():
    load = np.zeros(8)
    load[5], load[7] = -100.0, -150.0
    fixed = np.array([0, 1, 2, 3])
    reactions = np.array([40.0, 125.0, -40.0, 125.0])
    assert gates.check_equilibrium(load, fixed, reactions) is None
    reactions[1] += 1.0    # 0.4% of the load
    assert gates.check_equilibrium(load, fixed, reactions) is not None


def test_pass_counts_perturbed_strain_energy_as_failed():
    good = workloads.make_workload("beam-2048", 0, smoke=True).run_pass()
    assert good.failed == 0
    reference = {k: v * (1 + 1e-6) for k, v in good.pinned.items()}
    bad = workloads.BeamWorkload(0, reference, **workloads.SMOKE["beam-2048"])
    res = bad.run_pass()
    assert res.attempted == 1 and res.failed == 1
    assert any("strain_energy" in m for m in res.messages)


def test_pass_counts_perturbed_patch_error_as_failed(monkeypatch):
    monkeypatch.setattr(workloads.B, "run_patch_test",
                        lambda *a, **kw: 1e-8)
    res = workloads.make_workload("small-problems", 0, smoke=True).run_pass()
    n_patch = 2 * 2 * workloads.SMOKE["small-problems"]["n_patch_seeds"]
    assert res.failed == n_patch
    assert res.attempted == n_patch + 3 * workloads.SMOKE[
        "small-problems"]["n_quads"]


def test_tracer_rebinds_at_every_import_site_and_restores():
    import sfem2d.benchmarks
    import sfem2d.smoothing
    import sfem2d.solver

    orig = sfem2d.smoothing.element_stiffness
    tracer = Tracer()
    tracer.install()
    try:
        assert sfem2d.solver.element_stiffness is not orig
        assert sfem2d.smoothing.element_stiffness is not orig
        assert sfem2d.element_stiffness is not orig
        mark = tracer.mark()
        workloads.make_workload("beam-2048", 1, smoke=True).run_pass()
        layers = tracer.summarize(mark)
    finally:
        tracer.uninstall()
    assert sfem2d.solver.element_stiffness is orig
    assert sfem2d.benchmarks.smoothed_b is sfem2d.smoothing.smoothed_b
    assert layers["smoothing.element_stiffness.calls"] == 32
    assert layers["smoothing.smoothed_b.calls"] == 2 * layers[
        "smoothing.element_stiffness.cells"]
    for name in ("solver.assemble", "benchmarks.energy_norm_error"):
        assert 0 < layers[name + ".self_s"] <= layers[name + ".total_s"]
    assert layers["shapefn.eval.wachspress_total_s"] == pytest.approx(
        layers["shapefn.eval.total_s"])
