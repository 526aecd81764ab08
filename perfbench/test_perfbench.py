"""Tests of the benchmark itself: tracing changes no result, the counters
count what they claim, and the output checks catch wrong outputs.

    python3 -m pytest -q perfbench/test_perfbench.py

The first test solves the N=12 noise problem twice (about 90 s on two
cores); the others take a few seconds.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from noisedescent import scenarios, transcription  # noqa: E402
from tracer import Tracer  # noqa: E402


def _noise_n12():
    bench = workloads.NoiseN12(0, Tracer(), None)
    bench.setup()
    return scenarios.solve_variant(bench.scn, bench.opts)


def test_tracing_keeps_the_noise_solve_bit_identical():
    plain = _noise_n12()
    tracer = Tracer()
    tracer.install()
    try:
        traced = _noise_n12()
    finally:
        tracer.uninstall()
    assert plain.report.status == traced.report.status == "optimal"
    assert traced.report.objective == plain.report.objective
    assert traced.report.iterations == plain.report.iterations
    assert traced.report.outer_iterations == plain.report.outer_iterations
    assert np.array_equal(traced.w, plain.w)
    totals = tracer.totals()
    assert totals[("setup", "nlp_solver.inner_iterations")] == plain.report.iterations
    assert totals[("setup", "nlp_solver.solve.calls")] == 1


def test_known_calls_add_expected_calls_and_points():
    scn = scenarios.default_scenario(n_intervals=12)
    original_rhs = transcription.rhs_arrays
    tracer = Tracer()
    tracer.install()
    try:
        problem = transcription.assemble(scn)
        w = scenarios.initial_guess(scn)
        tracer.phase = "pass"
        problem.equalities_jacobian(w)
        problem.objective_gradient(w)
    finally:
        tracer.uninstall()
    assert transcription.rhs_arrays is original_rhs
    tot = tracer.totals()
    # 9 complex-step columns, 2 Heun stages each, over the 12 intervals
    assert tot[("pass", "flight_dynamics.rhs_arrays.calls")] == 18
    assert tot[("pass", "flight_dynamics.rhs_arrays.points")] == 18 * 12
    # Leq value plus 6 complex-step columns, over the 13 nodes
    assert tot[("pass", "noise.levels_arrays.calls")] == 7
    assert tot[("pass", "noise.levels_arrays.points")] == 7 * 13
    assert tot[("pass", "transcription.equalities_jacobian.calls")] == 1
    assert tot[("setup", "transcription.assemble.calls")] == 1
    assert tot[("setup", "scenarios.initial_guess.calls")] == 1


def test_self_time_excludes_only_other_layers():
    tracer = Tracer()
    tracer.spans = [
        ("nlp_solver.solve", -1, 0, 100, "pass"),
        ("nlp_solver.kkt_residuals", 0, 10, 40, "pass"),
        ("transcription.objective", 1, 20, 30, "pass"),
        ("noise.levels_arrays", 2, 22, 28, "pass"),
        ("transcription.objective", 0, 50, 60, "pass"),
    ]
    tot = tracer.totals()
    assert tot[("pass", "nlp_solver.solve.self_s")] == pytest.approx(80e-9)
    assert tot[("pass", "nlp_solver.kkt_residuals.self_s")] == pytest.approx(20e-9)
    assert tot[("pass", "transcription.objective.s")] == pytest.approx(20e-9)
    metrics = tracer.metrics(setup_reps=1, passes=2)
    assert metrics["transcription.objective.calls"]["value"] == 1.0


@pytest.mark.parametrize("variant", workloads.CallbacksN100.VARIANTS)
def test_model_build_checks_catch_wrong_derivatives(variant):
    problem, point = workloads.make_model(variant, np.random.default_rng(3), n=12)
    build = workloads.model_build(problem, point)
    assert checks.check_model_build(problem, point, build, np.random.default_rng(4)) == []

    bad = dict(build, H_exact=build["H_exact"] * 1.001)
    found = checks.check_model_build(problem, point, bad, np.random.default_rng(4))
    assert any("hessian" in p for p in found)
    bad = dict(build, g=build["g"] + 1e-3 * np.max(np.abs(build["g"])))
    assert any("gradient" in p for p in
               checks.check_model_build(problem, point, bad, np.random.default_rng(4)))
    shift = np.zeros_like(build["H_convex"])
    shift[0, 0] = -1e-3 * np.max(np.abs(build["H_convex"]))
    bad = dict(build, H_convex=build["H_convex"] + shift)
    assert any("eigenvalue" in p for p in
               checks.check_model_build(problem, point, bad, np.random.default_rng(4)))


def test_evaluation_checks_catch_wrong_outputs(tmp_path):
    bench = workloads.EvaluateN100(5, Tracer(), tmp_path / "eval")
    bench.setup()
    result = bench.run_pass()
    assert (result.attempted, result.failed) == (workloads.N_SEQUENCES, 0)
    assert bench.problems == []

    src, dst, seq = bench.cases[0]
    report = dst / "report.json"
    text = report.read_text()
    report.write_text(text.replace('"consumption_kg": ', '"consumption_kg": 1', 1))
    found = checks.check_evaluation(bench.scn, dst, bench.z0, seq)
    assert any("consumption" in p for p in found)
    with open(dst / "iterations.log", "a") as f:
        f.write("tampered\n")
    found = checks.check_evaluation(bench.scn, dst, bench.z0, seq)
    assert any("manifest" in p for p in found)


def test_probes_inside_a_pass_are_counted_and_left_out_of_its_time(monkeypatch):
    monkeypatch.setattr(hostspeed, "PROBE_INTERVAL_S", 0.0)
    host = hostspeed.HostSpeed()
    owner = SimpleNamespace(f=lambda x: x + 1)
    original = owner.f
    with host.inside_calls(owner, "f"):
        assert [owner.f(1), owner.f(2)] == [2, 3]
    assert owner.f is original
    assert len(host.inside) == 2
    assert host.inside_s >= sum(host.inside) > 0.0


def test_scaling_uses_the_probes_either_side_and_inside():
    ref = hostspeed.REFERENCE_S
    assert run.scaled([1.0, 2.0], [ref, ref, 2.0 * ref]) == pytest.approx([1.0, 2.0 / 1.5])
    assert run.scaled([1.0, 2.0], [ref, ref, 2.0 * ref],
                      [[], [2.0 * ref]]) == pytest.approx([1.0, 1.2])


def test_run_refuses_a_directory_without_the_package(tmp_path):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "noise-n12",
                          "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
