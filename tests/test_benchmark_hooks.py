"""The benchmark tracer wraps functions by their module and class names.

Installing it here makes a rename or deletion of any traced name fail in
the test suite rather than only when the benchmark runs.  A traced solve
checks that the drivers look the traced functions up where the tracer
wraps them, and a traced evaluation that it scores every observer in one
kernel call.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from noisedescent import cli, flight_dynamics, noise, scenarios, transcription
from noisedescent.nlp_solver import SolverOptions
from noisedescent.noise import Observer

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    traced = [(transcription, "rhs_arrays"), (flight_dynamics, "rhs_arrays"),
              (noise, "levels_arrays"), (noise, "leq"), (scenarios, "solve"),
              (scenarios, "assemble"), (scenarios, "initial_guess"),
              (transcription._Transcription, "lagrangian_hessian")]
    originals = [owner.__dict__[name] for owner, name in traced]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[name] is not original
                   for (owner, name), original in zip(traced, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[name] is original
               for (owner, name), original in zip(traced, originals))


@pytest.mark.slow
def test_ladder_solve_is_traced_at_every_layer():
    # N=25 climbs the ladder 13 -> 25: one coarse rung plus the final one
    scn = scenarios.default_scenario(n_intervals=25)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        scenarios.solve_variant(scn, SolverOptions(max_outer=1))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals[("setup", "nlp_solver.solve.calls")] == 2
    assert totals[("setup", "transcription.assemble.calls")] == 2
    # only the coarsest rung starts from the initial guess
    assert totals[("setup", "scenarios.initial_guess.calls")] == 1
    # the solver factorises through the name the tracer wraps
    assert totals[("setup", "nlp_solver.cholesky.calls")] > 0


def test_evaluate_scores_every_observer_in_one_kernel_call(tmp_path):
    # the first 12 intervals of the reference controls, flown at the paper's
    # step: 50 s steps of the N=12 grid would leave the model domain
    scn = scenarios.default_scenario(
        n_intervals=100,
        observers=(Observer(0.0, 0.0), Observer(20000.0, 2500.0), Observer(40000.0, 5000.0)))
    Z, U, _ = scn.layout().unpack(scenarios.initial_guess(scn))
    traj = transcription.simulate(Z[0], U, scn.grid(), scn.aircraft, scn.atmosphere)
    rows = np.column_stack([traj.times, traj.states, traj.node_controls()])[:13]
    controls = tmp_path / "controls.csv"
    controls.write_text("\n".join([",".join(cli.TRAJECTORY_HEADER)]
                                  + [",".join(repr(float(v)) for v in row) for row in rows])
                        + "\n")
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        report = cli.run_evaluate(scn, controls, tmp_path / "out")
    finally:
        tracer.uninstall()
    assert len(report["leq_db_by_observer"]) == 3
    totals = tracer.totals()
    assert totals[("setup", "noise.levels_arrays.calls")] == 1
    assert totals[("setup", "transcription.simulate.calls")] == 1
    assert totals[("setup", "cli.write_run_outputs.calls")] == 1


def test_benchmark_model_builds_pass_their_checks(monkeypatch):
    # the callbacks workload's models at N=12: its row counts, multiplier
    # layout and derivative checks hold against the program
    monkeypatch.syspath_prepend(str(TRACER.parent))
    import checks
    import workloads
    rng = np.random.default_rng(21)
    for variant in workloads.CallbacksN100.VARIANTS:
        problem, point = workloads.make_model(variant, rng, 12)
        build = workloads.model_build(problem, point)
        assert checks.check_model_build(problem, point, build, rng) == [], variant
