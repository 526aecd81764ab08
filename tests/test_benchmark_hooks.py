"""The benchmark tracer wraps functions by their module and class names.

Installing it here makes a rename or deletion of any traced name fail in
the test suite rather than only when the benchmark runs.  A traced solve
checks that the drivers look the traced functions up where the tracer
wraps them.
"""

import importlib.util
from pathlib import Path

import pytest

from noisedescent import flight_dynamics, noise, scenarios, transcription
from noisedescent.nlp_solver import SolverOptions

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
