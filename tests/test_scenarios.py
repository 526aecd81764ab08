"""End-to-end solves of the reference scenario at N=12: certified optima,
an independent KKT recheck on a freshly assembled problem, and byte-stable
CLI output; and the wall time of a solve through the continuation ladder."""

import pytest

from noisedescent import cli, scenarios
from noisedescent.nlp_solver import SolverOptions, kkt_residuals
from noisedescent.noise import Observer
from noisedescent.scenarios import default_scenario, solve_variant
from noisedescent.transcription import assemble

pytestmark = pytest.mark.slow

# certified objectives (dB, kg); their last digits move with the BLAS
# thread count, hence the relative tolerance
REFERENCE = {"noise": 46.46725601748521, "fuel": 190.87551245699288}
# (inner, outer) iterations: the same at one and two BLAS threads, so a
# change that moves them moves the solve, whatever the thread count
ITERATIONS = {"noise": (400, 8), "fuel": (650, 13)}
# (trial_points, trial_batches) of the line search, also the same at one
# and two BLAS threads: the fuel solve takes the one-at-a-time fallback
TRIALS = {"noise": (5120, 640), "fuel": (10591, 1330)}


def reference_scenario(variant):
    return default_scenario(n_intervals=12, observers=(Observer(0.0, 0.0),),
                            variant=variant)


@pytest.mark.parametrize("variant", sorted(REFERENCE))
def test_reference_variant_is_certified(variant):
    scn = reference_scenario(variant)
    opts = SolverOptions()
    result = solve_variant(scn, opts)
    rep = result.report
    assert rep.status == "optimal", rep.message
    assert rep.objective == pytest.approx(REFERENCE[variant], rel=1e-9)
    assert (rep.iterations, rep.outer_iterations) == ITERATIONS[variant]
    assert (rep.trial_points, rep.trial_batches) == TRIALS[variant]
    feas, opt = kkt_residuals(assemble(scn), result.w, rep.eq_multipliers,
                              rep.ineq_multipliers)
    assert feas <= opts.feasibility_tol
    assert opt <= opts.optimality_tol


def column(path, name):
    """One column of a CSV file, as the strings written."""
    header, *rows = path.read_text().splitlines()
    j = header.split(",").index(name)
    return [row.split(",")[j] for row in rows]


def test_solve_writes_byte_identical_trajectory(tmp_path):
    scn = reference_scenario("noise")
    for run in ("first", "second"):
        cli.run_solve(scn, SolverOptions(), tmp_path / run, terms_csv=True)
    first = (tmp_path / "first" / "trajectory.csv").read_bytes()
    assert first
    assert first == (tmp_path / "second" / "trajectory.csv").read_bytes()
    # the term table's total is the level the trajectory reports
    totals = column(tmp_path / "first" / "noise_terms_obs0.csv", "total")
    assert totals == column(tmp_path / "first" / "trajectory.csv", "L_P_obs0")


def test_ladder_wall_time_covers_every_rung(monkeypatch):
    # N=25 climbs the ladder 13 -> 25: two solves
    reports = []

    def recorded(*args, **kwargs):
        w, report = solve(*args, **kwargs)
        reports.append(report)
        return w, report

    solve = scenarios.solve
    monkeypatch.setattr(scenarios, "solve", recorded)
    result = solve_variant(default_scenario(n_intervals=25), SolverOptions(max_outer=1))
    assert len(reports) == 2
    assert result.report.wall_time >= sum(report.wall_time for report in reports)
