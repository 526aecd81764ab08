"""End-to-end solves of the reference scenario at N=12: certified optima,
an independent KKT recheck on a freshly assembled problem, and byte-stable
CLI output; the report of a solve through the continuation ladder; and
the fuel cap of the capped variant."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noisedescent
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
TRIALS = {"noise": (7024, 439), "fuel": (13151, 855)}


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


# sha256 prefixes of the certified w's bytes with one BLAS thread
HASHES = {"noise": "c50eb413eb432068", "fuel": "941a6a677ed9d56e"}
HASH_PROBE = """
import hashlib, json
from noisedescent.noise import Observer
from noisedescent.nlp_solver import SolverOptions
from noisedescent.scenarios import default_scenario, solve_variant
hashes = {}
for variant in %r:
    scn = default_scenario(n_intervals=12, observers=(Observer(0.0, 0.0),), variant=variant)
    hashes[variant] = hashlib.sha256(solve_variant(scn, SolverOptions()).w.tobytes()).hexdigest()
print(json.dumps(hashes))
"""


def test_reference_solves_keep_their_bits():
    """The reference `noise` and `fuel` solves at N=12 end on the same bytes.

    The AL solve certifies from few starts (ROADMAP item 3), so a change
    meant to keep results keeps them bit for bit, and this checks it: a
    child process with one BLAS thread, whose bits do not depend on the
    machine's cores, solves both and hashes w.  It goes when ROADMAP item 3
    (a solver that certifies from perturbed starts) or item 12 (golden
    trajectories rechecked by the certificate) lands.
    """
    src = str(Path(noisedescent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run([sys.executable, "-c", HASH_PROBE % (tuple(HASHES),)],
                         capture_output=True, text=True, env=env, timeout=600, check=True)
    hashes = json.loads(out.stdout.splitlines()[-1])
    assert {variant: h[:16] for variant, h in hashes.items()} == HASHES


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
    # N=25 climbs the ladder 13 -> 25: two solves, and the report's wall
    # time covers both, as do its counts and its iteration log
    reports = []

    def recorded(*args, **kwargs):
        w, report = solve(*args, **kwargs)
        reports.append(report)
        return w, report

    solve = scenarios.solve
    monkeypatch.setattr(scenarios, "solve", recorded)
    result = solve_variant(default_scenario(n_intervals=25, variant="fuel"),
                           SolverOptions(max_outer=1))
    assert len(reports) == 2
    assert result.report.wall_time >= sum(report.wall_time for report in reports)
    # and so do its iteration and trial counts
    for name in ("iterations", "outer_iterations", "trial_points", "trial_batches"):
        assert getattr(result.report, name) == sum(getattr(r, name) for r in reports)
    assert reports[0].iterations > 0
    # the N=13 rung's records first
    assert reports[0].iteration_log
    assert result.report.iteration_log == reports[0].iteration_log + reports[1].iteration_log


def test_capped_variant_caps_the_fuel_solve_consumption(monkeypatch):
    # noise_fuel_capped first solves the fuel variant of its scenario; the
    # cap it assembles with is fuel_cap_factor times that consumption
    assembled, results = [], []
    assemble_, solve_variant_ = scenarios.assemble, scenarios.solve_variant

    def spied_assemble(scn, fuel_cap=None):
        assembled.append((scn.variant, fuel_cap))
        return assemble_(scn, fuel_cap=fuel_cap)

    def spied_solve_variant(scn, opts=None):
        results.append(solve_variant_(scn, opts))
        return results[-1]

    monkeypatch.setattr(scenarios, "assemble", spied_assemble)
    monkeypatch.setattr(scenarios, "solve_variant", spied_solve_variant)
    scn = reference_scenario("noise_fuel_capped")
    capped = scenarios.solve_variant(scn, SolverOptions(max_outer=1))
    fuel = results[0]
    assert (fuel.variant, capped.variant) == ("fuel", "noise_fuel_capped")
    assert assembled == [("fuel", None),
                         ("noise_fuel_capped", scn.fuel_cap_factor * fuel.consumption_kg)]
