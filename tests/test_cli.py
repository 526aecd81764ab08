"""Command-line entry point: argument and config errors exit with code 2,
`evaluate` flies a control file and writes a verified hash manifest,
`compare` exits 1 unless both its solves are optimal, and `sweep` and
`compare` tabulate the same certified solves."""

import csv
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from noisedescent import cli
from noisedescent.nlp_solver import SolveReport
from noisedescent.noise import Observer, leq
from noisedescent.scenarios import _result_from_solution, default_scenario, initial_guess
from noisedescent.transcription import assemble, simulate


def assert_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not out.exists()
    return err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[solver]\nlbfgs_memory = 5\n")
    assert_exits_2(["solve", "--config", str(config)], tmp_path, capsys)


def test_single_interval_grid_exits_2(tmp_path, capsys):
    assert_exits_2(["solve", "--N", "1"], tmp_path, capsys)


def must_not_run(*args, **kwargs):
    raise AssertionError("the input was accepted and a run started")


def controls_file(times=(0.0, 50.0, 100.0, 150.0), header=cli.TRAJECTORY_HEADER, field="0.5"):
    """A controls file in the trajectory.csv layout, every value but t set to `field`."""
    rows = [",".join([repr(t)] + [field] * (len(header) - 1)) for t in times]
    return "\n".join([",".join(header), *rows]) + "\n"


@pytest.mark.parametrize("argv, config, controls", [
    (["solve", "--N", "0"], None, None),
    (["solve", "--tol-feas", "0"], None, None),
    (["solve", "--tol-feas", "-1"], None, None),
    (["solve", "--observers", "0,0;bad"], None, None),
    (["solve"], "[aircraft]\nmass = -1\n", None),
    (["solve"], "[solver]\nfeasibility_tol = 0\n", None),
    (["evaluate", "--controls", "{tmp}/missing.csv"], None, None),
    (["evaluate"], None, controls_file(field="abc")),
    (["evaluate"], None, controls_file(header=[c for c in cli.TRAJECTORY_HEADER if c != "chi"])),
    (["evaluate"], None, controls_file(times=(0.0, 50.0, 110.0, 150.0))),
], ids=["zero-N", "zero-tol", "negative-tol", "bad-observer", "negative-mass",
        "zero-tol-config", "missing-controls", "controls-not-a-number",
        "controls-without-chi", "controls-not-equidistant"])
def test_invalid_input_exits_2(argv, config, controls, tmp_path, capsys, monkeypatch):
    # a value that is ignored instead of rejected would start a run
    monkeypatch.setattr(cli, "run_solve", must_not_run)
    monkeypatch.setattr(cli, "run_evaluate", must_not_run)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if config is not None:
        path = tmp_path / "run.ini"
        path.write_text(config)
        argv += ["--config", str(path)]
    if controls is not None:
        path = tmp_path / "controls.csv"
        path.write_text(controls)
        argv += ["--controls", str(path)]
    err = assert_exits_2(argv, tmp_path, capsys)
    if controls is not None:
        assert err.startswith(f"error: {path}: ")


def test_evaluate_reports_simulated_trajectory(tmp_path):
    # the paper's grid; with 50 s steps at N=12 these controls leave the model domain
    scn = default_scenario(n_intervals=100)
    Z, U, _ = scn.layout().unpack(initial_guess(scn))
    traj = simulate(Z[0], U, scn.grid(), scn.aircraft, scn.atmosphere)
    controls_csv = tmp_path / "controls.csv"
    rows = np.column_stack([traj.times, traj.states, traj.node_controls()])
    controls_csv.write_text("\n".join([",".join(cli.TRAJECTORY_HEADER)]
                                      + [",".join(repr(float(v)) for v in row) for row in rows])
                            + "\n")
    out = tmp_path / "out"

    assert cli.main(["evaluate", "--controls", str(controls_csv), "--out", str(out)]) == 0

    report = json.loads((out / "report.json").read_text())
    assert set(report["manifest"]) == {"trajectory.csv", "iterations.log"}
    for name, digest in report["manifest"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    # the file round-trips exactly, so the re-simulation is the same trajectory
    assert list(report["final_state"].values()) == list(traj.states[-1])
    assert report["leq_db_by_observer"] == [leq(traj, obs, scn.engine, scn.atmosphere)
                                            for obs in scn.observers]


def iteration_limit_solve(scn, opts):
    """Stand-in for `solve_variant`: the initial guess, reported unfinished."""
    problem = assemble(scn)
    w = initial_guess(scn)
    report = SolveReport(status="iteration-limit", objective=float(problem.objective(w)),
                         feasibility_error=1.0, optimality_error=1.0, iterations=1,
                         outer_iterations=1, wall_time=0.0,
                         eq_multipliers=np.zeros(problem.n_eq),
                         ineq_multipliers=np.zeros(problem.n_ineq))
    return _result_from_solution(problem, w, report)


@pytest.mark.parametrize("unfinished", ["noise", "fuel"])
def test_compare_exits_1_unless_both_solves_are_optimal(unfinished, tmp_path, monkeypatch):
    def solve_variant(scn, opts):
        result = iteration_limit_solve(scn, opts)
        if scn.variant != unfinished:
            result.report = dataclasses.replace(result.report, status="optimal")
        return result

    monkeypatch.setattr(cli, "solve_variant", solve_variant)
    out = tmp_path / "out"
    assert cli.main(["compare", "--N", "12", "--observers", "0,0", "--out", str(out)]) == 1
    status = read_json(out / "compare.json")["status"]
    assert status[{"noise": "noise_optimal", "fuel": "fuel_reference"}[unfinished]] \
        == "iteration-limit"


@pytest.fixture(scope="module")
def sweep_and_compare(tmp_path_factory):
    """One-observer `sweep` and `compare` runs at N=12."""
    root = tmp_path_factory.mktemp("tables")
    args = ["--N", "12", "--observers", "0,0"]
    codes = (cli.main(["sweep", *args, "--out", str(root / "sweep")]),
             cli.main(["compare", *args, "--out", str(root / "compare")]))
    return codes, root / "sweep", root / "compare"


def read_json(path):
    return json.loads(path.read_text())


@pytest.mark.slow
def test_sweep_and_compare_certify(sweep_and_compare):
    codes, sweep, compare = sweep_and_compare
    assert codes == (0, 0)
    reports = [sweep / "fuel_reference", sweep / "obs_000",
               compare / "fuel_reference", compare / "noise_optimal"]
    assert [read_json(d / "report.json")["status"] for d in reports] == ["optimal"] * 4
    assert [row["status"] for row in read_json(sweep / "summary.json")] == ["optimal"]


@pytest.mark.slow
def test_sweep_table_reads_its_solves(sweep_and_compare):
    _, sweep, _ = sweep_and_compare
    with open(sweep / "summary.csv", newline="") as f:
        (row,) = list(csv.DictReader(f))
    assert float(row["J_db"]) == read_json(sweep / "obs_000" / "report.json")["objective"]
    scn = default_scenario()
    fuel = cli.read_trajectory_csv(sweep / "fuel_reference" / "trajectory.csv")
    assert float(row["J1_db"]) == leq(fuel, Observer(0.0, 0.0), scn.engine, scn.atmosphere)


@pytest.mark.slow
def test_compare_agrees_with_sweep(sweep_and_compare):
    _, sweep, compare = sweep_and_compare
    (row,) = read_json(sweep / "summary.json")
    comparison = read_json(compare / "compare.json")
    assert comparison["observer"] == [row["x_obs"], row["y_obs"]]
    for key in ("J_db", "J1_db", "J1_minus_J_db", "pct_co_of_tr", "pct_co_of_tr1"):
        assert comparison[key] == pytest.approx(row[key], rel=1e-12), key
