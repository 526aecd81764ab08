"""Command-line entry point: argument and config errors exit with code 2,
and `evaluate` flies a control file and writes a verified hash manifest."""

import hashlib
import json

import numpy as np

from noisedescent import cli
from noisedescent.noise import leq
from noisedescent.scenarios import default_scenario, initial_guess
from noisedescent.transcription import simulate


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[solver]\nlbfgs_memory = 5\n")
    assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_single_interval_grid_exits_2(tmp_path, capsys):
    assert cli.main(["solve", "--N", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


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
