"""Command-line entry point: argument and config errors, and flags that a
subcommand does not read, exit with code 2 before a run starts;
`evaluate` flies a control file, echoes the grid it flew and writes
byte-stable outputs with a verified hash manifest; `sweep` exits 1 unless
its noise solves and its fuel reference are all optimal, and its table
reads the certified solves it writes."""

import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from noisedescent import cli, noise
from noisedescent.nlp_solver import SolveReport, SolverOptions
from noisedescent.noise import Observer, Trajectory, leq, levels_at
from noisedescent.scenarios import _result_from_solution, default_scenario, initial_guess
from noisedescent.transcription import assemble, simulate


def assert_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out"
    try:
        code = cli.main(argv + ["--out", str(out)])
    except SystemExit as exc:
        # argparse rejects an unknown subcommand or flag after its usage line
        code, prefix = exc.code, "usage:"
    else:
        prefix = "error:"
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(prefix) and "error: " in err
    assert not out.exists()
    return err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[solver]\nlbfgs_memory = 5\n")
    assert_exits_2(["solve", "--config", str(config)], tmp_path, capsys)


def test_single_interval_grid_exits_2(tmp_path, capsys):
    assert_exits_2(["solve", "--N", "1"], tmp_path, capsys)


@pytest.mark.parametrize("flag, value, message", [
    ("--N", "1", "need at least 2 grid intervals"),
    ("--tol-feas", "inf", "feasibility_tol must be finite"),
    ("--tol-opt", "-1", "optimality_tol must be finite"),
    ("--observers", "inf,0", "observer coordinates must be finite"),
])
def test_value_a_settings_class_rejects_names_its_flag(flag, value, message, tmp_path, capsys):
    err = assert_exits_2(["solve", flag, value], tmp_path, capsys)
    assert err.startswith(f"error: {message}") and f"(key '{flag}')" in err


def must_not_run(*args, **kwargs):
    raise AssertionError("the input was accepted and a run started")


def controls_file(times=(0.0, 50.0, 100.0, 150.0), header=cli.TRAJECTORY_HEADER, field="0.5",
                  replace=None):
    """A controls file in the trajectory.csv layout, every value but t set to
    `field`; `replace` = (row, column, text) sets one field of a data row."""
    rows = [[repr(t)] + [field] * (len(header) - 1) for t in times]
    if replace is not None:
        row, column, text = replace
        rows[row][list(header).index(column)] = text
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


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
    (["compare"], None, None),
    (["evaluate", "--variant", "fuel"], None, controls_file()),
    (["evaluate", "--tol-feas", "1"], None, controls_file()),
    (["solve", "--jobs", "2"], None, None),
    (["solve", "--seed", "1"], None, None),
    (["sweep", "--jobs", "0"], None, None),
    (["sweep", "--jobs", "-3"], None, None),
    (["solve", "--tol-feas", "nan"], None, None),
    (["solve", "--observers", "nan,0"], None, None),
    (["solve"], "[aircraft]\nmass = nan\n", None),
    (["solve"], "[scenario]\nh0 = nan\n", None),
    (["solve"], "[solver]\nfeasibility_tol = nan\n", None),
    (["evaluate"], None, controls_file(replace=(1, "alpha", "nan"))),
    (["evaluate"], None, controls_file(replace=(0, "V", "inf"))),
    (["evaluate"], None, controls_file(replace=(2, "h", "-inf"))),
    (["evaluate"], None, controls_file(replace=(1, "t", "nan"))),
    (["solve"], "[solver]\ninitial_penalty = 0\n", None),
    (["solve"], "[solver]\ninitial_penalty = -1\n", None),
    (["solve"], "[solver]\nmax_outer = 0\n", None),
    (["solve"], "[solver]\ninner_maxiter = 0\n", None),
], ids=["zero-N", "zero-tol", "negative-tol", "bad-observer", "negative-mass",
        "zero-tol-config", "missing-controls", "controls-not-a-number",
        "controls-without-chi", "controls-not-equidistant", "compare",
        "evaluate-variant", "evaluate-tol", "solve-jobs", "solve-seed", "zero-jobs",
        "negative-jobs", "nan-tol", "nan-observer", "nan-mass", "nan-h0", "nan-tol-config",
        "nan-alpha", "inf-V", "inf-h", "nan-t", "zero-penalty", "negative-penalty",
        "zero-outer", "zero-inner"])
def test_invalid_input_exits_2(argv, config, controls, tmp_path, capsys, monkeypatch):
    # a value that is ignored instead of rejected would start a run: a
    # solve, a sweep, or the flight or the writes of an evaluation, which
    # reads its controls file itself
    for run in ("run_solve", "run_sweep", "simulate", "write_run_outputs"):
        monkeypatch.setattr(cli, run, must_not_run)
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
    if controls is not None and err.startswith("error:"):
        assert err.startswith(f"error: {path}: ")


def strict_json(path):
    """The file's JSON; NaN and Infinity, which strict parsers reject, raise."""
    def reject(name):
        raise ValueError(f"{path.name} holds the non-standard constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1e-300, 1e300, 0.1, math.nan, math.inf,
                                   -math.inf])
def test_csv_fields_are_written_as_format_17g(value):
    text = cli._csv_text(("a", "b"), np.array([[value, 1.0 / 3.0]]))
    assert text == f"a,b\n{format(value, '.17g')},{format(1.0 / 3.0, '.17g')}\n"


def write_controls(path, traj):
    """The trajectory written as a controls file, every field as repr."""
    rows = np.column_stack([traj.times, traj.states, traj.node_controls()])
    path.write_text("\n".join([",".join(cli.TRAJECTORY_HEADER)]
                               + [",".join(repr(float(v)) for v in row) for row in rows])
                    + "\n")
    return path


def simulated_controls(tmp_path):
    """Scenario at N=100, its initial-guess controls flown from the first
    guess state, and that trajectory written as a controls file."""
    # the paper's grid; with 50 s steps at N=12 these controls leave the model domain
    scn = default_scenario(n_intervals=100)
    Z, U, _ = scn.layout().unpack(initial_guess(scn))
    traj = simulate(Z[0], U, scn.grid(), scn.aircraft, scn.atmosphere)
    return scn, traj, write_controls(tmp_path / "controls.csv", traj)


@pytest.mark.parametrize("h0, reason", [
    (None, "airspeed too close to zero"),
    # the density law's base overflows a float power
    (-1e300, ""),
], ids=["singular-state", "overflow"])
def test_evaluate_out_of_the_model_domain_exits_2(h0, reason, tmp_path, capsys):
    # the N=12 guess: its controls, flown in 50 s Heun steps, stall the aircraft
    scn = default_scenario(n_intervals=12)
    Z, U, _ = scn.layout().unpack(initial_guess(scn))
    if h0 is not None:
        Z[0, 5] = h0
    path = write_controls(tmp_path / "controls.csv", Trajectory(scn.grid().times(), Z, U))
    err = assert_exits_2(["evaluate", "--controls", str(path)], tmp_path, capsys)
    assert err.startswith(f"error: {path}: {reason}")


@pytest.mark.parametrize("replace, message", [
    ((3, "alpha", "nan"), "non-finite alpha in data row 4"),
    ((0, "V", "inf"), "non-finite V in data row 1"),
    ((100, "t", "-inf"), "non-finite t in data row 101"),
    ((7, "t", "42.5"), r"increase in equal steps, and times\[7\] does not"),
    ((7, "t", "30.0"), r"increase in equal steps, and times\[7\] does not"),
], ids=["nan-alpha", "inf-V", "inf-t", "uneven-step", "repeated-time"])
def test_evaluate_rejects_what_it_cannot_fly(replace, message, tmp_path):
    # through the API: the N=100 guess with one field replaced is rejected
    # before anything is written
    scn, _, controls_csv = simulated_controls(tmp_path)
    lines = controls_csv.read_text().splitlines()
    row, column, text = replace
    fields = lines[1 + row].split(",")
    fields[cli.TRAJECTORY_HEADER.index(column)] = text
    lines[1 + row] = ",".join(fields)
    controls_csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        cli.run_evaluate(scn, controls_csv, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_evaluate_blames_the_controls_file_only_for_its_flight(tmp_path, monkeypatch):
    # a ValueError after the flight is a fault of the program, not of the
    # file: it is raised, not reported as `error: <file>: ...` with exit 2
    _, _, controls_csv = simulated_controls(tmp_path)

    def broken(*args, **kwargs):
        raise ValueError("broken writer")

    monkeypatch.setattr(cli, "write_run_outputs", broken)
    argv = ["evaluate", "--controls", str(controls_csv), "--out", str(tmp_path / "out")]
    with pytest.raises(ValueError, match="broken writer"):
        cli.main(argv)


def test_evaluate_reads_its_controls_once(tmp_path, monkeypatch):
    _, _, controls_csv = simulated_controls(tmp_path)
    read, calls = cli.read_trajectory_csv, []

    def counted(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(cli, "read_trajectory_csv", counted)
    argv = ["evaluate", "--controls", str(controls_csv), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert calls == [controls_csv]


def test_evaluate_reports_simulated_trajectory(tmp_path):
    scn, traj, controls_csv = simulated_controls(tmp_path)
    out = tmp_path / "out"

    assert cli.main(["evaluate", "--controls", str(controls_csv), "--out", str(out)]) == 0

    report = strict_json(out / "report.json")
    # no solve ran, so no solver field is reported
    assert not {"status", "objective", "iterations", "feasibility_error"} & set(report)
    assert set(report["manifest"]) == {"trajectory.csv", "iterations.log"}
    for name, digest in report["manifest"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    # the file round-trips exactly, so the re-simulation is the same trajectory
    assert list(report["final_state"].values()) == list(traj.states[-1])
    assert report["leq_db_by_observer"] == [leq(traj, obs, scn.engine, scn.atmosphere)
                                            for obs in scn.observers]
    written = cli.read_trajectory_csv(out / "trajectory.csv")
    with open(out / "trajectory.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    for j, obs in enumerate(scn.observers):
        assert [float(row[f"L_P_obs{j}"]) for row in rows] == list(
            levels_at(written, (obs,), scn.engine, scn.atmosphere)[0])


def test_evaluate_echoes_the_grid_it_flew(tmp_path):
    scn, _, controls_csv = simulated_controls(tmp_path)
    # the first 12 of the 100 six-second intervals: a grid ending at t=72
    first = tmp_path / "first.csv"
    first.write_text("\n".join(controls_csv.read_text().splitlines()[:14]) + "\n")
    cli.run_evaluate(scn, first, tmp_path / "out")

    config = strict_json(tmp_path / "out" / "report.json")["config"]
    assert (config["N"], config["tf"]) == (12, 72.0)
    assert (scn.n_intervals, scn.tf) == (100, 600.0)


def test_evaluate_outputs_are_byte_stable(tmp_path):
    scn, _, controls_csv = simulated_controls(tmp_path)
    copy = tmp_path / "copy.csv"
    copy.write_bytes(controls_csv.read_bytes())
    cli.run_evaluate(scn, controls_csv, tmp_path / "a")
    cli.run_evaluate(scn, copy, tmp_path / "b")

    a, b = tmp_path / "a", tmp_path / "b"
    for name in ("trajectory.csv", "iterations.log"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    text_a, text_b = (a / "report.json").read_text(), (b / "report.json").read_text()
    assert text_a != text_b
    # the controls file's path is the only difference, byte for byte
    assert text_a.replace(json.dumps(str(controls_csv)), json.dumps(str(copy))) == text_b


def test_corrupted_write_fails_the_manifest_check(tmp_path, monkeypatch):
    scn, _, controls_csv = simulated_controls(tmp_path)
    write = cli._atomic_write

    def corrupting_write(path, text):
        write(path, text.replace("0", "1", 1) if path.name == "trajectory.csv" else text)

    monkeypatch.setattr(cli, "_atomic_write", corrupting_write)
    with pytest.raises(RuntimeError, match="manifest hash mismatch for trajectory.csv"):
        cli.run_evaluate(scn, controls_csv, tmp_path / "out")
    assert not (tmp_path / "out" / "report.json").exists()


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


def test_a_solve_is_scored_once(tmp_path, monkeypatch):
    # trajectory.csv is written with the node levels the result carries
    unpatched, calls = noise.levels_at, []

    def levels_at(*args, **kwargs):
        calls.append(args)
        return unpatched(*args, **kwargs)

    monkeypatch.setattr(noise, "levels_at", levels_at)
    monkeypatch.setattr(cli, "solve_variant", iteration_limit_solve)
    scn = default_scenario(n_intervals=12, observers=(Observer(0.0, 0.0),
                                                      Observer(20000.0, 2500.0)))
    cli.run_solve(scn, SolverOptions(), tmp_path)
    assert len(calls) == 1


def test_solve_flags_set_the_variant_and_the_optimality_tolerance(tmp_path, monkeypatch):
    seen = []

    def solve_variant(scn, opts):
        seen.append((scn.variant, opts))
        return iteration_limit_solve(scn, opts)

    monkeypatch.setattr(cli, "solve_variant", solve_variant)
    out = tmp_path / "out"
    assert cli.main(["solve", "--N", "12", "--variant", "fuel", "--tol-opt", "1e-4",
                     "--out", str(out)]) == 1
    assert seen == [("fuel", SolverOptions(optimality_tol=1e-4))]
    assert read_json(out / "report.json")["variant"] == "fuel"


def test_nonfinite_solver_floats_are_written_as_null(tmp_path, monkeypatch):
    # a solve that fails before its first evaluation has no objective value
    def solve_variant(scn, opts):
        result = iteration_limit_solve(scn, opts)
        result.report = dataclasses.replace(result.report, objective=math.nan,
                                            feasibility_error=math.inf)
        return result

    monkeypatch.setattr(cli, "solve_variant", solve_variant)
    out = tmp_path / "out"
    assert cli.main(["solve", "--N", "12", "--out", str(out)]) == 1
    report = strict_json(out / "report.json")
    assert report["objective"] is None and report["feasibility_error"] is None
    assert report["optimality_error"] == 1.0


@pytest.mark.parametrize("unfinished", ["noise", "fuel"])
def test_sweep_exits_1_unless_both_solves_are_optimal(unfinished, tmp_path, monkeypatch):
    def solve_variant(scn, opts):
        result = iteration_limit_solve(scn, opts)
        if scn.variant != unfinished:
            result.report = dataclasses.replace(result.report, status="optimal")
        return result

    monkeypatch.setattr(cli, "solve_variant", solve_variant)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--N", "12", "--observers", "0,0", "--out", str(out)]) == 1
    (row,) = read_json(out / "summary.json")
    assert {"noise": row["status"], "fuel": row["fuel_status"]} == {
        variant: "iteration-limit" if variant == unfinished else "optimal"
        for variant in ("noise", "fuel")}
    with open(out / "summary.csv", newline="") as f:
        (csv_row,) = list(csv.DictReader(f))
    assert list(csv_row)[-1] == "fuel_status"
    assert csv_row["fuel_status"] == row["fuel_status"]


@pytest.mark.parametrize("config, flag, swept", [
    ("[scenario]\nobservers = 0,0; 20000,2500\n", [], [(0.0, 0.0), (20000.0, 2500.0)]),
    ("[scenario]\nobservers = 0,0; 20000,2500\n", ["--observers", "40000,0"],
     [(40000.0, 0.0)]),
    ("[solver]\nmax_outer = 1\n", [], list(cli.SWEEP_OBSERVERS))],
    ids=["config", "flag", "neither"])
def test_sweep_observers_come_from_the_flag_else_the_config_else_the_table(
        config, flag, swept, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "solve_variant", iteration_limit_solve)
    path = tmp_path / "run.ini"
    path.write_text(config)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--N", "12", "--out", str(out)]
                    + flag) == 1
    assert [(row["x_obs"], row["y_obs"]) for row in read_json(out / "summary.json")] == swept


def test_sweep_in_worker_processes_matches_the_serial_sweep(tmp_path):
    scn = default_scenario(n_intervals=12)
    opts = SolverOptions(max_outer=1, inner_maxiter=5)
    observers = [(0.0, 0.0), (20000.0, 2500.0)]
    rows = {jobs: cli.run_sweep(scn, opts, tmp_path / f"jobs{jobs}", observers, jobs=jobs)
            for jobs in (1, 2)}
    for i in range(len(observers)):
        name = f"obs_{i:03d}/trajectory.csv"
        assert (tmp_path / "jobs1" / name).read_bytes() == (tmp_path / "jobs2" / name).read_bytes()
    assert [{**row, "cpu_s": None} for row in rows[1]] == [
        {**row, "cpu_s": None} for row in rows[2]]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Exit code and output directory of a one-observer `sweep` at N=12."""
    out = tmp_path_factory.mktemp("sweep")
    return cli.main(["sweep", "--N", "12", "--observers", "0,0", "--out", str(out)]), out


def read_json(path):
    return json.loads(path.read_text())


@pytest.mark.slow
def test_sweep_certifies(sweep):
    code, out = sweep
    assert code == 0
    reports = [out / "fuel_reference", out / "obs_000"]
    assert [read_json(d / "report.json")["status"] for d in reports] == ["optimal"] * 2
    assert [(row["status"], row["fuel_status"]) for row in read_json(out / "summary.json")] \
        == [("optimal", "optimal")]


@pytest.mark.slow
def test_sweep_table_reads_its_solves(sweep):
    _, out = sweep
    with open(out / "summary.csv", newline="") as f:
        (row,) = list(csv.DictReader(f))
    noise_report = read_json(out / "obs_000" / "report.json")
    fuel_report = read_json(out / "fuel_reference" / "report.json")
    assert float(row["J_db"]) == noise_report["objective"]
    scn = default_scenario()
    fuel = cli.read_trajectory_csv(out / "fuel_reference" / "trajectory.csv")
    assert float(row["J1_db"]) == leq(fuel, Observer(0.0, 0.0), scn.engine, scn.atmosphere)
    assert float(row["J1_minus_J_db"]) == float(row["J1_db"]) - float(row["J_db"])
    co_tr, co_tr1 = noise_report["consumption_kg"], fuel_report["consumption_kg"]
    assert float(row["pct_co_of_tr"]) == 100.0 * (co_tr - co_tr1) / co_tr
    assert float(row["pct_co_of_tr1"]) == 100.0 * (co_tr - co_tr1) / co_tr1
