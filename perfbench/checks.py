"""Output checks made apart from the program.

Each function returns a list of problems (empty when the output is
correct).  The checks use properties the method must have or quantities
the benchmark computes itself: central finite differences, its own
trapezoid rules and atmosphere formulas, a bit-exact CSV round trip and
the manifest hashes.  None compares against a stored copy of an earlier
output.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from noisedescent import cli, flight_dynamics, nlp_solver, noise, transcription

FD_STEP = 1e-6        # scaled central-difference step for values
FD_HESSIAN_STEP = 1e-4  # scaled step for differencing exact gradients
FD_SAMPLE = 8         # columns checked per derivative matrix
GRAD_TOL = 1e-6       # derivative mismatch allowed, relative to the matrix's largest entry
HESSIAN_TOL = 1e-5
EIG_TOL = 1e-10       # eigenvalue floor of the convexified model, relative to its largest
LEVEL_TOL = 1e-9      # dB
REL_TOL = 1e-12


def _mismatch(name, got, want, tol, scale):
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= tol * max(scale, 1e-300):
        return [f"{name}: finite-difference mismatch {err:.3e} (scale {scale:.3e})"]
    return []


# ----- callbacks-n100: one model build -------------------------------------


def lagrangian_gradient(problem, w, sigma, eq_mult, ineq_mult):
    """sigma*grad f + J_eq^T eq_mult + J_in^T ineq_mult, from the program's gradients."""
    return (sigma * problem.objective_gradient(w)
            + problem.equalities_jacobian(w).T @ eq_mult
            + problem.inequalities_jacobian(w).T @ ineq_mult)


def check_model_build(problem, point, build, rng) -> list[str]:
    """Gradient, Jacobian and Hessian columns against central differences,
    Hessian symmetry, the convexified model's spectrum and the
    feasibility part of kkt_residuals."""
    w, s = point.w, problem.x_scale
    problems = []
    for key, value in build.items():
        if not np.all(np.isfinite(value)):
            problems.append(f"{key}: non-finite entries")
    if problems:
        return problems
    cols = rng.choice(problem.n_vars, size=FD_SAMPLE, replace=False)

    def shifted(j, step):
        e = np.zeros_like(w)
        e[j] = step * s[j]
        return w + e, w - e

    g_scaled = build["g"] * s
    for j in cols:
        wp, wm = shifted(j, FD_STEP)
        fd = (problem.objective(wp) - problem.objective(wm)) / (2 * FD_STEP)
        problems += _mismatch(f"gradient[{j}]", g_scaled[j], fd, GRAD_TOL,
                              float(np.max(np.abs(g_scaled))))
        for rows, jac, scale in (("equalities", "J_eq", problem.eq_scale),
                                 ("inequalities", "J_in", problem.ineq_scale)):
            fn = getattr(problem, rows)
            fd = (fn(wp) - fn(wm)) / (2 * FD_STEP) / scale
            col = build[jac][:, j] * s[j] / scale
            problems += _mismatch(f"{jac}[:, {j}]", col, fd, GRAD_TOL,
                                  float(np.max(np.abs(build[jac] * s / scale[:, None]))))

    H_scaled = build["H_exact"] * np.outer(s, s)
    sigma = 1.0 / problem.f_scale
    for j in cols:
        wp, wm = shifted(j, FD_HESSIAN_STEP)
        fd = s * (lagrangian_gradient(problem, wp, sigma, point.eq_mult, point.ineq_mult)
                  - lagrangian_gradient(problem, wm, sigma, point.eq_mult, point.ineq_mult)) \
            / (2 * FD_HESSIAN_STEP)
        problems += _mismatch(f"hessian[:, {j}]", H_scaled[:, j], fd, HESSIAN_TOL,
                              float(np.max(np.abs(H_scaled))))

    for key in ("H_exact", "H_convex"):
        H = build[key]
        asym = float(np.max(np.abs(H - H.T)))
        if asym > REL_TOL * float(np.max(np.abs(H))):
            problems.append(f"{key}: not symmetric ({asym:.3e})")
    eig = np.linalg.eigvalsh(build["H_convex"] * np.outer(s, s))
    if eig[0] < -EIG_TOL * max(float(np.max(np.abs(eig))), 1e-300):
        problems.append(f"H_convex: eigenvalue {eig[0]:.3e} below zero")

    # feasibility: max scaled violation over rows and variable bounds
    c_in = build["c_in"] / problem.ineq_scale
    in_lo, in_hi = problem.ineq_lower / problem.ineq_scale, problem.ineq_upper / problem.ineq_scale
    feas = max(float(np.max(np.abs(build["c_eq"] / problem.eq_scale))),
               float(np.max(np.maximum(np.maximum(c_in - in_hi, in_lo - c_in), 0.0))),
               float(np.max(np.maximum(problem.lower - w, 0.0) / s)),
               float(np.max(np.maximum(w - problem.upper, 0.0) / s)))
    if not math.isclose(build["kkt"][0], feas, rel_tol=1e-9, abs_tol=1e-15):
        problems.append(f"kkt_residuals feasibility {build['kkt'][0]!r} != {feas!r}")
    if not build["kkt"][1] >= 0.0:
        problems.append("kkt_residuals optimality error is negative")
    return problems


# ----- noise-n12: a certified solve ----------------------------------------


def check_solution(scn, opts, result, fresh_problem) -> list[str]:
    """Certificate, objective, boundary conditions, node bounds and defects
    of one solve that ended optimal, rechecked on a freshly assembled problem."""
    rep = result.report
    problems = []
    tol_f, tol_o = opts.feasibility_tol, opts.optimality_tol
    feas, opt = nlp_solver.kkt_residuals(fresh_problem, result.w, rep.eq_multipliers,
                                         rep.ineq_multipliers)
    if not (feas <= tol_f and opt <= tol_o):
        problems.append(f"kkt recheck failed: feasibility {feas:.3e}, optimality {opt:.3e}")

    traj = result.trajectory
    obs = scn.observers[0]
    level = noise.leq(traj, obs, scn.engine, scn.atmosphere)
    if abs(level - rep.objective) > LEVEL_TOL:
        problems.append(f"objective {rep.objective!r} != Leq {level!r}")

    Z, U = traj.states, traj.controls
    state_scale = fresh_problem.eq_scale[:6]
    boundary_scale = fresh_problem.eq_scale[-7:]
    got = np.array([Z[0, 3], Z[0, 4], Z[0, 5], Z[0, 0], Z[-1, 3], Z[-1, 4], Z[-1, 5]])
    want = np.array([scn.x0, scn.y0, scn.h0, scn.V0, scn.xf, scn.yf, scn.hf])
    if np.max(np.abs(got - want) / boundary_scale) > tol_f:
        problems.append("boundary conditions violated")

    # path rows (gamma, V, chi, alpha, delta_x, mu) at every node
    node_u = np.vstack([U, U[-1]])
    rows = np.column_stack([Z[:, 1], Z[:, 0], Z[:, 2], node_u])
    path_scale = fresh_problem.ineq_scale[:6]
    over = np.maximum(rows - scn.bounds.upper, scn.bounds.lower - rows) / path_scale
    if np.max(over) > tol_f:
        problems.append(f"node path bounds violated by {np.max(over):.3e}")

    def rhs(z, u):
        return np.array(flight_dynamics.rhs_arrays(*z, *u, scn.aircraft, scn.atmosphere))

    worst = max(float(np.max(np.abs(Z[k + 1] - transcription.heun_step(Z[k], U[k], traj.dt, rhs))
                             / state_scale))
                for k in range(traj.n_intervals))
    if worst > tol_f:
        problems.append(f"Heun re-simulation misses the next node by {worst:.3e}")
    return problems


# ----- evaluate-n100: one run_evaluate output directory ----------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trapezoid(values, times) -> float:
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(times)))


def own_leq(times, levels) -> float:
    energy = 10.0 ** (0.1 * levels)
    return 10.0 * math.log10(trapezoid(energy, times) / (times[-1] - times[0]))


def own_consumption(times, V, h, delta, model, atm) -> float:
    """Trapezoid of C_SR*T0*delta*(rho/rho0)*(1 - M + M^2/2)."""
    rho = atm.rho_isa * (1.0 - atm.lapse * h) ** atm.exponent
    c = atm.c_isa * (rho / atm.rho_isa) ** (1.0 / (2.0 * atm.exponent))
    M = V / c
    flow = model.C_SR * model.T0 * delta * (rho / model.rho0) * (1.0 - M + 0.5 * M * M)
    return trapezoid(flow, times)


def check_evaluation(scn, out_dir: Path, z0, controls) -> list[str]:
    """Levels, consumption, CSV round trip and manifest of one evaluation."""
    problems = []
    report = json.loads((out_dir / "report.json").read_text())
    csv_path = out_dir / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    fields = [line.split(",") for line in lines[1:]]
    if any(format(float(f), ".17g") != f for row in fields for f in row):
        problems.append("trajectory.csv does not round-trip through float")
    data = np.array([[float(f) for f in row] for row in fields])
    col = {name: data[:, header.index(name)] for name in header}

    parsed = cli.read_trajectory_csv(csv_path)
    states = np.column_stack([col[c] for c in ("V", "gamma", "chi", "x", "y", "h")])
    node_u = np.column_stack([col[c] for c in ("alpha", "delta_x", "mu")])
    if not (np.array_equal(parsed.times, col["t"]) and np.array_equal(parsed.states, states)
            and np.array_equal(parsed.controls, node_u[:-1])):
        problems.append("read_trajectory_csv disagrees with the file")
    if not (np.array_equal(states[0], z0) and np.array_equal(node_u[:-1], controls)):
        problems.append("flown controls or first state differ from the input")
    final = report["final_state"]
    if [final[c] for c in ("V", "gamma", "chi", "x", "y", "h")] != list(states[-1]):
        problems.append("final_state differs from the last trajectory row")

    t = col["t"]
    for j, level in enumerate(report["leq_db_by_observer"]):
        lp = col[f"L_P_obs{j}"]
        if abs(level - own_leq(t, lp)) > LEVEL_TOL:
            problems.append(f"observer {j}: Leq {level!r} != trapezoid {own_leq(t, lp)!r}")
        if not lp.min() <= level <= lp.max():
            problems.append(f"observer {j}: Leq outside the node levels")
    fuel = own_consumption(t, col["V"], col["h"], col["delta_x"], scn.aircraft,
                           scn.atmosphere)
    if not math.isclose(report["consumption_kg"], fuel, rel_tol=REL_TOL):
        problems.append(f"consumption {report['consumption_kg']!r} != trapezoid {fuel!r}")

    for name, digest in report["manifest"].items():
        if _sha256(out_dir / name) != digest:
            problems.append(f"manifest hash of {name} does not verify")
    return problems
