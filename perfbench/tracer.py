"""In-memory spans and counters around the calls into each noisedescent layer.

The tracer replaces module and class attributes at the places where the
program looks the functions up (for example
``noisedescent.transcription.rhs_arrays``), so the program itself is not
edited.  Each wrapped call becomes a span (name, parent span, start, end,
phase); spans stay in memory and are written once, when the run ends.

A span's name starts with its layer (``transcription.objective``).  The
self time of a span is its duration minus the time covered by child spans
of other layers; a child of the same layer passes its own foreign time up.
For ``nlp_solver.solve`` this is the solve time minus the time spent in
the problem's callbacks, with the solver's own ``kkt_residuals`` work kept.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

PHASES = ("setup", "pass")   # phases whose spans make the per-layer metrics
ALL_PHASES = PHASES + ("check",)

# (metric name, unit) of every per-layer metric, in report order.
CALLBACKS = ("objective", "objective_gradient", "equalities", "inequalities",
             "equalities_jacobian", "inequalities_jacobian")
TIMED = (["transcription.hessian_exact", "transcription.hessian_convex"]
         + [f"transcription.{name}" for name in CALLBACKS]
         + ["nlp_solver.kkt_residuals", "flight_dynamics.rhs_arrays",
            "noise.levels_arrays", "transcription.simulate", "noise.leq"])
PER_LAYER = (
    [(f"{name}.calls", "count") for name in TIMED]
    + [(f"{name}.s", "s") for name in TIMED]
    + [("flight_dynamics.rhs_arrays.points", "count"),
       ("noise.levels_arrays.points", "count"),
       ("nlp_solver.solve.self_s", "s"),
       ("nlp_solver.inner_iterations", "count"),
       ("nlp_solver.outer_iterations", "count"),
       ("nlp_solver.cholesky.calls", "count"),
       ("nlp_solver.cholesky.failed", "count"),
       ("nlp_solver.lu.calls", "count"),
       ("nlp_solver.merit_evals_per_iteration", "calls/iter"),
       ("transcription.internode_violation.s", "s"),
       ("cli.read_trajectory_csv.s", "s"),
       ("cli.write_run_outputs.s", "s"),
       ("cli.bytes_written", "B"),
       ("transcription.assemble.s", "s"),
       ("scenarios.initial_guess.s", "s")]
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters of one benchmark run, split by phase."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list = []   # (name, parent index or -1, start_ns, end_ns, phase)
        self.counts = defaultdict(float)  # (phase, counter name) -> value
        self._stack: list[int] = []
        self._saved: list = []

    # ----- recording --------------------------------------------------

    def _record(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, parent, start, end, self.phase)

    def span(self, name, fn, points_arg=None, named=None):
        """Wrap fn in a span; `points_arg` counts the size of that argument,
        `named(args, kwargs)` picks the span name per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            this = named(args, kwargs) if named else name
            if points_arg is not None:
                tracer.counts[(tracer.phase, this + ".points")] += _size(args[points_arg])
            return tracer._record(this, fn, args, kwargs)
        return wrapper

    def counter(self, name, fn, failures=()):
        """Count calls of fn, and the calls that raise one of `failures`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.phase, name + ".calls")] += 1
            try:
                return fn(*args, **kwargs)
            except failures:
                tracer.counts[(tracer.phase, name + ".failed")] += 1
                raise
        return wrapper

    # ----- installation -----------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap the lookup sites of every traced function."""
        from scipy.linalg import LinAlgError

        from noisedescent import cli, flight_dynamics, nlp_solver, noise, scenarios
        from noisedescent import transcription

        tr_cls = transcription._Transcription
        for name in CALLBACKS:
            self._patch(tr_cls, name, self.span(f"transcription.{name}", getattr(tr_cls, name)))

        def hessian_name(args, kwargs):
            convex = kwargs.get("convexify", args[5] if len(args) > 5 else False)
            return "transcription.hessian_convex" if convex else "transcription.hessian_exact"
        self._patch(tr_cls, "lagrangian_hessian",
                    self.span(None, tr_cls.lagrangian_hessian, named=hessian_name))

        rhs = self.span("flight_dynamics.rhs_arrays", flight_dynamics.rhs_arrays, points_arg=0)
        self._patch(transcription, "rhs_arrays", rhs)
        self._patch(flight_dynamics, "rhs_arrays", rhs)
        self._patch(noise, "levels_arrays",
                    self.span("noise.levels_arrays", noise.levels_arrays, points_arg=0))
        self._patch(noise, "leq", self.span("noise.leq", noise.leq))

        self._patch(nlp_solver, "kkt_residuals",
                    self.span("nlp_solver.kkt_residuals", nlp_solver.kkt_residuals))
        self._patch(nlp_solver, "cho_factor",
                    self.counter("nlp_solver.cholesky", nlp_solver.cho_factor, (LinAlgError,)))
        self._patch(nlp_solver, "lu_factor", self.counter("nlp_solver.lu", nlp_solver.lu_factor))
        self._patch(scenarios, "solve", self._solve_wrapper(scenarios.solve))

        assemble = self.span("transcription.assemble", transcription.assemble)
        self._patch(transcription, "assemble", assemble)
        self._patch(scenarios, "assemble", assemble)
        self._patch(scenarios, "initial_guess",
                    self.span("scenarios.initial_guess", scenarios.initial_guess))
        self._patch(transcription, "internode_violation",
                    self.span("transcription.internode_violation",
                              transcription.internode_violation))

        self._patch(cli, "simulate", self.span("transcription.simulate", cli.simulate))
        self._patch(cli, "read_trajectory_csv",
                    self.span("cli.read_trajectory_csv", cli.read_trajectory_csv))
        self._patch(cli, "write_run_outputs",
                    self.span("cli.write_run_outputs", cli.write_run_outputs))
        self._patch(cli, "_atomic_write", self._write_wrapper(cli._atomic_write))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _solve_wrapper(self, fn):
        span = self.span("nlp_solver.solve", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            w, report = span(*args, **kwargs)
            self.counts[(self.phase, "nlp_solver.inner_iterations")] += report.iterations
            self.counts[(self.phase, "nlp_solver.outer_iterations")] += report.outer_iterations
            return w, report
        return wrapper

    def _write_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(path, text):
            self.counts[(self.phase, "cli.bytes_written")] += len(text.encode())
            return fn(path, text)
        return wrapper

    # ----- reduction --------------------------------------------------

    def totals(self):
        """(phase, key) -> value for span calls, seconds and self seconds."""
        out = defaultdict(float, self.counts)
        foreign = [0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, parent, start, end, phase = self.spans[i]
            dur = end - start
            out[(phase, name + ".calls")] += 1
            out[(phase, name + ".s")] += dur * 1e-9
            out[(phase, name + ".self_s")] += (dur - foreign[i]) * 1e-9
            if parent >= 0:
                same = _layer(self.spans[parent][0]) == _layer(name)
                foreign[parent] += foreign[i] if same else dur
        return out

    def metrics(self, setup_reps: int, passes: int) -> dict:
        """Per-layer metrics of one set-up plus one pass."""
        tot = self.totals()
        per = {"setup": 1.0 / setup_reps, "pass": 1.0 / passes}
        out = {}
        for name, unit in PER_LAYER:
            if name == "nlp_solver.merit_evals_per_iteration":
                inner = tot[("pass", "nlp_solver.inner_iterations")]
                value = tot[("pass", "transcription.objective.calls")] / inner if inner else 0.0
            else:
                value = sum(tot[(phase, name)] * per[phase] for phase in PHASES)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        phase_index = {p: i for i, p in enumerate(ALL_PHASES)}
        rows = [[index[n], parent, start, end, phase_index[phase]]
                for n, parent, start, end, phase in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "phases": list(ALL_PHASES),
                                    "columns": ["name", "parent", "start_ns", "end_ns",
                                                "phase"],
                                    "spans": rows}, separators=(",", ":")))


def _size(arg) -> int:
    shape = getattr(arg, "shape", ())
    n = 1
    for dim in shape:
        n *= dim
    return n
