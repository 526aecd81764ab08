"""The benchmark tracer wraps functions by their module and class names.

Installing it here makes a rename or deletion of any traced name fail in
the test suite rather than only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

from noisedescent import flight_dynamics, noise, scenarios, transcription

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
