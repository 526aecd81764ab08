"""Config-file parsing: schema errors name the key and line, and the
[solver] keys are exactly the SolverOptions fields."""

import dataclasses

import pytest

from noisedescent.config import _SCHEMA, parse_config
from noisedescent.errors import ConfigError
from noisedescent.nlp_solver import SolverOptions


def test_unknown_solver_key_reports_key_and_line(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[solver]\nlbfgs_memory = 5\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.key == "lbfgs_memory"
    assert err.value.line == 2


def test_every_solver_key_is_a_solver_option():
    # equality: an option that no config file can set has no place
    fields = {f.name for f in dataclasses.fields(SolverOptions)}
    assert set(_SCHEMA["solver"]) == fields
