"""Config-file parsing: schema errors, NaN values and values a settings
class rejects name the key and line, the [solver] keys are exactly the
SolverOptions fields, and every [scenario] key sets a Scenario field or an
engine-noise setting."""

import dataclasses
import math

import pytest

from noisedescent.cli import _scenario_echo
from noisedescent.config import _SCHEMA, parse_config
from noisedescent.errors import ConfigError, SettingError
from noisedescent.flight_dynamics import AircraftModel, Atmosphere
from noisedescent.nlp_solver import SolverOptions
from noisedescent.noise import EngineNoiseParams
from noisedescent.scenarios import Scenario, default_scenario


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


def test_every_scenario_key_sets_a_scenario_field_or_an_engine_setting():
    # a key that sets nothing is a knob no run reads
    renamed = {"N": "n_intervals", "directivity": "directivity_mode"}
    fields = {f.name for f in dataclasses.fields(Scenario)}
    fields |= {f.name for f in dataclasses.fields(EngineNoiseParams)}
    assert {renamed.get(key, key) for key in _SCHEMA["scenario"]} <= fields


@pytest.mark.parametrize("section, key", [("scenario", "n_starts"), ("scenario", "seed"),
                                          ("aircraft", "mass"), ("scenario", "h0"),
                                          ("bounds", "gamma_min"),
                                          ("solver", "feasibility_tol"),
                                          ("solver", "verbose"),
                                          ("solver", "max_inner_total"),
                                          ("solver", "penalty_factor"),
                                          ("solver", "penalty_max"),
                                          ("solver", "max_line_search")])
def test_removed_key_or_nan_reports_key_and_line(section, key, tmp_path):
    # a removed key gets a value it once took, so only its name is rejected
    value = {"n_starts": "2", "seed": "1", "verbose": "true", "max_inner_total": "6000",
             "penalty_factor": "10.0", "penalty_max": "1e10",
             "max_line_search": "40"}.get(key, "nan")
    path = tmp_path / "run.ini"
    path.write_text(f"# run\n[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert (err.value.key, err.value.line) == (key, 3)


def test_scenario_defaults_come_from_scenario(tmp_path):
    # a file that sets no scenario key runs the reference scenario
    path = tmp_path / "run.ini"
    path.write_text("[solver]\nmax_outer = 5\n")
    scn, opts = parse_config(path)
    assert opts.max_outer == 5
    assert _scenario_echo(scn) == _scenario_echo(default_scenario())


def test_infinite_bound_is_accepted(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[bounds]\nV_max = inf\n")
    scn, _ = parse_config(path)
    assert scn.bounds.component("V")[1] == math.inf


@pytest.mark.parametrize("section, key, value", [("solver", "initial_penalty", "0"),
                                                 ("solver", "feasibility_tol", "inf"),
                                                 ("solver", "optimality_tol", "inf"),
                                                 ("aircraft", "mass", "-1"),
                                                 ("aircraft", "mass", "inf"),
                                                 ("atmosphere", "lapse", "0"),
                                                 ("atmosphere", "c_isa", "inf"),
                                                 ("engine_noise", "v2", "500"),
                                                 ("engine_noise", "v1", "inf"),
                                                 ("engine_noise", "me", "inf"),
                                                 ("engine_noise", "d", "inf"),
                                                 ("scenario", "track_axis", "inf,0"),
                                                 ("bounds", "V_min", "200"),
                                                 ("scenario", "stall_speed", "200")])
def test_value_a_settings_class_rejects_reports_key_and_line(section, key, value, tmp_path):
    # the parser takes each value, infinities included; the class rejects
    # it.  v2 breaks v1 > v2 and V_min breaks V_min < V_max: of each pair
    # the file sets only one.  stall_speed sets the default V_min,
    # 1.3 * 200 m/s, above V_max.  track_axis needs its mode, set after it
    path = tmp_path / "run.ini"
    mode = "directivity = track_axis\n" if key == "track_axis" else ""
    path.write_text(f"# run\n[{section}]\n{key} = {value}\n{mode}")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert (err.value.key, err.value.line) == (key, 3)


def test_settings_classes_reject_every_non_finite_value():
    # every number a config file sets, under the key it is reported with
    settings = [(cls, f.name) for cls in (AircraftModel, Atmosphere)
                for f in dataclasses.fields(cls)]
    settings += [(EngineNoiseParams, name) for name in (
        "v1", "v2", "s1", "s2", "tau1", "tau2", "rho1", "d", "me", "temp_term_coeff",
        "track_axis")]
    settings += [(SolverOptions, name)
                 for name in ("feasibility_tol", "optimality_tol", "initial_penalty")]
    for cls, name in settings:
        for bad in (math.inf, -math.inf, math.nan):
            value = (bad, 0.0) if name == "track_axis" else bad
            with pytest.raises(SettingError) as err:
                cls(**{name: value})
            assert err.value.keys == (name,)


def test_rule_between_two_set_keys_names_the_last_one(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[engine_noise]\nv2 = 350\nv1 = 300\ns1 = 0.4\n")
    with pytest.raises(ConfigError, match="v1 > v2") as err:
        parse_config(path)
    assert (err.value.key, err.value.line) == ("v1", 3)


def test_track_axis_takes_exactly_one_pair(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\ndirectivity = track_axis\ntrack_axis = 0,1\n")
    scn, _ = parse_config(path)
    assert scn.engine.track_axis == (0.0, 1.0)
    path.write_text("[scenario]\ndirectivity = track_axis\ntrack_axis = 1,0; 0,1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert (err.value.key, err.value.line) == ("track_axis", 3)


def test_stall_speed_moves_the_default_speed_floor(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\nstall_speed = 200\nV0 = 270\n[bounds]\nV_max = 300\n")
    scn, _ = parse_config(path)
    assert scn.bounds.component("V") == (260.0, 300.0)


@pytest.mark.parametrize("text, key, line", [
    ("[scenery]\nh0 = 1000\n", "scenery", 1),
    ("[scenario]\nh0 1000\n", None, 2),
    ("h0 = 1000\n[scenario]\n", "h0", 1),
    ("[scenario]\nh0 = 1000\n# again\nh0 = 2000\n", "h0", 4),
    ("[bounds]\ngamma_min = -8 grad\n", "gamma_min", 2),
    ("[scenario]\nN = 12.5\n", "N", 2),
    ("[scenario]\nobservers = ;\n", "observers", 2),
    ("[scenario]\nvariant = quietest\n", "variant", 2),
], ids=["unknown-section", "no-equals", "before-any-section", "duplicate-key",
        "angle-unit", "non-integer-N", "no-observer", "unknown-variant"])
def test_grammar_error_reports_key_and_line(text, key, line, tmp_path):
    # a line without '=' has no key to report
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert (err.value.key, err.value.line) == (key, line)
