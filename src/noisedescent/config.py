"""Config-file ingestion: a small INI-style grammar, schema-validated.

Grammar:

- ``[section]`` headers group keys; ``key = value`` lines assign them.
- ``#`` starts a comment (full-line or trailing); blank lines ignored.
- Angles accept a bare number (radians) or an explicit ``deg``/``rad``
  suffix, e.g. ``gamma_min = -8 deg``.
- Observer lists are semicolon-separated coordinate pairs,
  e.g. ``observers = 0,0; 20000,2500``.

Unknown sections or keys are rejected with the offending line number.
The number keys of a section are the number fields of its settings class
(`[scenario]` names `n_intervals` N), and the `[bounds]` keys are
``<component>_min`` and ``<component>_max`` of each path component.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from .errors import ConfigError, SettingError
from .flight_dynamics import AircraftModel, Atmosphere
from .noise import DIRECTIVITY_MODES, EngineNoiseParams, Observer
from .nlp_solver import SolverOptions
from .scenarios import PATH_COMPONENTS, PathBounds, Scenario, VARIANTS

_DEG = math.pi / 180.0


def _parse_float(text: str, key: str, line: int) -> float:
    """A number; infinities (for the bounds) are accepted, NaN is not."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ConfigError(f"expected a number, got {text!r}", key=key, line=line)
    return value


def _parse_angle(text: str, key: str, line: int) -> float:
    parts = text.split()
    if len(parts) == 2 and parts[1] in ("deg", "rad"):
        value = _parse_float(parts[0], key, line)
        return value * _DEG if parts[1] == "deg" else value
    if len(parts) == 1:
        return _parse_float(parts[0], key, line)
    raise ConfigError(f"expected '<number> [deg|rad]', got {text!r}", key=key, line=line)


def _parse_int(text: str, key: str, line: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}", key=key, line=line) from None


def _parse_pairs(text: str, key: str, line: int) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = [c for c in chunk.split(",") if c.strip()]
        if len(coords) != 2:
            raise ConfigError(f"expected 'x,y' pairs separated by ';', got {chunk!r}",
                              key=key, line=line)
        pairs.append((_parse_float(coords[0], key, line),
                      _parse_float(coords[1], key, line)))
    if not pairs:
        raise ConfigError("expected at least one coordinate pair", key=key, line=line)
    return pairs


def _parse_pair(text: str, key: str, line: int) -> tuple[float, float]:
    pairs = _parse_pairs(text, key, line)
    if len(pairs) != 1:
        raise ConfigError(f"expected one 'x,y' pair, got {len(pairs)}", key=key, line=line)
    return pairs[0]


def _parse_choice(options):
    def parse(text: str, key: str, line: int) -> str:
        value = text.strip()
        if value not in options:
            raise ConfigError(f"must be one of {options}, got {value!r}", key=key, line=line)
        return value
    return parse


# the parser of a number field, by its annotation (a string: the settings
# modules defer the evaluation of annotations)
_NUMBER_PARSERS = {"float": _parse_float, "Optional[float]": _parse_float, "int": _parse_int}


def _number_keys(cls) -> dict:
    """key -> parser of every number field of a settings class."""
    return {f.name: _NUMBER_PARSERS[f.type] for f in dataclasses.fields(cls)
            if f.type in _NUMBER_PARSERS}


# section -> key -> parser
_SCHEMA = {
    "scenario": {
        **{"N" if name == "n_intervals" else name: parse
           for name, parse in _number_keys(Scenario).items()},
        "variant": _parse_choice(VARIANTS),
        "observers": _parse_pairs,
        "directivity": _parse_choice(DIRECTIVITY_MODES),
        "track_axis": _parse_pair,
    },
    "aircraft": _number_keys(AircraftModel),
    "engine_noise": _number_keys(EngineNoiseParams),
    "atmosphere": _number_keys(Atmosphere),
    # a speed and a throttle setting; the other path components are angles
    "bounds": {f"{comp}_{end}": _parse_float if comp in ("V", "delta_x") else _parse_angle
               for comp in PATH_COMPONENTS for end in ("min", "max")},
    "solver": _number_keys(SolverOptions),
}


def read_sections(path: str | Path) -> dict[str, dict[str, tuple[str, int]]]:
    """Raw (value, line) table per section, schema-checked for unknown names."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    section = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", key=section, line=lineno)
            sections.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None:
            raise ConfigError("assignment before any [section] header", key=key, line=lineno)
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key in [{section}]", key=key, line=lineno)
        if key in sections[section]:
            raise ConfigError(f"duplicate key in [{section}]", key=key, line=lineno)
        sections[section][key] = (value, lineno)
    return sections


def _typed(sections, name: str) -> dict:
    out = {}
    for key, (value, lineno) in sections.get(name, {}).items():
        out[key] = _SCHEMA[name][key](value, key, lineno)
    return out


def parse_config(path: str | Path) -> tuple[Scenario, SolverOptions]:
    """Read and validate a config file into (Scenario, SolverOptions).

    A value that a settings class rejects is reported with its key and
    line; for a rule between several keys, with the one the file sets
    last.
    """
    sections = read_sections(path)
    try:
        return _build(sections)
    except SettingError as exc:
        lines = {key: line for table in sections.values() for key, (_, line) in table.items()}
        key = max((k for k in exc.keys if k in lines), key=lines.get, default=None)
        raise ConfigError(str(exc), key=key, line=lines.get(key)) from None


def _build(sections) -> tuple[Scenario, SolverOptions]:
    aircraft = AircraftModel(**_typed(sections, "aircraft"))
    atmosphere = Atmosphere(**_typed(sections, "atmosphere"))

    sc = _typed(sections, "scenario")
    engine_kwargs = _typed(sections, "engine_noise")
    if "directivity" in sc:
        engine_kwargs["directivity_mode"] = sc.pop("directivity")
    track = sc.pop("track_axis", None)
    if "N" in sc:
        sc["n_intervals"] = sc.pop("N")
    if "observers" in sc:
        sc["observers"] = tuple(Observer(x, y) for x, y in sc["observers"])

    def setting(name):
        """The file's value of a Scenario field, else the field's default."""
        return sc.get(name, getattr(Scenario, name))

    route_axis = engine_kwargs.get("directivity_mode") == "track_axis" and track is None
    if engine_kwargs.get("directivity_mode") == "track_axis":
        # default track axis: the straight route direction
        engine_kwargs["track_axis"] = (track if track is not None else
                                       (setting("xf") - setting("x0"),
                                        setting("yf") - setting("y0")))
    elif track is not None:
        raise ConfigError("track_axis is only meaningful with directivity = track_axis",
                          key="track_axis", line=sections["scenario"]["track_axis"][1])
    try:
        engine = EngineNoiseParams(**engine_kwargs)
    except SettingError as exc:
        if route_axis and "track_axis" in exc.keys:
            # a zero route direction, set by the mode and the end points
            raise SettingError(str(exc), *exc.keys, "directivity",
                               "x0", "y0", "xf", "yf") from None
        raise

    b = _typed(sections, "bounds")
    lower, upper = PathBounds.default_limits(setting("stall_speed"))
    for i, comp in enumerate(PATH_COMPONENTS):
        if f"{comp}_min" in b:
            lower[i] = b[f"{comp}_min"]
        if f"{comp}_max" in b:
            upper[i] = b[f"{comp}_max"]
    try:
        bounds = PathBounds(lower=lower, upper=upper)
    except SettingError as exc:
        if "V_min" in exc.keys and "V_min" not in b:
            # the default speed floor is 1.3 * stall_speed
            raise SettingError(str(exc), *exc.keys, "stall_speed") from None
        raise
    scenario = Scenario(aircraft=aircraft, atmosphere=atmosphere, engine=engine,
                        bounds=bounds, **sc)
    solver = SolverOptions(**_typed(sections, "solver"))
    return scenario, solver
