"""Shared exception types."""


class DomainError(ValueError):
    """Input outside the validity range of a model formula."""


class SingularStateError(DomainError):
    """State at which the equations of motion are singular (V ~ 0 or cos(gamma) ~ 0)."""


class NoiseTermError(DomainError):
    """A logarithm in the noise level received a nonpositive argument."""

    def __init__(self, term: str, message: str):
        self.term = term
        super().__init__(f"{term}: {message}")


class SettingError(ValueError):
    """A settings class rejects a value.  `keys` are the config-file keys
    of the settings its rule reads."""

    def __init__(self, message: str, *keys: str):
        self.keys = keys
        super().__init__(message)


class ScenarioError(SettingError):
    """Inconsistent or infeasible scenario definition."""


class ConfigError(ValueError):
    """Config file violates the schema. Carries the offending key and line."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        where = []
        if key is not None:
            where.append(f"key '{key}'")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
