"""Exception taxonomy shared across the engine.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
TrainingDivergedError -> 4.
"""


class TaskMixError(Exception):
    """Base class for all engine errors."""


class ConfigError(TaskMixError):
    """Invalid configuration value or unknown config key."""


class DataError(TaskMixError):
    """Malformed dataset file, manifest, or inconsistent task data."""


class ShapeError(TaskMixError):
    """Array dimensions do not chain or do not match."""


class UsageError(TaskMixError):
    """API called outside its contract (empty split, wrong task role, ...)."""


class TrainingDivergedError(TaskMixError):
    """Loss became non-finite during training; carries the step index."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"training diverged (non-finite loss) at step {step}")
