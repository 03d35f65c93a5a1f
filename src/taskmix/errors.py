"""Exception taxonomy shared across the engine.

Every engine error is a TaskMixError, and each is one the user can cause:
the CLI maps ConfigError to exit code 2, DataError to 3 and
TrainingDivergedError to 4. Input is checked once, where it enters, by one
checker per kind: `config.RunConfig.validate` for a run config,
`data.read_manifest` for a manifest and `data.build_task` for a task's
splits and classes (`data.load_dataset` and the CLI's `convert` call both),
beside the task-file and CSV readers. Below that boundary the code raises
only for what valid input can still bring about (divergence, a dataset
without meta_test tasks to score); it checks no contract of its own, so an
internal bug surfaces as a Python traceback, not as a user-facing exit code.
"""


class TaskMixError(Exception):
    """Base class for all engine errors."""


class ConfigError(TaskMixError):
    """Invalid configuration value or unknown config key."""


class DataError(TaskMixError):
    """Malformed dataset file, manifest, or inconsistent task data."""


class TrainingDivergedError(TaskMixError):
    """Loss became non-finite at a step; carries it and the records before it."""

    def __init__(self, step: int, message: str, history: list[dict]):
        self.step = step
        self.history = history
        super().__init__(message)

    def __reduce__(self):
        # args holds only the message; pickle rebuilds from all three
        return type(self), (self.step, str(self), self.history)
