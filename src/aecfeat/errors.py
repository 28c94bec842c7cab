"""The package's two error types.

Every failure the package detects raises `AecError`, a `ValueError` whose
message names the bad value, file or line. `StageError` wraps a failure
with the name of the pipeline stage it occurred in; the CLI prints it and
exits with code 2.
"""


class AecError(ValueError):
    """A failure detected by this package."""


class StageError(AecError):
    """Wraps a failure with the name of the pipeline stage it occurred in."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
