"""Exception types shared across the pipeline, and which failures to retry."""


class ClaimCheckError(Exception):
    """Base class for all claimcheck errors."""


class ValidationError(ClaimCheckError):
    """Invalid input data, file contents, or parameter values."""


class ConfigError(ClaimCheckError):
    """Missing or inconsistent configuration."""


class ProviderError(ClaimCheckError):
    """An embedding or chat provider failed for good, or after its retries."""


class GenerationParseError(ClaimCheckError):
    """LLM output could not be parsed into the expected structure.

    Carries the raw model output so failed responses can be inspected.
    """

    def __init__(self, message: str, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text


def is_retryable_status(status: int) -> bool:
    """Whether an HTTP error status may succeed on retry.

    Timeouts (408), rate limits (429) and server errors (5xx) are
    transient; any other status, such as 400, 401, 403 or 404, fails
    the same way on every attempt.
    """
    return status in (408, 429) or 500 <= status <= 599
