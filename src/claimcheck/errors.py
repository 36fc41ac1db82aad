"""Exception types shared across the pipeline, which failures to retry,
and the one HTTP exchange of the embedding and chat clients."""

import time


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


def post_json(
    base_url: str, path: str, body: dict, key: str, timeout_s: float, retries: int, what: str
):
    """POST body as JSON to base_url + path; return the parsed JSON reply to a 200.

    The request carries "Authorization: Bearer {key}" when key is
    non-empty. Transport errors and retryable statuses are tried again
    up to retries times, sleeping min(2**attempt, 8) seconds before each
    new attempt; any other status fails at once. Raises ProviderError
    "{what} request failed: ..." when no attempt succeeds, and
    "{what} response is not JSON: ..." for a 200 reply that does not
    parse, nesting too deep to decode included.
    """
    import requests

    url = base_url.rstrip("/") + path
    headers = {"Authorization": f"Bearer {key}"} if key else {}
    last_err = "no attempt made"
    for attempt in range(retries + 1):
        try:
            resp = requests.post(url, json=body, headers=headers, timeout=timeout_s)
        except requests.RequestException as exc:
            last_err = f"transport error: {exc}"
        else:
            if resp.status_code == 200:
                try:
                    return resp.json()
                except (ValueError, RecursionError) as exc:
                    raise ProviderError(f"{what} response is not JSON: {exc}") from exc
            last_err = f"HTTP {resp.status_code}: {resp.text[:200]}"
            if not is_retryable_status(resp.status_code):
                break
        if attempt < retries:
            time.sleep(min(2.0**attempt, 8.0))
    raise ProviderError(f"{what} request failed: {last_err}")
