import pytest
import requests

from claimcheck.errors import ProviderError, post_json

BASE_URL = "http://127.0.0.1:9/v1/"
URL = "http://127.0.0.1:9/v1/chat/completions"


class _Reply:
    status_code = 200

    def json(self):
        return {"ok": True}


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr("claimcheck.errors.time.sleep", slept.append)
    return slept


class TestPostJsonTransportErrors:
    def test_retried_then_provider_error(self, monkeypatch, sleeps):
        calls = []

        def refuse(url, **kwargs):
            calls.append(url)
            raise requests.ConnectionError("connection refused")

        monkeypatch.setattr(requests, "post", refuse)
        with pytest.raises(ProviderError) as exc:
            post_json(BASE_URL, "/chat/completions", {}, "", 5.0, 2, "chat")
        assert calls == [URL] * 3
        assert sleeps == [1.0, 2.0]
        assert str(exc.value) == "chat request failed: transport error: connection refused"

    def test_success_on_second_try(self, monkeypatch, sleeps):
        calls = []

        def flaky(url, **kwargs):
            calls.append(url)
            if len(calls) == 1:
                raise requests.ConnectionError("connection reset")
            return _Reply()

        monkeypatch.setattr(requests, "post", flaky)
        assert post_json(BASE_URL, "/chat/completions", {}, "", 5.0, 2, "chat") == {"ok": True}
        assert len(calls) == 2
        assert sleeps == [1.0]


class TestPostJsonReply:
    def test_too_deeply_nested_reply_is_provider_error(self, monkeypatch, sleeps):
        class Deep(_Reply):
            def json(self):
                raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(requests, "post", lambda url, **kwargs: Deep())
        with pytest.raises(ProviderError) as exc:
            post_json(BASE_URL, "/chat/completions", {}, "", 5.0, 2, "chat")
        assert str(exc.value).startswith("chat response is not JSON: ")
        assert sleeps == []
