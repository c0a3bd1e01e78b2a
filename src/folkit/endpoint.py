"""The text-in/text-out generators of `collect` and `correct`: a
chat-completions-style HTTP client and a deterministic replay reader, so runs
are testable offline. Their errors are rowio.EndpointFaults (CLI exit 4).
`correct` loads this module without `collect`."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Protocol

from . import rowio

API_KEY_ENV = "FOLKIT_API_KEY"  # the environment variable that holds the API key
TIMEOUT_S = 60.0  # of one HTTP attempt
MAX_ATTEMPTS = 3  # of one HTTP request, the first included


class EndpointUnavailable(rowio.EndpointFault):
    pass


class ReplayExhausted(EndpointUnavailable):
    """A replayed or scripted generator has no responses left."""


class Generator(Protocol):
    def generate(self, system: str, user: str) -> str: ...


class ReplayGenerator:
    """Deterministic generator reading canned responses from a JSONL file.

    Each line is either a JSON string or an object with a "response" key.
    Raises ReplayExhausted when the replay is exhausted.
    """

    def __init__(self, path: str | Path):
        self.responses: list[str] = []
        for n, text in rowio.lines(path):
            if not text.strip():
                continue
            value = rowio.loads(path, n, text)
            if not isinstance(value, str):
                value = rowio.check(path, n, value, ("response",))["response"]
            self.responses.append(value)
        self.index = 0

    def generate(self, system: str, user: str) -> str:
        if self.index >= len(self.responses):
            raise ReplayExhausted("replay file exhausted")
        resp = self.responses[self.index]
        self.index += 1
        return resp


class HttpGenerator:
    """Chat-completions-style HTTP client; the API key comes from the
    environment variable API_KEY_ENV, never from flags or files.

    Timeouts, connection errors, 429 and 5xx are retried (RFC 9110 §15);
    any other error status or a malformed body raises EndpointUnavailable
    at once.
    """

    def __init__(self, base_url: str, model: str = "gpt-4", backoff: float = 2.0):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = os.environ.get(API_KEY_ENV, "")
        self.backoff = backoff

    def generate(self, system: str, user: str) -> str:
        # imported here: urllib.request adds about 30 ms to every start-up,
        # and replay runs never use it
        import http.client
        import urllib.error
        import urllib.request

        url = f"{self.base_url}/chat/completions"
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers, method="POST")
        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                with urllib.request.urlopen(request, timeout=TIMEOUT_S) as resp:
                    body = resp.read()
                break
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code != 429 and exc.code < 500:
                    raise EndpointUnavailable(f"{url}: HTTP {exc.code}") from exc
                last_error = exc
            except OSError as exc:  # timeouts and connection errors, URLError included
                last_error = exc
            except http.client.HTTPException as exc:
                raise EndpointUnavailable(f"{url}: bad HTTP response: {exc!r}") from exc
            if attempt < MAX_ATTEMPTS - 1:
                time.sleep(self.backoff * (attempt + 1))
        else:
            raise EndpointUnavailable(f"{url}: {last_error}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError):
            content = None
        if not isinstance(content, str):
            raise EndpointUnavailable(f"{url}: malformed response body")
        return content
