"""Text judges and translation backends.

A judge is any callable taking a prompt string and returning the model's
reply string; a translator takes (text, source language) and returns English
text.  Both are pluggable so tests and offline runs can use deterministic
stand-ins while production points at a chat-completions endpoint or a local
NMT command.

``requests`` is loaded only when a ``ChatEndpointJudge`` is built for a live
judge, and ``subprocess`` only when a ``CommandTranslator`` runs; offline
runs with the stand-ins import neither.
"""

from __future__ import annotations

import logging
import re
import time
from typing import Callable

logger = logging.getLogger(__name__)

QUALITY_PROMPT_TEMPLATE = (
    "Does the text in triple quotes represent a high-quality and insightful "
    "route or track description, or an activity description such as hiking, "
    "cycling, or racing? Respond with 'True' or 'False'. If you are unsure, "
    "say 'False'. Text: '''{text}'''"
)

PII_PROMPT_TEMPLATE = (
    "Does the text in triple quotes contain any personally identifiable "
    "information, such as someone's address or name? Respond with 'True' or "
    "'False'. If you are unsure, say 'True'. Text: '''{text}'''"
)

_VERDICT_RE = re.compile(r"\b(true|false)\b", re.IGNORECASE)


class JudgeUnavailableError(Exception):
    """Judge backend could not produce a reply."""


class TranslationFailedError(Exception):
    """Translation backend could not produce a translation."""


def parse_verdict(reply: str, unsure: bool) -> bool:
    """Extract the boolean from a judge reply.

    Models wrap the verdict in prose, so the first standalone "true"/"false"
    (case-insensitive) wins.  A reply containing neither parses as ``unsure``,
    the fail-closed direction of the calling check.
    """
    match = _VERDICT_RE.search(reply)
    return unsure if match is None else match.group(1).lower() == "true"


def judge_quality(text: str, judge: Callable[[str], str]) -> bool:
    """True when the judge deems the description worth keeping.

    Unparsable replies count as False: when unsure, exclude.
    """
    reply = judge(QUALITY_PROMPT_TEMPLATE.format(text=text))
    return parse_verdict(reply, unsure=False)


def judge_pii(text: str, judge: Callable[[str], str]) -> bool:
    """True when the judge flags leftover personal information (excluded).

    Unparsable replies count as True: when unsure, exclude.
    """
    reply = judge(PII_PROMPT_TEMPLATE.format(text=text))
    return parse_verdict(reply, unsure=True)


class StubJudge:
    """Offline judge that keeps everything: quality yes, PII no."""

    def __call__(self, prompt: str) -> str:
        if prompt.startswith(PII_PROMPT_TEMPLATE[:60]):
            return "False"
        return "True"


class ChatEndpointJudge:
    """Judge backed by a chat-completions style HTTP endpoint."""

    def __init__(self, url: str, model: str = "", api_key: str | None = None,
                 timeout_s: float = 60.0, max_retries: int = 3,
                 post: Callable | None = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if post is None:
            import requests
            post = requests.post
        self.url = url
        self.model = model
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._timeout = timeout_s
        self._max_retries = max(1, max_retries)
        self._post = post
        self._sleep = sleep

    def __call__(self, prompt: str) -> str:
        body = {"model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": 0}
        # Audit trail keeps the request/response shape but never user text.
        redacted = dict(body, messages=[{"role": "user",
                                         "content": f"[redacted, {len(prompt)} chars]"}])
        last_problem = "no attempts made"
        for attempt in range(self._max_retries):
            if attempt:
                self._sleep(2.0 ** (attempt - 1))
            logger.debug("judge request to %s: %s", self.url, redacted)
            try:
                response = self._post(self.url, json=body, headers=self._headers,
                                      timeout=self._timeout)
                if response.status_code != 200:
                    last_problem = f"http status {response.status_code}"
                    continue
                reply = response.json()["choices"][0]["message"]["content"]
                logger.debug("judge reply from %s: [redacted, %d chars]",
                             self.url, len(reply))
                return str(reply)
            except Exception as exc:
                last_problem = f"{type(exc).__name__}: {exc}"
        raise JudgeUnavailableError(f"judge endpoint {self.url}: {last_problem}")


def translate_to_english(text: str, lang: str,
                         translator: Callable[[str, str], str]) -> str:
    """English rendering of the text; identity when it is already English."""
    if lang == "en":
        return text
    try:
        return translator(text, lang)
    except TranslationFailedError:
        raise
    except Exception as exc:
        raise TranslationFailedError(f"translator failed for lang={lang}: {exc}") from exc


class StubTranslator:
    """Offline stand-in returning the text unchanged."""

    def __call__(self, text: str, lang: str) -> str:
        return text


class CommandTranslator:
    """Pipe text through an external translation command.

    The command is a shell-style template; "{lang}" is substituted with the
    source language code.  Text goes to stdin, the translation is read from
    stdout.  Suits offline NMT runners exposed as CLIs.
    """

    def __init__(self, command_template: str, timeout_s: float = 300.0) -> None:
        self.command_template = command_template
        self._timeout = timeout_s

    def __call__(self, text: str, lang: str) -> str:
        import shlex
        import subprocess

        command = [part.replace("{lang}", lang)
                   for part in shlex.split(self.command_template)]
        try:
            result = subprocess.run(command, input=text.encode("utf-8"),
                                    capture_output=True, timeout=self._timeout)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise TranslationFailedError(f"command {command!r}: {exc}") from exc
        if result.returncode != 0:
            raise TranslationFailedError(
                f"command {command!r} exited {result.returncode}: "
                f"{result.stderr.decode('utf-8', 'replace')[:200]}")
        return result.stdout.decode("utf-8", "replace").strip()
