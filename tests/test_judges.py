import sys

import pytest
import requests

from gpx_harvest.judges import (PII_PROMPT_TEMPLATE, QUALITY_PROMPT_TEMPLATE,
                                ChatEndpointJudge, CommandTranslator,
                                JudgeUnavailableError, StubJudge, StubTranslator,
                                TranslationFailedError, judge_pii, judge_quality,
                                parse_verdict, translate_to_english)


class ScriptedJudge:
    def __init__(self, reply):
        self.reply = reply
        self.prompts = []

    def __call__(self, prompt):
        self.prompts.append(prompt)
        return self.reply


# --- prompt protocol ---------------------------------------------------------

def test_quality_judge_sends_exact_prompt():
    judge = ScriptedJudge("True")
    text = "A lovely ~4 hour walk from the station to the tower."
    judge_quality(text, judge)
    assert judge.prompts == [QUALITY_PROMPT_TEMPLATE.format(text=text)]
    assert judge.prompts[0].endswith(f"Text: '''{text}'''")
    assert "If you are unsure, say 'False'" in judge.prompts[0]


def test_pii_judge_sends_exact_prompt():
    judge = ScriptedJudge("False")
    text = "Steep climb after the second bridge, great views."
    judge_pii(text, judge)
    assert judge.prompts == [PII_PROMPT_TEMPLATE.format(text=text)]
    assert "If you are unsure, say 'True'" in judge.prompts[0]


# --- verdict parsing -----------------------------------------------------------

@pytest.mark.parametrize("reply,expected", [
    ("True", True),
    ("true, because it describes a route in detail", True),
    ("  FALSE  ", False),
    ("I would say False, not True.", False),  # first match wins
    ("The answer is 'True'.", True),
])
def test_parse_verdict_finds_first_standalone_word(reply, expected):
    assert parse_verdict(reply, unsure=not expected) is expected


def test_parse_verdict_ignores_embedded_words():
    # "untrue" must not match as "true"
    assert parse_verdict("untrue claims here", unsure=False) is False
    assert parse_verdict("untrue claims here", unsure=True) is True


def test_unparsable_reply_fails_closed():
    assert judge_quality("text", ScriptedJudge("banana")) is False
    assert judge_pii("text", ScriptedJudge("banana")) is True
    assert judge_pii("text", ScriptedJudge("")) is True


def test_judge_quality_keeps_good_description():
    assert judge_quality("desc", ScriptedJudge("True")) is True
    assert judge_quality("desc", ScriptedJudge("False")) is False


def test_judge_pii_excludes_flagged_text():
    assert judge_pii("Meet John Smith at 12 Elm Road", ScriptedJudge("True")) is True
    assert judge_pii("Steep climb, great views", ScriptedJudge("False")) is False


def test_judge_transport_failure_propagates():
    def broken(prompt):
        raise JudgeUnavailableError("endpoint down")

    with pytest.raises(JudgeUnavailableError):
        judge_quality("text", broken)


# --- stub judge -------------------------------------------------------------------

def test_stub_judge_accepts_everything():
    stub = StubJudge()
    assert judge_quality("any text", stub) is True
    assert judge_pii("any text", stub) is False


# --- chat endpoint judge -------------------------------------------------------------

class FakeResponse:
    def __init__(self, status_code=200, content="True"):
        self.status_code = status_code
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


def test_chat_endpoint_judge_posts_prompt():
    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append((url, json, headers))
        return FakeResponse(content="False")

    judge = ChatEndpointJudge("http://llm.internal/v1/chat", model="judge-8b",
                              api_key="sekret", post=fake_post)
    assert judge("the prompt") == "False"
    url, body, headers = calls[0]
    assert url == "http://llm.internal/v1/chat"
    assert body["model"] == "judge-8b"
    assert body["messages"] == [{"role": "user", "content": "the prompt"}]
    assert headers["Authorization"] == "Bearer sekret"


def test_chat_endpoint_judge_binds_requests_post_when_built(monkeypatch):
    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append((url, json, headers, timeout))
        return FakeResponse(content="True")

    monkeypatch.setattr(requests, "post", fake_post)
    judge = ChatEndpointJudge("http://llm.internal/v1/chat", model="judge-8b")
    assert judge("the prompt") == "True"
    assert calls == [("http://llm.internal/v1/chat",
                      {"model": "judge-8b",
                       "messages": [{"role": "user", "content": "the prompt"}],
                       "temperature": 0},
                      {"Content-Type": "application/json"}, 60.0)]


def test_chat_endpoint_judge_retries_then_raises():
    attempts = []

    def flaky_post(url, json=None, headers=None, timeout=None):
        attempts.append(1)
        return FakeResponse(status_code=503)

    judge = ChatEndpointJudge("http://llm.internal", max_retries=3,
                              post=flaky_post, sleep=lambda s: None)
    with pytest.raises(JudgeUnavailableError, match="503"):
        judge("prompt")
    assert len(attempts) == 3


def test_chat_endpoint_judge_recovers_after_failure():
    replies = [FakeResponse(status_code=500), FakeResponse(content="True")]

    def post(url, json=None, headers=None, timeout=None):
        return replies.pop(0)

    judge = ChatEndpointJudge("http://llm.internal", max_retries=2,
                              post=post, sleep=lambda s: None)
    assert judge("prompt") == "True"


# --- translation ----------------------------------------------------------------------

def test_translate_english_is_identity_without_calling_backend():
    def exploding(text, lang):
        raise AssertionError("backend must not be called for English")

    assert translate_to_english("Good morning", "en", exploding) == "Good morning"


def test_translate_uses_backend_for_other_languages():
    source = "Der Weg beginnt an der alten Kirche im Dorf."
    reference = "The path starts at the old church in the village."

    def scripted(text, lang):
        assert (text, lang) == (source, "de")
        return reference

    assert translate_to_english(source, "de", scripted) == reference


def test_translate_backend_error_becomes_translation_failed():
    def broken(text, lang):
        raise RuntimeError("model exploded")

    with pytest.raises(TranslationFailedError):
        translate_to_english("texte", "fr", broken)


def test_stub_translator_identity():
    assert StubTranslator()("bonjour", "fr") == "bonjour"


def test_command_translator_pipes_stdin_stdout():
    translator = CommandTranslator(
        f'{sys.executable} -c "import sys; sys.stdout.write(sys.stdin.read().upper())"')
    assert translator("guten tag", "de") == "GUTEN TAG"


def test_command_translator_substitutes_lang():
    translator = CommandTranslator(
        f'{sys.executable} -c "import sys; print(\'{{lang}}:\' + sys.stdin.read())"')
    assert translator("hola", "es") == "es:hola"


def test_command_translator_failure_raises():
    translator = CommandTranslator(f'{sys.executable} -c "import sys; sys.exit(3)"')
    with pytest.raises(TranslationFailedError, match="exited 3"):
        translator("текст", "uk")


def test_command_translator_missing_binary_raises():
    translator = CommandTranslator("/no/such/translator --to en")
    with pytest.raises(TranslationFailedError):
        translator("text", "fr")
