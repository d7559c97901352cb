import html
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpx_harvest import descriptions
from gpx_harvest.config import FilterConfig
from gpx_harvest.descriptions import (EMAIL_TOKEN, PHONE_TOKEN, URL_TOKEN, PiiFlags,
                                      _clean_once, _strip_html, clean_text, common_languages,
                                      find_raw_pii, length_exclusion, mask_pii)

CONFIG = FilterConfig()
ALL_CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))


# --- clean_text ---------------------------------------------------------------

def test_str_split_and_re_agree_on_every_whitespace_character():
    # clean_text collapses whitespace with str.split, and detect_language counts
    # it the same way; both stand for re's \\s and str.isspace.
    every = ALL_CODE_POINTS
    assert " ".join(every.split()) == re.sub(r"\s+", " ", every).strip()
    assert len("".join(every.split())) == len(every) - sum(map(str.isspace, every))


def test_clean_html_tags_and_whitespace():
    assert clean_text("Nice <b>views</b>!\n\tSteep.") == "Nice views! Steep."


def test_clean_bracketed_app_tags():
    raw = "Loop walk [gpx-track-id:42] {lang:de} start at church"
    assert clean_text(raw) == "Loop walk start at church"


def test_clean_empty():
    assert clean_text("") == ""


def test_clean_decodes_entities():
    assert clean_text("Fish &amp; chips at the caf&eacute;") == "Fish & chips at the café"


def test_clean_nested_brackets():
    assert clean_text("go [a [b] c] left {x {y} z} now") == "go left now"


def test_clean_collapses_runs_and_trims():
    assert clean_text("  a \r\n b\t\tc  ") == "a b c"


@settings(max_examples=200)
@given(st.text(max_size=300))
def test_clean_idempotent(text):
    once = clean_text(text)
    assert clean_text(once) == once


def _clean_text_reference(raw):
    # _clean_once repeated until a pass changes nothing.
    current = raw
    while True:
        cleaned = _clean_once(current)
        if cleaned == current:
            return cleaned
        current = cleaned


# Entity fragments that HTMLParser holds back at the end of its input (an "&"
# with no ";" or whitespace after it, within 34 characters of the end), and
# the markup that entity decoding can uncover.
_MARKUP_PIECES = ["&am", "&amp", "&amp;", "&#6", "&#60", "&#60;", "&#x", "&#x3c", "&#x3C;",
                  "&lt", "&lt;", "&gt;", "&#91;", "&#93;", "&#123;", "&#125;", "&amp;lt;",
                  "&" + "a" * 32, "&" + "a" * 33, "&" + "b" * 31 + ";", ";", "#", "&",
                  "[", "]", "{", "}", "<", ">", "<b>", "</b>", "<!--", "-->", " ", "\n", "x"]
_MARKUP_TEXTS = st.lists(st.one_of(st.sampled_from(_MARKUP_PIECES), st.text(max_size=2)),
                         max_size=24).map("".join)


@settings(max_examples=400, deadline=None)
@given(_MARKUP_TEXTS)
def test_clean_text_equals_the_full_fixed_point_loop(text):
    assert clean_text(text) == _clean_text_reference(text)


@settings(max_examples=400, deadline=None)
@given(_MARKUP_TEXTS.map(lambda text: text.replace("<", "")))
def test_strip_html_only_unescapes_text_without_a_tag_opener(text):
    # clean_text stops early on this: text without "<" that html.unescape
    # leaves as it is passes through _strip_html unchanged.
    assert _strip_html(text) == html.unescape(text)


@pytest.mark.parametrize("raw,passes", [
    ("Nice <b>views</b>!", 1),
    ("Fish &amp; chips & [tag] {x}", 1),
    ("unmatched ] [ } {", 1),
    ("&lt;b&gt;bold&lt;/b&gt;", 2),
    ("&amp;lt;b&amp;gt;", 3),
])
def test_clean_text_stops_without_a_confirming_pass(monkeypatch, raw, passes):
    calls = []
    clean_once = descriptions._clean_once
    monkeypatch.setattr(descriptions, "_clean_once",
                        lambda text: calls.append(text) or clean_once(text))
    assert clean_text(raw) == _clean_text_reference(raw)
    assert len(calls) == passes


# --- length bounds -------------------------------------------------------------

@pytest.mark.parametrize("length,reason", [(0, "desc-too-short"), (49, "desc-too-short"),
                                           (50, None), (1999, None),
                                           (2000, "desc-too-long"), (2001, "desc-too-long")])
def test_length_exclusion_names_the_bound(length, reason):
    assert length_exclusion("x" * length, CONFIG) == reason


def test_length_bounds_counts_code_points_not_bytes():
    text = "ü" * 50  # 100 bytes in UTF-8 but exactly 50 characters
    assert length_exclusion(text, CONFIG) is None


# --- mask_pii -------------------------------------------------------------------

def test_mask_email():
    masked, flags = mask_pii("mail me at jo@hill.example")
    assert masked == "mail me at <EMAIL>"
    assert (flags.email, flags.url, flags.phone) == (True, False, False)


def test_mask_urls_with_and_without_scheme():
    masked, flags = mask_pii("see https://example.org/track and www.foo.example")
    assert masked == "see <URL> and <URL>"
    assert flags.url


def test_mask_phone_with_separators():
    masked, flags = mask_pii("call +44 20 7946 0958 after 5")
    assert masked == "call <TELEPHONE> after 5"
    assert flags.phone


# One table guards the masking precision: (input, expected output).
MASKING_TABLE = [
    # emails
    ("contact: jo@hill.example", "contact: <EMAIL>"),
    ("first.last+tag@sub.domain.example!", "<EMAIL>!"),
    ("ops-team%x@a-b.example", "<EMAIL>"),
    # URLs with scheme
    ("docs at https://example.org/a/b?x=1", "docs at <URL>"),
    ("ftp://files.example/data.zip", "<URL>"),
    ("(http://example.org/map)", "(<URL>)"),
    # URLs without scheme
    ("try www.example.org.", "try <URL>."),
    ("www.foo.example/path/page", "<URL>"),
    # phones
    ("+44 20 7946 0958", "<TELEPHONE>"),
    ("(555) 123-4567", "<TELEPHONE>"),
    ("555-123-4567 anytime", "<TELEPHONE> anytime"),
    ("555.123.4567", "<TELEPHONE>"),
    ("call 020 7946 0958", "call <TELEPHONE>"),
    ("+15551234567", "<TELEPHONE>"),
    ("ring 1234567", "ring <TELEPHONE>"),
    # negatives: coordinates, years, units, long runs
    ("at 51.5074, -0.1278 by the gate", "at 51.5074, -0.1278 by the gate"),
    ("lat 51.5074 was noted", "lat 51.5074 was noted"),
    ("the 2024 season", "the 2024 season"),
    ("about 100 000 visitors a year", "about 100 000 visitors a year"),
    ("serial 1234567890123456 on the post", "serial 1234567890123456 on the post"),
    ("version v.5551234567 of the map", "version v.5551234567 of the map"),
]


@pytest.mark.parametrize("raw,expected", MASKING_TABLE)
def test_masking_table(raw, expected):
    masked, _ = mask_pii(raw)
    assert masked == expected


def test_masking_leaves_no_raw_matches_on_adversarial_corpus():
    corpus = [raw for raw, _ in MASKING_TABLE]
    corpus += [
        "jo@hill.example then https://a.example and +44 20 7946 0958",
        "double jo@hill.example ann@dale.example",
        "mixed www.x.example text 555-123-4567 more jo@hill.example",
        "edge http://example.org/path#frag end",
        "phone (555)123-4567 and (555) 765-4321",
    ]
    corpus += [f"variant {i}: see www.site{i}.example or mail p{i}@mail.example "
               f"or dial 555-010-{i:04d}" for i in range(25)]
    assert len(corpus) >= 50
    for raw in corpus:
        masked, _ = mask_pii(raw)
        assert find_raw_pii(masked) == [], f"residual PII in {masked!r}"


@settings(max_examples=200)
@given(st.text(max_size=200))
def test_masking_idempotent(text):
    once, _ = mask_pii(text)
    twice, _ = mask_pii(once)
    assert twice == once


# The patterns mask_pii had when they were plain finditer/subn scans; the
# module's patterns must find exactly what these find.
_EMAIL_REFERENCE_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
_URL_REFERENCE_RE = re.compile(r"(?:(?:https?|ftp)://|www\.)[^\s<>]+", re.IGNORECASE)
_PHONE_REFERENCE_RE = re.compile(r"(?<![\d.])[+(]?\d[\d\s().-]*\d(?!\d)")


def _phone_reference_hits(text):
    return [m for m in _PHONE_REFERENCE_RE.finditer(text)
            if descriptions._looks_like_phone(m.group(0))]


def _mask_pii_reference(text):
    flags = PiiFlags()
    masked, n = _EMAIL_REFERENCE_RE.subn(EMAIL_TOKEN, text)
    flags.email = n > 0
    out, cursor = [], 0
    for match in _URL_REFERENCE_RE.finditer(masked):
        out += [masked[cursor:match.start()], URL_TOKEN]
        cursor = match.start() + len(match.group(0).rstrip(descriptions._URL_TRAILING_PUNCT))
        flags.url = True
    masked = "".join(out) + masked[cursor:]
    out, cursor = [], 0
    for match in _phone_reference_hits(masked):
        out += [masked[cursor:match.start()], PHONE_TOKEN]
        cursor = match.end()
        flags.phone = True
    return "".join(out) + masked[cursor:], flags


def _find_raw_pii_reference(text):
    return ([m.group(0) for m in _EMAIL_REFERENCE_RE.finditer(text)]
            + [m.group(0) for m in _URL_REFERENCE_RE.finditer(text)]
            + [m.group(0) for m in _phone_reference_hits(text)])


def _mixed_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper)))


# Digits (with two non-ASCII ones), phone separators, whitespace that re's \\s
# matches beyond ASCII, e-mail characters, URL heads in mixed case, and the
# letters that case-insensitive matching folds onto ASCII ones.
_PII_PIECES = st.one_of(
    st.sampled_from(list("0123456789٣５+(). -.") + ["\u00a0", "\u2003", "\u001c", "\u0085"]
                    + ["5551234", "020 7946", "555-123-4567", "v.", "x"]
                    + list("@._%+") + ["a", "Z", "jo", "example", "ex.ample"]
                    + ["ſ", "\u212a", "İ"]),
    st.sampled_from(["http://", "https://", "ftp://", "www.", "httpſ://"]).flatmap(_mixed_case),
)
_PII_TEXTS = st.lists(_PII_PIECES, max_size=40).map("".join)


@settings(max_examples=500, deadline=None)
@given(_PII_TEXTS)
def test_mask_pii_and_find_raw_pii_equal_the_plain_scans(text):
    assert mask_pii(text) == _mask_pii_reference(text)
    assert find_raw_pii(text) == _find_raw_pii_reference(text)


def test_url_classes_hold_exactly_what_ignorecase_matches():
    classes = set(re.findall(r"\[(\w+)\]", descriptions._URL_RE.pattern))
    assert len(classes) == 7
    for letters in classes:
        folded = set()
        for letter in {c.lower() for c in letters if c.isascii()}:
            folded.update(re.findall(letter, ALL_CODE_POINTS, re.IGNORECASE))
        assert set(letters) == folded, letters


# Inputs on which a plain finditer scan costs time in the square of a run's
# length; their outputs are written out, as the reference takes seconds here.
HOSTILE_PII = [
    ("a" * 50_000 + "@", "a" * 50_000 + "@", PiiFlags(), []),
    ("x@" + "b." * 25_000, "x@" + "b." * 25_000, PiiFlags(), []),
    ("1." * 25_000, "1." * 25_000, PiiFlags(), []),
    ("a" * 50_000 + "@ jo@hill.example", "a" * 50_000 + "@ <EMAIL>", PiiFlags(email=True),
     ["jo@hill.example"]),
]


@pytest.mark.parametrize("text,masked,flags,hits", HOSTILE_PII,
                         ids=["local-run", "domain-run", "digit-dot-run", "local-run-then-email"])
def test_mask_pii_on_hostile_runs(text, masked, flags, hits):
    assert mask_pii(text) == (masked, flags)
    assert find_raw_pii(text) == hits


class _CountingPattern:
    def __init__(self, pattern, calls):
        self.pattern, self.calls = pattern, calls

    def match(self, *args):
        self.calls.append("match")
        return self.pattern.match(*args)

    def search(self, *args):
        self.calls.append("search")
        return self.pattern.search(*args)


@pytest.mark.parametrize("text", [case[0] for case in HOSTILE_PII]
                         + ["jo@hill.example, " * 300, "a@b " * 500 + "x@y.example",
                            "mail jo@hill.example or ann@dale.example now"])
def test_email_scan_makes_at_most_two_regex_calls_per_match(monkeypatch, text):
    calls = []
    for name in ("_EMAIL_RE", "_EMAIL_START_RE"):
        monkeypatch.setattr(descriptions, name,
                            _CountingPattern(getattr(descriptions, name), calls))
    matches = list(descriptions._email_matches(text))
    assert len(calls) <= 2 * len(matches) + 2


def test_masking_token_names():
    masked, _ = mask_pii("jo@hill.example / https://x.example / 555-123-4567")
    for token in ("<EMAIL>", "<URL>", "<TELEPHONE>"):
        assert token in masked
    assert re.search(r"@|https|555", masked) is None


# --- rare languages -------------------------------------------------------------

CUTOFF = CONFIG.rare_lang_cutoff


def test_rare_language_cutoff_at_five():
    assert common_languages(Counter(fr=7, eo=5, unknown=1), CUTOFF) == {"fr"}


def test_rare_language_boundary_just_above_cutoff():
    assert common_languages(Counter(de=6), CUTOFF) == {"de"}


def test_rare_language_empty_collection():
    assert common_languages(Counter(), CUTOFF) == set()


def test_rare_language_histogram_property():
    counts = Counter(fr=9, de=6, it=5, nl=2, unknown=3)
    kept = common_languages(counts, CUTOFF)
    assert kept == {"fr", "de"}
    assert all(counts[lang] >= 6 for lang in kept)


def test_rare_language_cutoff_zero_still_drops_unknown():
    assert common_languages(Counter(fr=1, unknown=2), 0) == {"fr"}
