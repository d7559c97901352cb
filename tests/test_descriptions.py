import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpx_harvest.config import FilterConfig
from gpx_harvest.descriptions import (clean_text, common_languages, find_raw_pii,
                                      length_exclusion, mask_pii)

CONFIG = FilterConfig()


# --- clean_text ---------------------------------------------------------------

def test_str_split_and_re_agree_on_every_whitespace_character():
    # clean_text collapses whitespace with str.split, and detect_language counts
    # it the same way; both stand for re's \\s and str.isspace.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
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
