from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gpx_harvest import language
from gpx_harvest.language import detect_language, profile_languages


def test_profiles_cover_a_wide_language_set():
    languages = profile_languages()
    assert len(languages) >= 11
    for code in ("en", "fr", "de", "it", "es", "nl"):
        assert code in languages
    assert all(code == code.lower() and len(code) == 2 for code in languages)


def test_detects_german():
    text = ("Der Weg ist sehr gut markiert und beginnt an der alten Kirche im Dorf. "
            "Schöne Aussicht über das ganze Tal.")
    assert detect_language(text) == "de"


def test_detects_english():
    text = "Quieter roads and backstreets, quirky interest but still direct."
    assert detect_language(text) == "en"


def test_detects_french():
    text = ("Belle boucle au départ du village, montée régulière jusqu'au col puis "
            "descente tranquille par la forêt.")
    assert detect_language(text) == "fr"


def test_detects_italian_and_spanish():
    assert detect_language("Bellissima vista dalla cima, sentiero facile da seguire "
                           "e ben segnalato per tutta la salita.") == "it"
    assert detect_language("Vistas preciosas desde la cima, sendero fácil de seguir "
                           "y bien señalizado durante toda la subida.") == "es"


def test_numeric_noise_is_unknown():
    assert detect_language("12345 67890 !!!") == "unknown"


def test_mostly_digits_is_unknown():
    assert detect_language("47.2531 11.3898 47.2540 11.3910 47.2552") == "unknown"


def test_short_text_is_unknown():
    assert detect_language("ok") == "unknown"
    assert detect_language("") == "unknown"


def test_consonant_soup_is_unknown():
    assert detect_language("zzkw qqpt xxvr mmjq bbfd ggxx") == "unknown"


def test_detector_is_deterministic():
    text = "Mooie wandeling door het bos en langs de rivier naar het uitzichtpunt."
    assert detect_language(text) == detect_language(text) == "nl"


def test_masked_tokens_do_not_break_detection():
    text = ("Meet at the car park by the bridge. More details at <URL> or send a "
            "note to <EMAIL>. Lovely views along the whole ridge on a clear day.")
    assert detect_language(text) == "en"


# --- the scalar scorer, kept as the reference for the rank-matrix gather ----------

def _reference_ngram_counts(text: str) -> Counter:
    counts: Counter = Counter()
    for word in language._WORD_RE.findall(text.casefold()):
        padded = f" {word} "
        for n in (1, 2, 3):
            for i in range(len(padded) - n + 1):
                counts[padded[i:i + n]] += 1
    return counts


def _reference_ranked(counts: Counter, size: int) -> list[str]:
    return [gram for gram, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:size]]


def _reference_distance(text_grams: list[str], profile: dict[str, int]) -> float:
    out_of_place = 0
    for rank, gram in enumerate(text_grams):
        profile_rank = profile.get(gram, language._PROFILE_SIZE)
        out_of_place += min(abs(rank - profile_rank), language._PROFILE_SIZE)
    return out_of_place / (len(text_grams) * language._PROFILE_SIZE)


def _reference_detect(text: str) -> str:
    letters = sum(1 for c in text if c.isalpha())
    if letters < language._MIN_LETTERS:
        return "unknown"
    non_space = sum(1 for c in text if not c.isspace())
    if non_space and letters / non_space < language._MIN_LETTER_FRACTION:
        return "unknown"
    text_grams = _reference_ranked(_reference_ngram_counts(text), language._PROFILE_SIZE)
    if not text_grams:
        return "unknown"
    best_lang, best_distance = "unknown", float("inf")
    for lang, profile in language._PROFILES.items():
        distance = _reference_distance(text_grams, profile)
        if distance < best_distance:
            best_lang, best_distance = lang, distance
    return "unknown" if best_distance > language._MAX_DISTANCE else best_lang


_SEED_TEXTS = list(language._SEEDS.values())


@st.composite
def _seed_slice(draw) -> str:
    seed = draw(st.sampled_from(_SEED_TEXTS))
    start = draw(st.integers(0, len(seed) - 1))
    return seed[start:start + draw(st.integers(1, 600))]


_PIECES = st.one_of(
    _seed_slice(),
    st.sampled_from(["<URL>", "<EMAIL>", "<TELEPHONE>"]),
    st.text("0123456789.,:-+ ", max_size=30),
    st.text("abcdefghijklmnopqrstuvwxyzäöüßéèçñøåšžčłőț ", min_size=1, max_size=80),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, min_size=1, max_size=4).map(" ".join))
def test_detect_language_matches_the_per_profile_reference(text):
    # Seed slices, splices of two or more languages, masked tokens, digits
    # and letter soup, alone or mixed.
    assert detect_language(text) == _reference_detect(text)


def test_detect_language_matches_the_reference_on_whole_seeds_and_splices():
    for seed in _SEED_TEXTS:
        assert detect_language(seed) == _reference_detect(seed)
    for first, second in zip(_SEED_TEXTS, _SEED_TEXTS[1:] + _SEED_TEXTS[:1]):
        text = first[:len(first) // 2] + " " + second[len(second) // 2:]
        assert detect_language(text) == _reference_detect(text)


def _decoded_counts(text: str) -> dict[str, int]:
    codes, counts = language._gram_counts(text)
    return {language._decode(code): count for code, count in zip(codes.tolist(), counts.tolist())}


def _decoded_ranked(text: str) -> list[str]:
    return [language._decode(code) for code in language._ranked_codes(text).tolist()]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=300), _seed_slice()))
def test_ngram_counts_equal_a_per_occurrence_counter(text):
    reference = _reference_ngram_counts(text)
    assert _decoded_counts(text) == dict(reference)
    assert _decoded_ranked(text) == _reference_ranked(reference, language._PROFILE_SIZE)


# Astral-plane letters, casefold expansions (ß -> ss, ﬁ -> fi, İ -> i + U+0307),
# combining marks, and digits or "_" next to letters.
_AWKWARD_TEXT = st.lists(
    st.one_of(st.text(max_size=40),
              st.text("𝔸𝔹𐐀𐐨ßẞﬁﬂİıΣσς\u0301\u0308\u0307aé_09 ", max_size=40)),
    min_size=1, max_size=6,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_AWKWARD_TEXT)
def test_ranked_codes_decode_to_the_reference_ranking(text):
    assert (_decoded_ranked(text)
            == _reference_ranked(_reference_ngram_counts(text), language._PROFILE_SIZE))


def test_profiles_equal_the_per_occurrence_build():
    for lang, seed in language._SEEDS.items():
        ranked = _reference_ranked(_reference_ngram_counts(seed), language._PROFILE_SIZE)
        assert language._PROFILES[lang] == {gram: rank for rank, gram in enumerate(ranked)}


def test_equal_profile_rows_resolve_to_the_earlier_seed_language(monkeypatch):
    text = ("Der Weg ist sehr gut markiert und beginnt an der alten Kirche im Dorf. "
            "Schöne Aussicht über das ganze Tal.")
    codes = list(language._SEEDS)
    assert codes.index("en") < codes.index("de")
    assert detect_language(text) == "de"
    ranks = language._RANKS.copy()
    ranks[codes.index("en")] = ranks[codes.index("de")]
    monkeypatch.setattr(language, "_RANKS", ranks)
    assert detect_language(text) == "en"


def test_rank_matrix_is_int16_with_an_absent_column():
    ranks = language._RANKS
    assert ranks.dtype == np.int16
    assert ranks.shape == (len(language._SEEDS), len(language._PROFILE_CODES) + 1)
    assert (np.diff(language._PROFILE_CODES) > 0).all()
    assert (ranks[:, -1] == language._PROFILE_SIZE).all()
    assert ((ranks < language._PROFILE_SIZE).sum(axis=1) == language._PROFILE_SIZE).all()
