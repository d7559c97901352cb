"""The description pipeline: clean, mask, bound, judge, identify, translate.

Cleaning strips HTML and bracketed app tags and collapses whitespace; masking
replaces emails, URLs and phone numbers with placeholder tokens before any
text leaves the machine.  Pluggable judges decide quality and residual PII
(the stub judge keeps everything); the offline n-gram detector assigns a
language, and a pluggable backend translates non-English text.
"""

from gpx_harvest import (FilterConfig, StubJudge, clean_text, detect_language,
                         judge_pii, judge_quality, length_exclusion, mask_pii,
                         translate_to_english)

config = FilterConfig()
judge = StubJudge()

raw = ("Wonderful <b>ridge walk</b> above the lake. [wpt-count:14]\n"
       "Park at the church; questions to tours@ridge.example or +44 20 7946 0958.\n"
       "Route sheet at https://ridge.example/sheet {v2}. Allow four hours.")

text = clean_text(raw)
print("cleaned:", text)

text, flags = mask_pii(text)
print("masked: ", text)
print("fired:  ", flags)

print("length:  ", length_exclusion(text, config) or "within bounds")
print("quality:", judge_quality(text, judge))
print("pii:    ", judge_pii(text, judge))

for sample in (text,
               "Sehr schöne Runde durch den Wald, gut markiert und nie steil.",
               "12345 67890 !!!"):
    lang = detect_language(sample)
    print(f"lang={lang:8s} {sample[:60]!r}")

# a scripted backend stands in for the NMT command here
fake_nmt = lambda source, lang: "A very beautiful forest loop, well marked and never steep."
german = "Sehr schöne Runde durch den Wald, gut markiert und nie steil."
print("translated:", translate_to_english(german, "de", fake_nmt))
print("identity:  ", translate_to_english("Already English.", "en", fake_nmt))
