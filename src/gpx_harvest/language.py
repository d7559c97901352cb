"""Offline language identification for short activity descriptions.

A character n-gram classifier in the rank-order style: each language has a
profile of its most frequent 1-3 grams built from embedded seed text, and a
text is assigned the language whose profile it is closest to.  Texts that are
mostly digits or punctuation, too short, or far from every profile come back
as "unknown".

The distance is the out-of-place measure: the sum, over the text's ranked
grams, of the gap between a gram's rank in the text and in the profile, where
a gram missing from the profile ranks at the profile size.

Grams are counted by one numpy kernel, the same for the seed profiles at
import and for every text.  The casefolded words are joined with NULs between
them and every 1-3 gram without a NUL is packed into one int64 code, 21 bits
per code point, so that code order is string order.  The codes are sorted,
counted and ranked by (-count, gram).  Every gram of any profile has a column
of one int16 rank matrix with a row per language, in seed order, plus a last
column for "in no profile"; a text's ranked codes find their columns with one
``np.searchsorted`` and all profiles are scored with one numpy gather.  Ties
go to the first language in seed order.
"""

from __future__ import annotations

import re

import numpy as np

# Seed text per ISO-639-1 code.  Everyday outdoor-activity prose; what
# matters for the profiles is ordinary function-word statistics, not content.
_SEEDS = {
    "en": (
        "We followed the old path along the river and through the quiet woods, and "
        "after a short climb we reached the top of the hill, where the view over the "
        "whole valley was wonderful. The trail is well marked and easy to follow, but "
        "it can be muddy after rain, so good boots are recommended. There is a small "
        "shelter near the summit where you can rest, and from there the way back to "
        "the village takes about an hour. This walk is one of the most beautiful in "
        "the area and we will certainly come back with the whole family next year. "
        "Take enough water with you on warm days because there are no springs along "
        "the upper section of the route."
    ),
    "fr": (
        "Nous avons suivi le vieux chemin le long de la rivière et à travers les bois "
        "tranquilles, et après une courte montée nous avons atteint le sommet de la "
        "colline, où la vue sur toute la vallée était magnifique. Le sentier est bien "
        "balisé et facile à suivre, mais il peut être boueux après la pluie, donc de "
        "bonnes chaussures sont recommandées. Il y a un petit abri près du sommet où "
        "l'on peut se reposer, et de là le retour au village prend environ une heure. "
        "Cette randonnée est l'une des plus belles de la région et nous reviendrons "
        "certainement avec toute la famille l'année prochaine. Prenez assez d'eau les "
        "jours chauds car il n'y a pas de source sur la partie haute du parcours."
    ),
    "de": (
        "Wir folgten dem alten Weg entlang des Flusses und durch den stillen Wald, und "
        "nach einem kurzen Anstieg erreichten wir den Gipfel des Hügels, wo die "
        "Aussicht über das ganze Tal wunderbar war. Der Weg ist gut markiert und "
        "leicht zu finden, aber nach Regen kann er schlammig sein, daher sind gute "
        "Schuhe zu empfehlen. In der Nähe des Gipfels gibt es eine kleine Schutzhütte, "
        "in der man sich ausruhen kann, und von dort dauert der Rückweg ins Dorf etwa "
        "eine Stunde. Diese Wanderung ist eine der schönsten in der Gegend, und wir "
        "werden sicher mit der ganzen Familie wiederkommen. Nehmen Sie an warmen Tagen "
        "genug Wasser mit, denn auf dem oberen Teil der Strecke gibt es keine Quellen."
    ),
    "it": (
        "Abbiamo seguito il vecchio sentiero lungo il fiume e attraverso il bosco "
        "tranquillo, e dopo una breve salita abbiamo raggiunto la cima della collina, "
        "dove la vista su tutta la valle era meravigliosa. Il sentiero è ben segnalato "
        "e facile da seguire, ma dopo la pioggia può essere fangoso, quindi sono "
        "consigliate buone scarpe. Vicino alla cima c'è un piccolo rifugio dove ci si "
        "può riposare, e da lì il ritorno al paese richiede circa un'ora. Questa "
        "escursione è una delle più belle della zona e torneremo sicuramente con tutta "
        "la famiglia l'anno prossimo. Nelle giornate calde portate abbastanza acqua, "
        "perché nella parte alta del percorso non ci sono sorgenti."
    ),
    "es": (
        "Seguimos el viejo camino a lo largo del río y a través del bosque tranquilo, "
        "y después de una corta subida llegamos a la cima de la colina, donde la vista "
        "sobre todo el valle era maravillosa. El sendero está bien señalizado y es "
        "fácil de seguir, pero después de la lluvia puede estar embarrado, por lo que "
        "se recomiendan buenas botas. Cerca de la cima hay un pequeño refugio donde se "
        "puede descansar, y desde allí el regreso al pueblo dura aproximadamente una "
        "hora. Esta ruta es una de las más bonitas de la región y sin duda volveremos "
        "con toda la familia el año que viene. En los días calurosos lleva suficiente "
        "agua, porque en la parte alta del recorrido no hay fuentes."
    ),
    "pt": (
        "Seguimos o velho caminho ao longo do rio e através do bosque tranquilo, e "
        "depois de uma curta subida chegámos ao topo da colina, onde a vista sobre "
        "todo o vale era maravilhosa. O trilho está bem marcado e é fácil de seguir, "
        "mas depois da chuva pode ficar lamacento, por isso recomendam-se botas boas. "
        "Perto do topo há um pequeno abrigo onde se pode descansar, e dali o regresso "
        "à aldeia demora cerca de uma hora. Este passeio é um dos mais bonitos da "
        "região e certamente voltaremos com toda a família no próximo ano. Nos dias "
        "quentes leve água suficiente, porque na parte alta do percurso não há fontes."
    ),
    "nl": (
        "We volgden het oude pad langs de rivier en door het stille bos, en na een "
        "korte klim bereikten we de top van de heuvel, waar het uitzicht over de hele "
        "vallei prachtig was. Het pad is goed gemarkeerd en gemakkelijk te volgen, "
        "maar na regen kan het modderig zijn, dus goede schoenen worden aanbevolen. "
        "Bij de top staat een kleine schuilhut waar je kunt uitrusten, en van daar "
        "duurt de terugweg naar het dorp ongeveer een uur. Deze wandeling is een van "
        "de mooiste in de streek en we komen zeker terug met het hele gezin volgend "
        "jaar. Neem op warme dagen genoeg water mee, want op het hoge deel van de "
        "route zijn geen bronnen."
    ),
    "cs": (
        "Šli jsme po staré cestě podél řeky a tichým lesem, a po krátkém stoupání "
        "jsme dosáhli vrcholu kopce, odkud byl nádherný výhled na celé údolí. Stezka "
        "je dobře značená a snadno se sleduje, ale po dešti může být blátivá, proto "
        "doporučujeme dobré boty. Poblíž vrcholu je malý přístřešek, kde si můžete "
        "odpočinout, a odtud trvá cesta zpět do vesnice asi hodinu. Tento výlet je "
        "jedním z nejkrásnějších v okolí a určitě se vrátíme s celou rodinou příští "
        "rok. V teplých dnech si vezměte dost vody, protože v horní části trasy "
        "nejsou žádné prameny."
    ),
    "pl": (
        "Szliśmy starą ścieżką wzdłuż rzeki i przez cichy las, a po krótkim podejściu "
        "osiągnęliśmy szczyt wzgórza, skąd widok na całą dolinę był wspaniały. Szlak "
        "jest dobrze oznakowany i łatwy do śledzenia, ale po deszczu może być "
        "błotnisty, dlatego zalecamy dobre buty. W pobliżu szczytu znajduje się mały "
        "schron, gdzie można odpocząć, a stamtąd powrót do wsi zajmuje około godziny. "
        "Ta wycieczka jest jedną z najpiękniejszych w okolicy i na pewno wrócimy z "
        "całą rodziną w przyszłym roku. W ciepłe dni zabierz ze sobą dużo wody, bo w "
        "górnej części trasy nie ma żadnych źródeł."
    ),
    "sv": (
        "Vi följde den gamla stigen längs floden och genom den tysta skogen, och "
        "efter en kort stigning nådde vi toppen av kullen, där utsikten över hela "
        "dalen var underbar. Leden är väl markerad och lätt att följa, men efter regn "
        "kan den vara lerig, så bra skor rekommenderas. Nära toppen finns ett litet "
        "vindskydd där man kan vila, och därifrån tar vägen tillbaka till byn ungefär "
        "en timme. Denna vandring är en av de vackraste i området och vi kommer "
        "säkert tillbaka med hela familjen nästa år. Ta med tillräckligt med vatten "
        "under varma dagar, eftersom det inte finns några källor på ledens övre del."
    ),
    "da": (
        "Vi fulgte den gamle sti langs floden og gennem den stille skov, og efter en "
        "kort stigning nåede vi toppen af bakken, hvor udsigten over hele dalen var "
        "vidunderlig. Ruten er godt markeret og nem at følge, men efter regn kan den "
        "være mudret, så gode sko anbefales. Nær toppen er der et lille læskur, hvor "
        "man kan hvile sig, og derfra tager vejen tilbage til landsbyen omkring en "
        "time. Denne vandretur er en af de smukkeste i området, og vi kommer helt "
        "sikkert tilbage med hele familien næste år. Tag rigeligt vand med på varme "
        "dage, for der er ingen kilder på den øverste del af ruten."
    ),
    "no": (
        "Vi fulgte den gamle stien langs elven og gjennom den stille skogen, og etter "
        "en kort stigning nådde vi toppen av åsen, der utsikten over hele dalen var "
        "nydelig. Stien er godt merket og lett å følge, men etter regn kan den være "
        "gjørmete, så gode sko anbefales. Nær toppen står det en liten gapahuk der "
        "man kan hvile, og derfra tar veien tilbake til landsbyen omtrent en time. "
        "Denne turen er en av de fineste i området, og vi kommer sikkert tilbake med "
        "hele familien neste år. Ta med nok vann på varme dager, for det finnes ingen "
        "kilder på den øvre delen av ruta."
    ),
    "fi": (
        "Kuljimme vanhaa polkua pitkin joen vartta ja hiljaisen metsän läpi, ja "
        "lyhyen nousun jälkeen saavuimme mäen huipulle, josta näkymä koko laaksoon "
        "oli upea. Reitti on hyvin merkitty ja helppo seurata, mutta sateen jälkeen "
        "se voi olla mutainen, joten hyvät kengät ovat suositeltavat. Huipun lähellä "
        "on pieni laavu, jossa voi levätä, ja sieltä paluu kylään kestää noin tunnin. "
        "Tämä retki on yksi seudun kauneimmista, ja palaamme varmasti koko perheen "
        "kanssa ensi vuonna. Ota lämpiminä päivinä mukaan tarpeeksi vettä, sillä "
        "reitin yläosassa ei ole lähteitä."
    ),
    "hu": (
        "A régi ösvényen haladtunk a folyó mentén és a csendes erdőn át, és egy rövid "
        "emelkedő után elértük a domb tetejét, ahonnan a kilátás az egész völgyre "
        "csodálatos volt. Az út jól jelzett és könnyen követhető, de eső után sáros "
        "lehet, ezért jó bakancs ajánlott. A csúcs közelében van egy kis menedékház, "
        "ahol meg lehet pihenni, és onnan a visszaút a faluba körülbelül egy órát "
        "vesz igénybe. Ez a túra a környék egyik legszebbje, és jövőre biztosan "
        "visszatérünk az egész családdal. Meleg napokon vigyél magaddal elég vizet, "
        "mert az út felső szakaszán nincsenek források."
    ),
    "ro": (
        "Am urmat vechea potecă de-a lungul râului și prin pădurea liniștită, iar "
        "după un scurt urcuș am ajuns în vârful dealului, de unde priveliștea asupra "
        "întregii văi era minunată. Traseul este bine marcat și ușor de urmărit, dar "
        "după ploaie poate fi noroios, așa că se recomandă bocanci buni. Lângă vârf "
        "se află un mic adăpost unde te poți odihni, iar de acolo drumul înapoi spre "
        "sat durează cam o oră. Această drumeție este una dintre cele mai frumoase "
        "din zonă și cu siguranță vom reveni cu toată familia anul viitor. În zilele "
        "calde ia cu tine destulă apă, pentru că în partea de sus a traseului nu "
        "există izvoare."
    ),
    "sl": (
        "Hodili smo po stari poti ob reki in skozi tihi gozd, in po kratkem vzponu "
        "smo dosegli vrh hriba, od koder je bil razgled na celotno dolino čudovit. "
        "Pot je dobro označena in ji je lahko slediti, vendar je po dežju lahko "
        "blatna, zato priporočamo dobre čevlje. Blizu vrha je majhno zavetišče, kjer "
        "se lahko spočijete, od tam pa pot nazaj v vas traja približno eno uro. Ta "
        "izlet je eden najlepših v okolici in zagotovo se vrnemo z vso družino "
        "prihodnje leto. V toplih dneh vzemite s seboj dovolj vode, saj na zgornjem "
        "delu poti ni izvirov."
    ),
}

_PROFILE_SIZE = 400
_MIN_LETTERS = 12
_MIN_LETTER_FRACTION = 0.5
# Normalized rank distance above which no language is close enough.  Real
# prose lands well under 0.5 against its own profile; consonant soup and
# random strings land above 0.57.
_MAX_DISTANCE = 0.55

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

# A gram of up to three code points packs into one int64: 21 bits per code
# point, first character in the highest bits, missing characters zero.  Code
# points are below 2**21, so a code never reaches the sign bit.
_BITS = 21
_CHAR_MASK = (1 << _BITS) - 1
_EMPTY = np.zeros(0, dtype=np.int64)


def _gram_counts(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(sorted codes of the text's distinct 1-3 grams, occurrences of each).

    A word's grams are those of the word with one space on each side.  The
    padded words are joined with NULs, so a gram holding a NUL crosses a
    word boundary and is dropped.  No word character is NUL, so code order
    is Python string order of the grams.
    """
    words = _WORD_RE.findall(text.casefold())
    if not words:
        return _EMPTY, _EMPTY
    joined = "\0 " + " \0 ".join(words) + " \0"
    chars = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4").astype(np.int64)
    real = chars != 0
    pair = real[:-1] & real[1:]
    first = chars << (2 * _BITS)
    second = first[:-1] | (chars[1:] << _BITS)
    codes = np.concatenate((
        first[real],
        second[pair],
        (second[:-1] | chars[2:])[pair[:-1] & real[2:]],
    ))
    codes.sort()
    return _distinct(codes)


def _distinct(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, occurrences of each) of a sorted, non-empty array.

    What ``np.unique(codes, return_counts=True)`` returns, without the
    ``numpy.ma`` import it triggers on numpy 2, which costs about 2 MB of
    resident memory.
    """
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    return codes[starts], np.diff(np.append(starts, len(codes)))


def _ranked_codes(text: str) -> np.ndarray:
    """Codes of the text's top _PROFILE_SIZE grams by (-count, gram)."""
    codes, counts = _gram_counts(text)
    # The codes are sorted, so a stable sort by descending count breaks ties
    # by gram.
    return codes[np.argsort(-counts, kind="stable")[:_PROFILE_SIZE]]


def _decode(code: int) -> str:
    return "".join(chr(c) for c in ((code >> (2 * _BITS)) & _CHAR_MASK,
                                    (code >> _BITS) & _CHAR_MASK, code & _CHAR_MASK) if c)


_SEED_CODES = [_ranked_codes(seed) for seed in _SEEDS.values()]
_LANGUAGES = list(_SEEDS)
_PROFILES: dict[str, dict[str, int]] = {
    lang: {_decode(code): rank for rank, code in enumerate(codes.tolist())}
    for lang, codes in zip(_LANGUAGES, _SEED_CODES)
}


def _rank_matrix(seed_codes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(sorted codes of every gram in any profile, rank matrix with a row per profile).

    Column i of the matrix is the gram with the i-th code, and each row holds
    that gram's rank in its profile, or _PROFILE_SIZE when the profile lacks
    it; the extra last column is "in no profile".
    """
    codes, _ = _distinct(np.sort(np.concatenate(seed_codes)))
    ranks = np.full((len(seed_codes), len(codes) + 1), _PROFILE_SIZE, dtype=np.int16)
    for row, ranked in enumerate(seed_codes):
        ranks[row, np.searchsorted(codes, ranked)] = np.arange(len(ranked))
    return codes, ranks


_PROFILE_CODES, _RANKS = _rank_matrix(_SEED_CODES)
_ABSENT = len(_PROFILE_CODES)


def _columns(codes: np.ndarray) -> np.ndarray:
    """Rank-matrix column of each code: its profile column, or _ABSENT."""
    columns = np.searchsorted(_PROFILE_CODES, codes)
    found = _PROFILE_CODES[np.minimum(columns, _ABSENT - 1)] == codes
    return np.where(found, columns, _ABSENT)


def profile_languages() -> list[str]:
    """Language codes the detector can return (besides "unknown")."""
    return sorted(_PROFILES)


def detect_language(text: str) -> str:
    """Lowercase ISO-639-1 code for the text, or "unknown".

    "unknown" covers texts with too few letters, texts dominated by digits
    or symbols, and texts no profile is reasonably close to.
    """
    letters = sum(map(str.isalpha, text))
    if letters < _MIN_LETTERS:
        return "unknown"
    non_space = len(text) - sum(map(str.isspace, text))
    if non_space and letters / non_space < _MIN_LETTER_FRACTION:
        return "unknown"

    text_codes = _ranked_codes(text)
    if not text_codes.size:
        return "unknown"

    ranks = np.arange(len(text_codes), dtype=np.int64)
    # Text ranks are below _PROFILE_SIZE and profile ranks at most
    # _PROFILE_SIZE, so no gap exceeds the out-of-place cap of _PROFILE_SIZE.
    out_of_place = np.abs(ranks - _RANKS[:, _columns(text_codes)]).sum(axis=1)
    # argmin returns the first minimum: ties go to the earlier language.
    best = int(np.argmin(out_of_place))
    if int(out_of_place[best]) / (len(text_codes) * _PROFILE_SIZE) > _MAX_DISTANCE:
        return "unknown"
    return _LANGUAGES[best]
