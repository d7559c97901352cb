"""Outdoor-activity prose in the sixteen languages the detector profiles.

The sentences are written for the benchmark and share no text with the
detector's own seed prose, so detection is tested, not replayed.  They
contain no digits: the phone-number mask must only fire on the numbers the
generator inserts on purpose.
"""

SENTENCES = {
    "en": (
        "The path climbs gently through the beech forest and then follows the ridge towards the old chapel.",
        "From the top you can see the lake, the village and on clear days even the mountains in the south.",
        "We started early in the morning because the afternoon was expected to be very hot.",
        "The descent is steep and rocky in places, so walking poles are a good idea.",
        "After the bridge the trail returns along the stream to the car park near the mill.",
    ),
    "fr": (
        "Le sentier monte doucement à travers la forêt de hêtres puis suit la crête jusqu'à la vieille chapelle.",
        "Du sommet on voit le lac, le village et, par temps clair, même les montagnes au sud.",
        "Nous sommes partis tôt le matin parce que l'après-midi devait être très chaud.",
        "La descente est raide et caillouteuse par endroits, des bâtons de marche sont donc utiles.",
        "Après le pont, le chemin revient le long du ruisseau jusqu'au parking près du moulin.",
    ),
    "de": (
        "Der Pfad steigt sanft durch den Buchenwald an und folgt dann dem Grat bis zur alten Kapelle.",
        "Vom Gipfel sieht man den See, das Dorf und bei klarem Wetter sogar die Berge im Süden.",
        "Wir sind früh am Morgen losgegangen, weil es am Nachmittag sehr heiß werden sollte.",
        "Der Abstieg ist stellenweise steil und steinig, deshalb sind Wanderstöcke eine gute Idee.",
        "Nach der Brücke führt der Weg am Bach entlang zurück zum Parkplatz bei der Mühle.",
    ),
    "it": (
        "Il sentiero sale dolcemente attraverso il bosco di faggi e poi segue il crinale fino alla vecchia cappella.",
        "Dalla cima si vedono il lago, il paese e nelle giornate limpide anche le montagne a sud.",
        "Siamo partiti presto la mattina perché nel pomeriggio doveva fare molto caldo.",
        "La discesa è ripida e sassosa in alcuni tratti, quindi i bastoncini sono una buona idea.",
        "Dopo il ponte il percorso torna lungo il torrente fino al parcheggio vicino al mulino.",
    ),
    "es": (
        "El sendero sube suavemente por el hayedo y luego sigue la cresta hasta la vieja ermita.",
        "Desde la cumbre se ven el lago, el pueblo y en los días claros incluso las montañas del sur.",
        "Salimos temprano por la mañana porque se esperaba que la tarde fuera muy calurosa.",
        "La bajada es empinada y pedregosa en algunos tramos, así que los bastones son una buena idea.",
        "Después del puente el camino vuelve junto al arroyo hasta el aparcamiento cerca del molino.",
    ),
    "pt": (
        "O trilho sobe suavemente pela mata de faias e depois segue a cumeada até à velha capela.",
        "Do cimo vê-se o lago, a aldeia e nos dias limpos até as montanhas a sul.",
        "Saímos cedo de manhã porque a tarde prometia ser muito quente.",
        "A descida é íngreme e pedregosa em alguns troços, por isso os bastões são uma boa ideia.",
        "Depois da ponte o caminho regressa ao longo do ribeiro até ao parque de estacionamento junto ao moinho.",
    ),
    "nl": (
        "Het pad klimt geleidelijk door het beukenbos en volgt daarna de heuvelrug naar de oude kapel.",
        "Vanaf de top zie je het meer, het dorp en bij helder weer zelfs de bergen in het zuiden.",
        "We vertrokken vroeg in de ochtend omdat het in de middag erg warm zou worden.",
        "De afdaling is op sommige plekken steil en rotsachtig, dus wandelstokken zijn een goed idee.",
        "Na de brug loopt de route langs de beek terug naar de parkeerplaats bij de molen.",
    ),
    "cs": (
        "Cesta mírně stoupá bukovým lesem a potom pokračuje po hřebeni až ke staré kapli.",
        "Z vrcholu je vidět jezero, vesnice a za jasného počasí dokonce i hory na jihu.",
        "Vyrazili jsme brzy ráno, protože odpoledne mělo být velké horko.",
        "Sestup je místy prudký a kamenitý, proto se hodí trekingové hole.",
        "Za mostem se stezka vrací podél potoka zpět na parkoviště u mlýna.",
    ),
    "pl": (
        "Ścieżka łagodnie wznosi się przez las bukowy, a potem biegnie grzbietem aż do starej kaplicy.",
        "Ze szczytu widać jezioro, wioskę, a przy dobrej pogodzie nawet góry na południu.",
        "Wyruszyliśmy wcześnie rano, ponieważ po południu miało być bardzo gorąco.",
        "Zejście jest miejscami strome i kamieniste, więc kijki trekkingowe są dobrym pomysłem.",
        "Za mostem szlak wraca wzdłuż potoku na parking koło młyna.",
    ),
    "sv": (
        "Stigen går genom den stora skogen och det är lätt att följa den hela vägen upp till toppen.",
        "Från toppen ser man sjön och byn, och när det är klart väder kan man se fjällen i söder.",
        "Vi gick tidigt på morgonen eftersom det skulle bli mycket varmt under eftermiddagen.",
        "Nedförsbacken är brant och stenig, så det är bra att ha stavar med sig.",
        "Efter bron går leden tillbaka längs bäcken till parkeringen som ligger vid kvarnen.",
    ),
    "da": (
        "Stien går gennem den store skov, og det er nemt at følge den hele vejen op til toppen.",
        "Fra toppen kan man se søen og landsbyen, og når vejret er klart, kan man se bakkerne mod syd.",
        "Vi gik tidligt om morgenen, fordi det skulle blive meget varmt i løbet af eftermiddagen.",
        "Nedstigningen er stejl og stenet, så det er en god idé at have stave med.",
        "Efter broen går ruten tilbage langs åen til parkeringspladsen, som ligger ved møllen.",
    ),
    "no": (
        "Stien går gjennom den store skogen, og det er lett å følge den hele veien opp til toppen.",
        "Fra toppen kan man se vannet og bygda, og når været er klart, ser man også fjellene i sør.",
        "Vi gikk tidlig om morgenen, fordi det skulle bli veldig varmt utover ettermiddagen.",
        "Nedstigningen er bratt og steinete, så det er lurt å ha staver med seg.",
        "Etter brua går stien tilbake langs bekken til parkeringsplassen, som ligger ved kverna.",
    ),
    "fi": (
        "Polku nousee loivasti pyökkimetsän läpi ja seuraa sitten harjua vanhalle kappelille asti.",
        "Huipulta näkyy järvi, kylä ja kirkkaalla säällä jopa etelän vuoret.",
        "Lähdimme aikaisin aamulla, koska iltapäivän piti olla todella kuuma.",
        "Laskeutuminen on paikoin jyrkkä ja kivikkoinen, joten sauvat ovat hyvä ajatus.",
        "Sillan jälkeen reitti palaa puron vartta pitkin myllyn lähellä olevalle parkkipaikalle.",
    ),
    "hu": (
        "Az ösvény enyhén emelkedik a bükkösön át, majd a gerincen halad a régi kápolnáig.",
        "A csúcsról látszik a tó, a falu, tiszta időben pedig még a déli hegyek is.",
        "Korán reggel indultunk, mert délutánra nagy meleget ígértek.",
        "Az ereszkedés helyenként meredek és köves, ezért a túrabot jó ötlet.",
        "A híd után az út a patak mentén tér vissza a malom melletti parkolóhoz.",
    ),
    "ro": (
        "Poteca urcă ușor prin pădurea de fag și apoi urmează creasta până la capela veche.",
        "Din vârf se văd lacul, satul și în zilele senine chiar și munții din sud.",
        "Am plecat devreme dimineața pentru că după-amiaza urma să fie foarte cald.",
        "Coborârea este abruptă și pietroasă pe alocuri, așa că bețele de drumeție sunt o idee bună.",
        "După pod traseul se întoarce de-a lungul pârâului până la parcarea de lângă moară.",
    ),
    "sl": (
        "Pot se zmerno vzpenja skozi bukov gozd in nato sledi grebenu do stare kapele.",
        "Z vrha se vidijo jezero, vas in ob jasnem vremenu celo gore na jugu.",
        "Odpravili smo se zgodaj zjutraj, ker naj bi bilo popoldne zelo vroče.",
        "Spust je ponekod strm in kamnit, zato so pohodne palice dobra ideja.",
        "Za mostom se pot vrne ob potoku nazaj do parkirišča pri mlinu.",
    ),
}
