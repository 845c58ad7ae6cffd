"""The certificate stream's emission order is a contract.

Budgets everywhere in fpw count emissions of ``trivial_word_stream``, and the
pinned results ("proved in 744 steps", the iso-search pair indices) depend on
its exact order.  These digests were recorded from the original word
kernel, which stored each letter as a (generator, sign) pair rather than as
an integer code; any change to the stream or to the word kernel under it
must reproduce them byte for byte.
"""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st_

from fpw.presentations import (
    CertFactor,
    FinitePresentation,
    RecursivePresentation,
    TrivialityCertificate,
    certificate_word,
    parse_presentation,
    trivial_word_stream,
    _emissions,
)
from fpw.words import Alphabet, format_word, invert, parse_word, _inverse, _reduce

from conftest import ShortlexWords

EMISSIONS = 50_000

DIGESTS = {
    "< s, t | s^-1 t^2 s t^-3 >": "96ed63455bca59a0b2a740950a85f1680a4a2376b4779234bd18e241308ab700",
    "< x | x^2 >": "b565b25c985f7c60f80120cf5df4685d0adb5c97a61bdc9bff82dfd26cafd63b",
    "< a, b | a^3, a b a^-1 b^-1 >": "fb77c3fbc0b0bcab60fd42393224544f232455b91e490be58e0be738bf69bf72",
}


@pytest.mark.parametrize("text", list(DIGESTS))
def test_first_emissions_digest(text):
    digest = hashlib.sha256()
    for word, cert in itertools.islice(trivial_word_stream(parse_presentation(text)), EMISSIONS):
        digest.update(f"{format_word(word)}\t{json.dumps(cert.to_json())}\n".encode())
    assert digest.hexdigest() == DIGESTS[text]


# ---------------------------------------------------------------- the raw stream against its reference


def _reference_emissions(pres):
    """The stream as it was before junction-only reduction: every emission
    spells out c r^e c^-1 for each factor and reduces the whole word."""
    source = iter(pres.relators) if isinstance(pres, FinitePresentation) else pres.relator_source()
    rels = []
    table = ShortlexWords(pres.generators)
    levels = {}
    yield (), (), (), ()
    for size in itertools.count(1):
        for r in itertools.islice(source, size - len(rels)):
            rels.append(r.codes)
        if not rels:
            return
        for n in range(1, size + 1):
            rest = size - n
            for max_idx in range(0, min(rest, len(rels) - 1) + 1):
                conj_total = rest - max_idx
                # conjugator lengths, lex ascending, enumerated apart from fpw's _compositions
                for comp in [c for c in itertools.product(range(conj_total + 1), repeat=n) if sum(c) == conj_total]:
                    for ln in comp:
                        if ln not in levels:
                            levels[ln] = [(c, c.codes, _inverse(c.codes)) for c in table.of_length(ln)]
                    for conjs in itertools.product(*(levels[ln] for ln in comp)):
                        words = tuple(c for c, _, _ in conjs)
                        for idxs in itertools.product(range(max_idx + 1), repeat=n):
                            if max(idxs) != max_idx:
                                continue
                            for signs in itertools.product((1, -1), repeat=n):
                                codes = []
                                for (_, c, c_inv), i, e in zip(conjs, idxs, signs):
                                    codes += c
                                    codes += rels[i] if e == 1 else _inverse(rels[i])
                                    codes += c_inv
                                yield _reduce(codes), words, idxs, signs


_XY = Alphabet.of("x", "y")
_X2, _Y3 = parse_word(_XY, "x^2"), parse_word(_XY, "y^3")
# a source that repeats a relator and emits the empty word
_REPEATING = RecursivePresentation(_XY, lambda: iter([_X2, _X2, _XY.empty_word(), _Y3]))


@pytest.mark.parametrize("pres", [*map(parse_presentation, DIGESTS), _REPEATING], ids=[*DIGESTS, "repeating source"])
def test_raw_stream_matches_the_reference(pres):
    expected = itertools.islice(_reference_emissions(pres), 3000)
    assert list(itertools.islice(_emissions(pres), 3000)) == list(expected)


# ---------------------------------------------------------------- certificate evaluation

THREE_RELATORS = parse_presentation("< a, b | a^3, a b a^-1 b^-1, b^2 a >")
_ALPHA = THREE_RELATORS.generators

factors = st_.lists(
    st_.tuples(
        st_.lists(st_.sampled_from(["a", "a^-1", "b", "b^-1"]), max_size=6),
        st_.sampled_from([0, 1, 2]),
        st_.sampled_from([1, -1]),
    ),
    max_size=8,
)


def _factor_by_factor(pres, cert):
    """Reference evaluator: multiply the factors in one at a time."""
    out = pres.generators.empty_word()
    for c, i, e in cert.factors:
        r = pres.relators[i] if e == 1 else invert(pres.relators[i])
        out = out * c * r * invert(c)
    return out


@settings(max_examples=200)
@given(factors)
def test_certificate_word_matches_factor_by_factor_product(spec):
    cert = TrivialityCertificate(
        tuple(CertFactor(parse_word(_ALPHA, " ".join(c)), i, e) for c, i, e in spec)
    )
    assert certificate_word(THREE_RELATORS, cert) == _factor_by_factor(THREE_RELATORS, cert)
