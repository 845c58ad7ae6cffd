"""The validated value types check their fields every time one is built.

Each bad construction below must raise the ValueError, message included,
that the type has always raised; the certificate cases also go through
``TrivialityCertificate.from_json``, which reads input from outside.
"""

import pickle

import pytest

from fpw.bs import ST, BSParams
from fpw.harness import ExplicitFiniteSet
from fpw.presentations import CertFactor, FinitePresentation, IntMatrix, TrivialityCertificate
from fpw.search import SearchBudget
from fpw.words import Alphabet, GeneratorMap

from conftest import w

T_ONLY = Alphabet.of("t")

BAD_FIELDS = {
    "generator-name": (lambda: Alphabet.of("a b"), "invalid generator name: 'a b'"),
    "alphabet-empty": (lambda: Alphabet(()), "alphabet must contain at least one generator"),
    "alphabet-duplicate": (lambda: Alphabet.of("s", "s"), "duplicate generator names: ['s', 's']"),
    "map-image-count": (lambda: GeneratorMap(ST, ST, (w("s"),)), "expected 2 images, got 1"),
    "map-codomain": (lambda: GeneratorMap(T_ONLY, T_ONLY, (w("t"),)), "image word is not over the codomain alphabet"),
    "presentation-relator": (
        lambda: FinitePresentation(T_ONLY, (w("t"),)), "relator is not a word over the presentation's generators"
    ),
    "certificate-sign": (
        lambda: TrivialityCertificate((CertFactor(w(""), 0, 2),)), "certificate sign must be +1 or -1, got 2"
    ),
    "certificate-index": (lambda: TrivialityCertificate((CertFactor(w(""), -2, 1),)), "negative relator index: -2"),
    "json-certificate-sign": (
        lambda: TrivialityCertificate.from_json(ST, [{"conj": "s", "rel": 0, "sign": 2}]),
        "certificate sign must be +1 or -1, got 2",
    ),
    "json-certificate-index": (
        lambda: TrivialityCertificate.from_json(ST, [{"conj": "", "rel": -5, "sign": -1}]),
        "negative relator index: -5",
    ),
    "matrix-dimensions": (lambda: IntMatrix(-1, 0, ()), "negative matrix dimensions"),
    "matrix-shape": (lambda: IntMatrix(1, 2, ((1,),)), "entries do not match declared shape"),
    "search-budget": (lambda: SearchBudget(0, -1), "budgets must be >= 0"),
    "bs-params": (lambda: BSParams(2, 0), "BS parameters must be >= 1, got (2, 0)"),
    "finite-set-natural": (lambda: ExplicitFiniteSet((-1,)), "elements must be naturals"),
    "finite-set-order": (lambda: ExplicitFiniteSet((2, 1)), "elements must be strictly increasing; use .of()"),
}


@pytest.mark.parametrize("build,message", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_validated_types_reject_bad_fields(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_validated_types_keep_value_equality_and_hashing():
    assert Alphabet.of("s", "t") == ST and hash(Alphabet.of("s", "t")) == hash(ST)
    assert Alphabet.of("t", "s") != ST
    assert ExplicitFiniteSet.of([4, 7]) == ExplicitFiniteSet((4, 7)) != ExplicitFiniteSet((4,))
    assert len({BSParams(2, 3), BSParams(2, 3), BSParams(3, 2)}) == 2
    # relators given as a list are stored as a tuple
    pres = FinitePresentation(ST, [w("t")])
    assert pres.relators == (w("t"),) and pres == FinitePresentation(ST, (w("t"),))
    assert hash(pres) == hash(FinitePresentation(ST, (w("t"),)))


def test_alphabets_and_finite_sets_are_immutable_tuples_that_pickle():
    # an equal copy of ST, so that a mutable alphabet could not break the shared one
    alphabet, finite = Alphabet.of("s", "t"), ExplicitFiniteSet.of([4, 7])
    for obj, field in [(alphabet, "generators"), (alphabet, "_codes"), (finite, "elements")]:
        with pytest.raises(AttributeError):
            setattr(obj, field, {})
    assert alphabet == ST == ("s", "t") and finite == (4, 7)
    word = w("s t^2 s^-1")
    back = pickle.loads(pickle.dumps(word))
    assert back == word and back.alphabet.__class__ is Alphabet and back.alphabet.code("t") == 2
    back = pickle.loads(pickle.dumps(finite))
    assert back == finite and back.__class__ is ExplicitFiniteSet
