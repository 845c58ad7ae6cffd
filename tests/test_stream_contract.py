"""The certificate stream's emission order is a contract.

Budgets everywhere in fpw count emissions of ``trivial_word_stream``, and the
pinned results ("proved in 744 steps", the iso-search pair indices) depend on
its exact order.  These digests were recorded from the original word
kernel, which stored each letter as a (generator, sign) pair rather than as
an integer code; any change to the stream or to the word kernel under it
must reproduce them byte for byte.
"""

import collections
import gc
import hashlib
import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st_

from fpw.presentations import (
    CertFactor,
    FinitePresentation,
    RecursivePresentation,
    TrivialityCertificate,
    certificate_word,
    exponent_vector,
    parse_presentation,
    semidecide_trivial,
    trivial_word_stream,
    _emissions,
    _packed,
)
from fpw.words import Alphabet, format_word, invert, parse_word, _inverse, _reduce, _word

from conftest import ShortlexWords, emissions_with_fresh_tuples

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


# ---------------------------------------------------------------- the raw stream against the parent stream


def _pull(stream, count):
    """The first ``count`` emissions of ``stream``, and the message of the
    ValueError that ended it early or None."""
    out = []
    try:
        for item in itertools.islice(stream, count):
            out.append(item)
    except ValueError as e:
        return out, str(e)
    return out, None


@st_.composite
def _alphabets_and_relators(draw):
    """1-3 generators and 0-6 relators drawn from a pool of at most four words
    of up to four letters, so relators repeat, the empty word occurs and
    relator indices run up to 5."""
    alphabet = Alphabet.of(*"abc"[: draw(st_.integers(1, 3))])
    letters = [c for i in range(1, len(alphabet) + 1) for c in (i, -i)]
    pool = draw(st_.lists(st_.lists(st_.sampled_from(letters), max_size=4), min_size=1, max_size=4))
    relators = draw(st_.lists(st_.sampled_from(pool), max_size=6))
    return alphabet, [_word(alphabet, _reduce(codes)) for codes in relators]


@settings(max_examples=60, deadline=None)
@given(_alphabets_and_relators())
def test_raw_stream_matches_the_parent_stream(drawn):
    pres = FinitePresentation(*drawn)
    assert _pull(_emissions(pres), 1500) == _pull(emissions_with_fresh_tuples(pres), 1500)


@settings(max_examples=60, deadline=None)
@given(_alphabets_and_relators(), st_.none() | st_.integers(0, 4))
def test_raw_stream_matches_the_parent_stream_on_a_relator_source(drawn, foreign_at):
    """A source that ends after its relators, or yields a relator over other
    generators at position ``foreign_at``: both streams raise there after the
    same emissions (by position 4 within 1500 emissions on three generators)."""
    alphabet, relators = drawn
    if foreign_at is not None:
        relators.insert(min(foreign_at, len(relators)), parse_word(_XY, "x"))
    pres = RecursivePresentation(alphabet, lambda: iter(relators))
    got = _pull(_emissions(pres), 1500)
    assert got == _pull(emissions_with_fresh_tuples(pres), 1500)
    if foreign_at is not None:
        assert got[1] == "relator is not a word over the presentation's generators"


def _peak_bytes(stream, count):
    """The peak traced memory while ``count`` emissions are pulled and dropped."""
    tracemalloc.start()
    try:
        for _ in itertools.islice(stream, count):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("text,bound", [
    ("< a, b | a^2, b^2, a b a b, a^3 b, b^3 a, a b^-1 a b >", 1.2),
    # One generator keeps the parent stream's state near 36 KB, and blocks of
    # five factors over top index 2 (211 index tuples, 32 sign tuples) come
    # within the 50,000 emissions.  The shared tables take the peak to about
    # 1.5x the parent's; holding such a block's 6752 index x sign pairs takes
    # it past 10x.
    ("< a | a^2, a^3, a^5, a^7, a^11, a^13 >", 3.0),
])
def test_raw_stream_holds_no_more_than_the_parent_stream(text, bound):
    """Shared index and sign tuples may cost a block (m+1)^n index tuples and
    2^n sign tuples, never their product."""
    pres = parse_presentation(text)
    streams = (_emissions, emissions_with_fresh_tuples)
    for stream in streams:  # untraced passes first, so both traced ones start with the free lists filled
        _pull(stream(pres), 50_000)
    change, parent = (_peak_bytes(stream(pres), 50_000) for stream in streams)
    assert change <= bound * parent


# ---------------------------------------------------------------- the filtered stream against the unfiltered one

SIX_RELATORS = "< a, b | a^2, b^2, a b a b, a^3 b, b^3 a, a b^-1 a b >"


@pytest.mark.parametrize("text", ["< s, t | s^-1 t^2 s t^-3 >", "< a, b | a^3, a b a^-1 b^-1 >", SIX_RELATORS])
def test_filtered_stream_yields_every_row_and_joins_those_that_can_hit(text):
    """Given exponent vectors, the stream yields the unfiltered stream's
    conjugators, indices and signs in order, and codes exactly for the rows
    whose words have one of the vectors."""
    pres = parse_presentation(text)
    full = list(itertools.islice(_emissions(pres), 3000))
    # three reached vectors and (99, 0), which no row of these presentations has
    vectors = {_packed(full[k][0]) for k in (17, 400, 2999)} | {_packed((1,) * 99)}
    filtered = list(itertools.islice(_emissions(pres, vectors), 3000))
    assert [row[1:] for row in filtered] == [row[1:] for row in full]
    assert filtered[0] == full[0] == ((), (), (), ())  # the empty certificate is no block's row
    joined = 0
    for (codes, *_), (full_codes, *_) in zip(filtered[1:], full[1:]):
        if codes is None:
            assert _packed(full_codes) not in vectors
        else:
            assert codes == full_codes and _packed(codes) in vectors
            joined += 1
    assert 0 < joined < len(full) - 1


_CODES = st_.lists(st_.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12)


@settings(max_examples=300)
@given(_CODES, _CODES)
def test_packed_vectors_agree_exactly_where_exponent_vectors_do(a, b):
    abc = Alphabet.of("a", "b", "c")
    va, vb = (exponent_vector(abc, _word(abc, _reduce(codes))) for codes in (a, b))
    assert (_packed(tuple(a)) == _packed(tuple(b))) == (va == vb)


def _peak_from_empty_free_lists(run):
    """The peak traced memory of ``run()``, started with the interpreter's free
    lists emptied, so that every tuple it builds is traced."""
    gc.collect()  # a full collection clears the free lists
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_filtered_scan_holds_no_more_than_the_unfiltered_stream():
    """A block stores, per index tuple, one pointer to a list of rows shared
    per n, never one object per index x sign row.  The largest block within
    20,000 emissions has 1040 rows (65 index tuples x 16 sign tuples); a
    fresh skipped row per index x sign row takes the peak to about 1.6x the
    unfiltered stream's, against about 0.95x here."""
    pres = parse_presentation("< a | a^2, a^3, a^5, a^7, a^11, a^13 >")
    target = parse_word(pres.generators, "a^1000")  # no row within 20,000 emissions has vector (1000)
    assert semidecide_trivial(pres, target, 20_000) == (20_000,)
    unfiltered = _peak_from_empty_free_lists(lambda: collections.deque(itertools.islice(_emissions(pres), 20_000), 0))
    scanned = _peak_from_empty_free_lists(lambda: semidecide_trivial(pres, target, 20_000))
    assert scanned <= 1.25 * unfiltered


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
