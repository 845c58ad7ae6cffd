import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st_

from fpw.harness import ExplicitFiniteSet, _linear_witness, quotient_tower_presentation
from fpw.presentations import (
    EMPTY_RELATOR_INDEX,
    CertFactor,
    Exhausted,
    FinitePresentation,
    IntMatrix,
    ProvedTrivial,
    RecursivePresentation,
    TrivialityCertificate,
    abelianization_invariants,
    certificate_word,
    exponent_matrix,
    exponent_vector,
    is_perfect,
    parse_presentation,
    semidecide_trivial,
    smith_normal_form,
    trivial_word_stream,
)
from fpw.words import MAX_WORD_LETTERS, Alphabet, ParseError, parse_word, shortlex_stream

from conftest import reference, snf_error, w

ST = Alphabet.of("s", "t")

# Empirically recorded: every word x^(2k) with |k| <= 3 appears in the
# certificate stream of < x | x^2 > within this many emissions.
Z2_COMPLETENESS_BUDGET = 600


def xw(text):
    return parse_word(Alphabet.of("x"), text)


# ---------------------------------------------------------------- parsing


def test_parse_bs_equation_form():
    p = parse_presentation("< s, t | s^-1 t^2 s = t^3 >")
    assert p.generators.names() == ("s", "t")
    assert p.relators == (w("s^-1 t^2 s t^-3"),)


def test_parse_free_presentation():
    p = parse_presentation("< x | >")
    assert p.generators.names() == ("x",)
    assert p.relators == ()


def test_parse_drops_relators_that_reduce_to_nothing():
    p = parse_presentation("< x | x x^-1 >")
    assert p.relators == ()


def test_parse_multiple_relators_and_spacing():
    p = parse_presentation("<a,b|a^2, b = a>")
    assert p.relators == (
        parse_word(p.generators, "a^2"),
        parse_word(p.generators, "b a^-1"),
    )


_PARSE_ERRORS = [
    ("s, t | s^2 >", "expected '<' at position 0"),
    ("< s, t  s^2 >", "expected '|' at position 13"),
    ("< s, t | s^2", "expected '>' at position 12"),
    ("< s, s | >", "duplicate generator 's' at position 4"),
    ("< s t | >", "invalid generator name: 's t' at position 1"),
    ("< s | q >", "unknown generator 'q' at position 6"),
    ("< s | s = t >", "unknown generator 't' at position 10"),
    # a bad name is reported at its own chunk, as empty and duplicate names are
    ("< a, b, c^ | a >", "invalid generator name: 'c^' at position 7"),
    ("< a,b,c^ | a >", "invalid generator name: 'c^' at position 6"),
    ("< x | x > y", "unexpected text after '>' at position 9"),
    ("< x, | x >", "empty generator name at position 4"),
    ("< x | x = x = x >", "more than one '=' in relator at position 5"),
    # generator faults are reported leftmost first, whatever their kind
    ("< a^, , b | >", "invalid generator name: 'a^' at position 1"),
    ("< a^, a^ | >", "invalid generator name: 'a^' at position 1"),
]


@pytest.mark.parametrize("text, message", _PARSE_ERRORS, ids=[text for text, _ in _PARSE_ERRORS])
def test_parse_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert str(err.value) == message


def test_parse_equation_with_empty_side():
    # "u =" asserts u equals the identity
    p = parse_presentation("< s | s = >")
    assert p.relators == (parse_word(p.generators, "s"),)


def test_relators_stored_reduced():
    p = FinitePresentation(ST, (w("s s^-1 t"),))
    assert p.relators == (w("t"),)


def test_relator_over_wrong_alphabet_rejected():
    with pytest.raises(ValueError):
        FinitePresentation(Alphabet.of("x"), (w("t"),))


def test_format_and_canonical_text():
    p = parse_presentation("< s, t | t^3, s^-1 t^2 s t^-3 >")
    assert p.format() == "< s, t | t^3, s^-1 t^2 s t^-3 >"
    # canonical form sorts relators shortlex
    assert p.canonical_text() == "< s, t | t^3, s^-1 t^2 s t^-3 >"
    q = parse_presentation("< s, t | s^-1 t^2 s t^-3, t^3 >")
    assert q.canonical_text() == p.canonical_text()


def test_recursive_presentation_wraps_finite():
    p = parse_presentation("< x | x^2 >")
    r = RecursivePresentation(p.generators, lambda: iter(p.relators))
    assert list(r.relator_source()) == [xw("x^2")]
    # each call restarts the stream
    assert list(r.relator_source()) == [xw("x^2")]


def _counting(pres):
    """``pres`` with a relator source that records each relator it hands out."""
    pulled = []

    def source():
        for r in pres.relator_source():
            pulled.append(r)
            yield r

    return RecursivePresentation(pres.generators, source), pulled


TOWER_4 = quotient_tower_presentation(ExplicitFiniteSet.of([4]))


# ---------------------------------------------------------------- certificates


def test_certificate_word_single_factor():
    p = parse_presentation("< x | x^2 >")
    cert = TrivialityCertificate((CertFactor(xw(""), 0, 1),))
    assert certificate_word(p, cert) == xw("x x")


def test_certificate_word_two_factors():
    p = parse_presentation("< x | x^2 >")
    cert = TrivialityCertificate(
        (CertFactor(xw(""), 0, 1), CertFactor(xw(""), 0, 1))
    )
    assert certificate_word(p, cert) == xw("x x x x")


def test_certificate_word_conjugated():
    p = parse_presentation("< s, t | s^-1 t^2 s t^-3 >")
    cert = TrivialityCertificate((CertFactor(w("t"), 0, 1),))
    assert certificate_word(p, cert) == w("t s^-1 t^2 s t^-4")


def test_certificate_word_inverse_sign():
    p = parse_presentation("< x | x^2 >")
    cert = TrivialityCertificate((CertFactor(xw(""), 0, -1),))
    assert certificate_word(p, cert) == xw("x^-2")


def test_certificate_empty_relator_factors_are_inert():
    p = parse_presentation("< x | x^2 >")
    cert = TrivialityCertificate(
        (
            CertFactor(xw("x"), EMPTY_RELATOR_INDEX, 1),
            CertFactor(xw(""), 0, 1),
            CertFactor(xw("x^-1"), EMPTY_RELATOR_INDEX, -1),
        )
    )
    assert certificate_word(p, cert) == xw("x^2")


def test_certificate_index_out_of_range():
    p = parse_presentation("< x | x^2 >")
    cert = TrivialityCertificate((CertFactor(xw(""), 3, 1),))
    with pytest.raises(ValueError, match="out of range"):
        certificate_word(p, cert)


def test_certificate_word_over_recursive_presentation():
    # v_1 is relator 20 of the tower presentation for {4}; evaluating it reads 21 relators
    tower, pulled = _counting(TOWER_4)
    v1 = TrivialityCertificate((CertFactor(w(""), 20, 1),))
    assert certificate_word(tower, v1) == _linear_witness(1)
    assert len(pulled) == 21
    # indices count repeats and empty words as the source emits them
    xy = Alphabet.of("x", "y")
    x2, y3, empty = parse_word(xy, "x^2"), parse_word(xy, "y^3"), xy.empty_word()
    source = RecursivePresentation(xy, lambda: iter([x2, x2, empty, y3]))

    def cert(*indices):
        return TrivialityCertificate(tuple(CertFactor(empty, i, 1) for i in indices))

    assert certificate_word(source, cert(1)) == x2
    assert certificate_word(source, cert(2)) == empty
    assert certificate_word(source, cert(3)) == y3
    with pytest.raises(ValueError, match="relator index 4 out of range"):
        certificate_word(source, cert(4))
    # a foreign relator is an error once a certificate reads it, and never read past the top index
    foreign = RecursivePresentation(xy, lambda: iter([x2, empty, w("t")]))
    for top in (2, 5):  # the foreign relator is reported before the index out of range
        with pytest.raises(ValueError, match="relator is not a word over the presentation's generators"):
            certificate_word(foreign, cert(0, top))
    assert certificate_word(foreign, cert(0, 1)) == x2


def test_certificate_rejects_bad_sign_and_index():
    with pytest.raises(ValueError):
        TrivialityCertificate((CertFactor(xw(""), 0, 2),))
    with pytest.raises(ValueError):
        TrivialityCertificate((CertFactor(xw(""), -2, 1),))


# arguments each public entry point refuses, with the message it gives
_X2 = parse_presentation("< x | x^2 >")
_REJECTED = {
    "from-json-not-a-list": (lambda: TrivialityCertificate.from_json(_X2.generators, {"conj": ""}),
                             "certificate must be a JSON list of factors"),
    "from-json-factor-not-an-object": (lambda: TrivialityCertificate.from_json(_X2.generators, [1]),
                                       "certificate factor 0 must be an object"),
    "from-json-ill-typed-field": (
        lambda: TrivialityCertificate.from_json(_X2.generators, [{"conj": "", "rel": 0, "sign": True}]),
        "certificate factor 0: field 'sign' is missing or not a JSON integer"),
    "foreign-conjugator": (lambda: certificate_word(_X2, TrivialityCertificate((CertFactor(w("t"), 0, 1),))),
                           "conjugator is not a word over the presentation's generators"),
    "semidecide-negative-budget": (lambda: semidecide_trivial(_X2, xw("x"), -1), "budget must be >= 0"),
    "semidecide-foreign-word": (lambda: semidecide_trivial(_X2, w("t"), 10),
                                "word is not over the presentation's generators"),
    "from-rows-empty": (lambda: IntMatrix.from_rows([]), "cannot infer column count from an empty row list"),
    "exponent-vector-foreign": (lambda: exponent_vector(_X2.generators, w("t")),
                                "word is not over the given alphabet"),
}


@pytest.mark.parametrize("call, message", _REJECTED.values(), ids=_REJECTED)
def test_rejected_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_certificate_json_roundtrip():
    a = Alphabet.of("x")
    cert = TrivialityCertificate(
        (CertFactor(xw("x"), 0, 1), CertFactor(xw(""), EMPTY_RELATOR_INDEX, -1))
    )
    data = json.loads(json.dumps(cert.to_json()))
    assert TrivialityCertificate.from_json(a, data) == cert


def test_certificate_word_refuses_to_spell_past_the_cap():
    # each factor spells 2 |c| + |r| letters; x^2 conjugated by x^c spells 2c + 2
    p = parse_presentation("< x | x^2 >")
    c = (MAX_WORD_LETTERS - 2) // 2
    at_cap = TrivialityCertificate((CertFactor(xw(f"x^{c}"), 0, 1),))
    assert certificate_word(p, at_cap) == xw("x^2")
    past_cap = TrivialityCertificate((CertFactor(xw(f"x^{c + 1}"), 0, 1),))
    with pytest.raises(ValueError, match=f"certificate spells more than {MAX_WORD_LETTERS} letters"):
        certificate_word(p, past_cap)
    # the running total counts every factor, so small factors add up too
    many = TrivialityCertificate((CertFactor(xw(f"x^{c // 2}"), 0, 1),) * 3)
    with pytest.raises(ValueError, match="certificate spells more than"):
        certificate_word(p, many)


def test_certificate_json_caps_the_conjugator_letters_in_all():
    a = Alphabet.of("x")
    half = {"conj": f"x^{MAX_WORD_LETTERS // 2}", "rel": 0, "sign": 1}
    assert len(TrivialityCertificate.from_json(a, [half, half]).factors) == 2
    with pytest.raises(ValueError, match=f"certificate factor 2: conjugators pass {MAX_WORD_LETTERS} letters"):
        TrivialityCertificate.from_json(a, [half, half, {"conj": "x", "rel": 0, "sign": 1}])


# ---------------------------------------------------------------- the certificate stream


def test_stream_emits_empty_word_first():
    p = parse_presentation("< x | x^2 >")
    word, cert = next(trivial_word_stream(p))
    assert word.is_identity and cert.factors == ()


def test_stream_of_relator_free_presentation_is_just_the_identity():
    p = parse_presentation("< a | >")
    assert [(word, cert.factors) for word, cert in trivial_word_stream(p)] == [
        (parse_word(p.generators, ""), ())
    ]


def test_stream_soundness_on_prefixes():
    for text in ["< x | x^2 >", "< s, t | s^-1 t^2 s t^-3 >"]:
        p = parse_presentation(text)
        for word, cert in itertools.islice(trivial_word_stream(p), 500):
            assert certificate_word(p, cert) == word


def test_stream_contains_relator_and_small_powers():
    p = parse_presentation("< x | x^2 >")
    seen = set()
    for word, _ in itertools.islice(trivial_word_stream(p), Z2_COMPLETENESS_BUDGET):
        seen.add(word)
    for k in range(-3, 4):
        assert xw(f"x^{2 * k}" if k else "") in seen


def test_bs_stream_contains_its_relator():
    p = parse_presentation("< s, t | s^-1 t^2 s t^-3 >")
    relator = p.relators[0]
    assert any(
        word == relator
        for word, _ in itertools.islice(trivial_word_stream(p), 200)
    )


def test_stream_deterministic():
    p = parse_presentation("< s, t | s^-1 t^2 s t^-3 >")
    first = list(itertools.islice(trivial_word_stream(p), 300))
    second = list(itertools.islice(trivial_word_stream(p), 300))
    assert first == second


def _streamed(text):
    """A presentation parsed from ``text``, and the same relators as a stream."""
    finite = parse_presentation(text)
    return RecursivePresentation(finite.generators, lambda: iter(finite.relators)), finite


# the presentations whose emissions test_stream_contract.py pins, then the tower
# for {4}, whose first 3000 emissions read only its first 5 relators
@pytest.mark.parametrize(
    "rec,finite,pulls",
    [
        (*_streamed("< s, t | s^-1 t^2 s t^-3 >"), [0, 1, 1, 1, 1]),
        (*_streamed("< x | x^2 >"), [0, 1, 1, 1, 1]),
        (*_streamed("< a, b | a^3, a b a^-1 b^-1 >"), [0, 1, 2, 2, 2]),
        (TOWER_4, FinitePresentation(ST, tuple(itertools.islice(TOWER_4.relator_source(), 5))), [0, 1, 2, 3, 5]),
    ],
    ids=["bs23", "z2", "z3xz", "tower-4"],
)
def test_stream_over_recursive_presentation(rec, finite, pulls):
    # relators are pulled only as the stream's sizes need them: pulls after 1, 2, 10, 100, 2000 emissions
    counted, pulled = _counting(rec)
    emitted, seen = [], []
    for item in itertools.islice(trivial_word_stream(counted), 3000):
        emitted.append(item)
        if len(emitted) in (1, 2, 10, 100, 2000):
            seen.append(len(pulled))
    assert seen == pulls
    assert emitted == list(itertools.islice(trivial_word_stream(finite), 3000))


# ---------------------------------------------------------------- semidecide_trivial


def test_semidecide_trivial_proves_even_powers():
    p = parse_presentation("< x | x^2 >")
    outcome = semidecide_trivial(p, xw("x x"), 1000)
    assert isinstance(outcome, ProvedTrivial)
    assert certificate_word(p, outcome.certificate) == xw("x x")
    assert outcome.steps <= 1000


def test_semidecide_trivial_exhausts_on_odd_powers():
    p = parse_presentation("< x | x^2 >")
    for budget in [0, 1, 10, 500]:
        outcome = semidecide_trivial(p, xw("x"), budget)
        assert isinstance(outcome, Exhausted) and outcome == Exhausted(budget)


def test_semidecide_trivial_on_bs_relator():
    p = parse_presentation("< s, t | s^-1 t^2 s t^-3 >")
    outcome = semidecide_trivial(p, p.relators[0], 2000)
    assert isinstance(outcome, ProvedTrivial)


def test_semidecide_trivial_reduces_input():
    p = parse_presentation("< x | x^2 >")
    outcome = semidecide_trivial(p, xw("x x^-1"), 10)
    assert isinstance(outcome, ProvedTrivial)
    assert outcome.certificate.factors == ()


# ---------------------------------------------------------------- integer matrices


def test_exponent_matrix_examples():
    p = parse_presentation("< s, t | s^-1 t^2 s t^-3 >")
    assert exponent_matrix(p).entries == ((0, -1),)
    free = parse_presentation("< x | >")
    m = exponent_matrix(free)
    assert (m.rows, m.cols) == (0, 1)
    q = parse_presentation("< x, y | x y, x y^-1 >")
    assert exponent_matrix(q).entries == ((1, 1), (1, -1))


def test_exponent_vector():
    assert exponent_vector(ST, w("s^-1 t^2 s t^-3")) == (0, -1)
    assert exponent_vector(ST, w("")) == (0, 0)


# ---------------------------------------------------------------- smith normal form


def _assert_snf_postconditions(a):
    u, d, v = smith_normal_form(a)
    assert snf_error(a, u, d, v) is None
    return d


def test_snf_oracle_accepts_a_true_snf_and_rejects_each_broken_postcondition():
    m = IntMatrix.from_rows
    a, eye, eye2 = m([[1, 2], [3, 4]]), m([[1, 0], [0, 1]]), m([[2, 0], [0, 2]])
    u, d, v = m([[1, 0], [3, -1]]), m([[1, 0], [0, 2]]), m([[1, -2], [0, 1]])  # worked by hand
    assert snf_error(a, u, d, v) is None
    broken = [
        ((a, m([[1, 1], [3, -1]]), d, v), "U A V != D"),
        ((eye, eye2, eye2, eye), "U or V is not unimodular"),  # 2I A I = 2I is a valid D
        ((eye, eye, eye2, eye2), "U or V is not unimodular"),
        ((m([[1, 1], [0, 1]]), eye, m([[1, 1], [0, 1]]), eye), "D is not diagonal"),
        ((a, m([[1, 0], [-3, 1]]), m([[1, 0], [0, -2]]), v), "negative diagonal entry"),
        ((m([[2, 0], [0, 3]]), eye, m([[2, 0], [0, 3]]), eye), "diagonal breaks the divisibility chain"),
    ]
    for args, reason in broken:
        assert snf_error(*args) == reason


def test_snf_examples():
    d = _assert_snf_postconditions(IntMatrix.from_rows([[0, -1]], cols=2))
    assert d.entries == ((1, 0),)
    d = _assert_snf_postconditions(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert d.diagonal() == (1, 6)
    z = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    u, d, v = smith_normal_form(z)
    assert d == z
    assert u == IntMatrix.from_rows([[1, 0], [0, 1]])
    assert v == IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def _determinant_divisors(a):
    """gcd of all k-by-k minors, the classical invariant-factor oracle."""
    divisors = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(a.rows), k):
            for cols in itertools.combinations(range(a.cols), k):
                g = math.gcd(g, abs(reference.det([[a.entries[r][c] for c in cols] for r in rows])))
        divisors.append(g)
        if g == 0:
            break
    return divisors


def test_snf_agrees_with_minor_gcd_oracle():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        _, d, _ = smith_normal_form(a)
        diag = list(d.diagonal())
        dividers = _determinant_divisors(a)
        # d_k = dk(A)/dk-1(A) while the determinant divisors stay nonzero
        prev = 1
        for k, g in enumerate(dividers):
            if g == 0:
                assert all(x == 0 for x in diag[k:])
                break
            assert diag[k] == g // prev
            prev = g


@settings(max_examples=200, deadline=None)
@given(
    st_.integers(1, 5),
    st_.integers(1, 5),
    st_.randoms(use_true_random=False),
)
def test_snf_postconditions_random(rows, cols, rng):
    a = IntMatrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    )
    _assert_snf_postconditions(a)


def test_snf_postconditions_up_to_10x10_dense_and_sparse():
    rng = random.Random(2024)
    for _ in range(150):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        if rng.random() < 0.3:
            cols = rows
        density = rng.choice([0.15, 0.4, 0.8, 1.0])
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
        )
        _assert_snf_postconditions(a)


def _dense(rng, n):
    return IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def _best_seconds(f, repeat=3):
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - start)
    return best


def test_snf_dense_7x7_regression():
    # the pivot-once elimination ran past 10 s on this matrix
    a = _dense(random.Random(1), 7)
    d = _assert_snf_postconditions(a)
    assert math.prod(d.diagonal()) == abs(reference.det([list(row) for row in a.entries]))
    assert _best_seconds(lambda: smith_normal_form(a)) < 0.05


def test_snf_dense_10x10_in_under_50_ms():
    rng = random.Random(10)
    for _ in range(5):
        a = _dense(rng, 10)
        _assert_snf_postconditions(a)
        assert _best_seconds(lambda: smith_normal_form(a)) < 0.05


@pytest.mark.parametrize("n", [24, 28])
def test_snf_dense_entries_stay_small(n):
    # extended-gcd elimination built U and V entries of 99,226 bits at 24x24
    # and 1,052,567 bits at 28x28 on these matrices
    a = _dense(random.Random(n), n)
    u, d, v = smith_normal_form(a)
    assert snf_error(a, u, d, v) is None
    assert all(abs(x) < 2**4096 for m in (u, v) for row in m.entries for x in row)


def _reference_smith_normal_form(a):
    """The pivot-once elimination fpw first shipped, which ran past 10 s on
    dense 7x7 matrices; kept as the oracle for small ones, where it is fast."""
    rows, cols = a.rows, a.cols
    m = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        for j in range(cols):
            m[dst][j] += q * m[src][j]
        for j in range(rows):
            u[dst][j] += q * u[src][j]

    def add_col(src, dst, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    k = 0
    while k < rows and k < cols:
        # find a pivot of smallest absolute value in the trailing submatrix
        pivot = None
        for i in range(k, rows):
            for j in range(k, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        # clear row and column k; restart if a remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, rows):
                if m[i][k] != 0:
                    q = m[i][k] // m[k][k]
                    add_row(k, i, -q)
                    if m[i][k] != 0:
                        swap_rows(k, i)
                        dirty = True
            for j in range(k + 1, cols):
                if m[k][j] != 0:
                    q = m[k][j] // m[k][k]
                    add_col(k, j, -q)
                    if m[k][j] != 0:
                        swap_cols(k, j)
                        dirty = True
        # enforce divisibility: the pivot must divide every trailing entry
        fixed = False
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if m[i][j] % m[k][k] != 0:
                    add_row(i, k, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if m[k][k] < 0:
            negate_row(k)
        k += 1

    U = IntMatrix.from_rows(u, rows) if rows else IntMatrix(0, 0, ())
    V = IntMatrix.from_rows(v, cols) if cols else IntMatrix(0, 0, ())
    D = IntMatrix.from_rows(m, cols) if rows else IntMatrix(0, cols, ())
    return U, D, V


def test_snf_diagonal_matches_the_pivot_once_reference():
    # D is unique, so both eliminations must produce it exactly
    rng = random.Random(99)
    for _ in range(400):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        density = rng.choice([0.3, 0.7, 1.0])
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
        )
        assert smith_normal_form(a)[1] == _reference_smith_normal_form(a)[1]


# ---------------------------------------------------------------- abelianization


def test_abelianization_examples():
    assert abelianization_invariants(parse_presentation("< s, t | s^-1 t^2 s t^-3 >")) == (1, ())
    assert abelianization_invariants(parse_presentation("< x, y | x y, x y^-1 >")) == (0, (2,))
    assert abelianization_invariants(parse_presentation("< x | x >")) == (0, ())
    assert abelianization_invariants(parse_presentation("< x | x^2 >")) == (0, (2,))
    assert abelianization_invariants(parse_presentation("< a, b | >")) == (2, ())


def test_is_perfect_examples():
    assert is_perfect(parse_presentation("< x | x >"))
    assert not is_perfect(parse_presentation("< x | x^2 >"))
    assert not is_perfect(parse_presentation("< s, t | s^-1 t^2 s t^-3 >"))


def _abelian_group_order(a):
    """Order of the abelian quotient presented by exponent matrix a (0 = infinite).

    Oracle route: the quotient Z^g / rowspan is finite iff the row space has
    full column rank; its order is then the gcd of the maximal minors (the
    last determinant divisor).
    """
    g = a.cols
    divisors = _determinant_divisors(a)
    if len(divisors) < g or divisors[g - 1] == 0:
        return 0
    return divisors[g - 1]


def test_is_perfect_agrees_with_quotient_order_oracle():
    # every presentation with <= 2 generators, <= 2 relators, relator length <= 4
    # (perfect <=> the abelian quotient is the trivial group, order 1)
    single = Alphabet.of("x")
    double = Alphabet.of("x", "y")
    for gens in [single, double]:
        pool = [
            word
            for word in itertools.takewhile(
                lambda v: len(v) <= 4, shortlex_stream(gens)
            )
        ]
        rng = random.Random(11)
        combos = [()]
        combos += [(r,) for r in pool]
        combos += [tuple(rng.sample(pool, 2)) for _ in range(200)]
        for rels in combos:
            p = FinitePresentation(gens, rels)
            order = _abelian_group_order(exponent_matrix(p))
            assert is_perfect(p) == (order == 1)
