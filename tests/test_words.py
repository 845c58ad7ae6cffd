import itertools

import pytest
from hypothesis import example, given, strategies as st_

from fpw.bs import BS23, apply_f, bs_presentation, w_family
from fpw.harness import _linear_witness
from fpw.presentations import (
    CertFactor,
    FinitePresentation,
    TrivialityCertificate,
    certificate_word,
    trivial_word_stream,
)
from fpw.tietze import AddGenerator, RemoveGenerator, apply_move
from fpw.words import (
    MAX_WORD_LETTERS,
    Alphabet,
    GeneratorMap,
    ParseError,
    Word,
    concat,
    format_word,
    invert,
    parse_word,
    shortlex_stream,
    substitute,
    _join,
    _reduce,
    _shortlex_levels,
)

from conftest import ShortlexWords, w

ST = Alphabet.of("s", "t")
T_ONLY = Alphabet.of("t")


# ---------------------------------------------------------------- generators and alphabets


def test_generator_name_validation():
    Alphabet.of("s")
    Alphabet.of("gen_17")
    for bad in ["", "a b", "a^2", "x,y", "a|b", "<", ">", "a=b", "tab\tname"]:
        with pytest.raises(ValueError):
            Alphabet.of(bad)


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet.of("s", "s")
    with pytest.raises(ValueError):
        Alphabet.of()


def test_letter_order_is_declaration_order_with_inverses_interleaved():
    level = list(itertools.islice(shortlex_stream(ST), 1, 5))
    assert [_pairs(word) for word in level] == [(("s", 1),), (("s", -1),), (("t", 1),), (("t", -1),)]
    assert [word.shortlex_key() for word in level] == [(1, (0,)), (1, (1,)), (1, (2,)), (1, (3,))]


# ---------------------------------------------------------------- reduction


def test_free_reduce_examples():
    # every word is stored freely reduced
    assert w("s s^-1").is_identity
    assert w("t s s^-1 t") == w("t t")
    assert w("s^-1 t s").codes == (-1, 2, 1)


def test_construction_reduces():
    raw = [("t", 1), ("s", 1), ("s", -1), ("t", 1)]
    assert _pairs(_word_of(ST, raw)) == (("t", 1), ("t", 1))


def test_word_rejects_foreign_letters_and_bad_signs():
    # letters enter only through the validating readers: Word has no public constructor
    with pytest.raises(TypeError):
        Word(ST, (1,))
    with pytest.raises(ParseError, match="unknown generator"):
        parse_word(T_ONLY, "s")
    with pytest.raises(ParseError, match="zero exponent"):
        parse_word(ST, "s^0")
    with pytest.raises(ValueError, match="not over the codomain"):
        GeneratorMap(T_ONLY, T_ONLY, (w("t"),))


def test_invert_examples():
    assert invert(w("s t")) == w("t^-1 s^-1")
    assert invert(w("")) == w("")
    assert invert(w("t^-1")) == w("t")


def test_concat_examples():
    assert concat(w("s"), w("s^-1")).is_identity
    assert concat(w("s t"), w("t^-1 s")) == w("s s")
    assert concat(w(""), w("t")) == w("t")


def test_concat_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        concat(w("t"), parse_word(T_ONLY, "t"))


def test_word_operators():
    assert (w("s t") * w("t^-1")) == w("s")
    assert ~w("s t") == w("t^-1 s^-1")


def test_word_is_immutable_and_only_equals_words():
    word = w("s t^2")
    with pytest.raises(AttributeError, match="Word is immutable"):
        word.codes = ()
    assert word != "s t^2" and not (word == "s t^2")
    assert repr(word) == "Word('s t^2')"


# ---------------------------------------------------------------- parsing and formatting


def test_parse_word_examples():
    assert w("t^3").codes == (2, 2, 2)
    assert w("  s   t^-2 ") == w("s t^-1 t^-1")
    assert w("").is_identity


def test_parse_word_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_word(ST, "t s^0")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_word(ST, "t^x")
    with pytest.raises(ParseError):
        parse_word(ST, "q")


def test_parse_word_caps_the_letter_count():
    assert len(parse_word(ST, f"t^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
    with pytest.raises(ParseError) as err:
        parse_word(ST, f"s t^{MAX_WORD_LETTERS}")
    assert err.value.position == 2
    # the cap counts letters before reduction, and refuses before allocating
    with pytest.raises(ParseError):
        parse_word(ST, f"t^{MAX_WORD_LETTERS} t^-1 t")
    with pytest.raises(ParseError):
        parse_word(ST, "t^100000000000000000000")


def test_format_word_groups_runs():
    assert format_word(w("s^-1 s^-1 t s s")) == "s^-2 t s^2"
    assert format_word(w("")) == ""
    assert format_word(w("t")) == "t"


def test_parse_format_roundtrip_on_samples():
    for text in ["", "t", "s^-2 t s^2 t^-1", "s t s^-1 t^-1"]:
        assert format_word(w(text)) == text


# ---------------------------------------------------------------- substitution


def test_substitute_examples():
    f = GeneratorMap.parse(ST, ST, "s=s,t=t^2")
    assert substitute(w("t"), f) == w("t t")
    assert substitute(w("t^-1"), f) == w("t^-1 t^-1")
    assert substitute(w("s^-1 t s"), GeneratorMap.identity(ST)) == w("s^-1 t s")


def test_generator_map_parse_requires_every_generator():
    with pytest.raises(ValueError):
        GeneratorMap.parse(ST, ST, "s=s")
    with pytest.raises(ValueError):
        GeneratorMap.parse(ST, ST, "s=s,t=t,s=t")
    with pytest.raises(ValueError):
        GeneratorMap.parse(ST, ST, "s=s,q=t")


def test_generator_map_image_takes_a_name():
    f = GeneratorMap.parse(ST, ST, "s=s,t=t^2")
    assert (f.image("s"), f.image("t")) == (w("s"), w("t^2"))
    with pytest.raises(ValueError, match="^unmapped generator: 'q'$"):
        f.image("q")
    with pytest.raises(ValueError, match="^unknown generator: 'q'$"):
        ST.code("q")


def test_generator_map_format_roundtrip():
    f = GeneratorMap.parse(ST, ST, "s=s,t=t^2")
    assert f.format() == "s=s,t=t^2"
    assert GeneratorMap.parse(ST, ST, f.format()) == f


def test_generator_map_composition():
    f = GeneratorMap.parse(ST, ST, "s=s,t=t^2")
    ff = f.then(f)
    assert substitute(w("t"), ff) == w("t^4")


def test_substitute_caps_the_spelled_letters():
    f = GeneratorMap.parse(ST, ST, "s=t^-1,t=t^1024")
    assert len(substitute(w("t^1024"), f)) == MAX_WORD_LETTERS
    # the cap counts letters before reduction: this spells 2^20 + 1 and reduces to 2^20 - 1
    with pytest.raises(ValueError, match=f"substitution spells more than {MAX_WORD_LETTERS} letters"):
        substitute(w("t^1024 s"), f)
    with pytest.raises(ValueError, match="substitution spells more than"):
        f.then(GeneratorMap.parse(ST, ST, "s=s,t=t^2048"))


def test_substitute_rejects_wrong_domain():
    f = GeneratorMap.parse(ST, ST, "s=s,t=t^2")
    with pytest.raises(ValueError):
        substitute(parse_word(T_ONLY, "t"), f)


# ---------------------------------------------------------------- shortlex enumeration


def test_shortlex_first_five_over_single_generator():
    got = list(itertools.islice(shortlex_stream(T_ONLY), 5))
    assert got == [
        parse_word(T_ONLY, x) for x in ["", "t", "t^-1", "t t", "t^-1 t^-1"]
    ]


def test_shortlex_starts_with_empty_word():
    first = next(shortlex_stream(ST))
    assert first.is_identity


def test_shortlex_is_nondecreasing_and_duplicate_free():
    seen = set()
    prev_key = None
    for word in itertools.islice(shortlex_stream(ST), 200):
        key = word.shortlex_key()
        assert word.codes not in seen
        seen.add(word.codes)
        if prev_key is not None:
            assert key > prev_key
        prev_key = key


@pytest.mark.parametrize("alphabet", [Alphabet.of("x"), ST, Alphabet.of("a", "b", "c")], ids=len)
def test_shortlex_enumerator_matches_the_table(alphabet):
    # the stream and the levels against the random-access table fpw once kept
    table = ShortlexWords(alphabet)
    expected = [table[i] for i in range(5000)]
    assert list(itertools.islice(shortlex_stream(alphabet), 5000)) == expected
    assert list(itertools.islice(_shortlex_levels(alphabet), 7)) == [table.of_length(n) for n in range(7)]


@pytest.mark.parametrize("names,max_len", [(("t",), 4), (("s", "t"), 3)])
def test_shortlex_completeness_formula(names, max_len):
    # every reduced word of length <= L arrives within 1 + sum (2g)(2g-1)^(k-1)
    a = Alphabet.of(*names)
    g = len(names)
    bound = 1 + sum((2 * g) * (2 * g - 1) ** (k - 1) for k in range(1, max_len + 1))
    prefix = list(itertools.islice(shortlex_stream(a), bound))
    assert len({word.codes for word in prefix}) == bound
    assert all(len(word) <= max_len for word in prefix)
    # and the count of each exact length matches the closed form
    by_len = {}
    for word in prefix:
        by_len[len(word)] = by_len.get(len(word), 0) + 1
    assert by_len[0] == 1
    for k in range(1, max_len + 1):
        assert by_len[k] == (2 * g) * (2 * g - 1) ** (k - 1)


# ---------------------------------------------------------------- property tests

letters_st = st_.lists(
    st_.tuples(st_.sampled_from(["s", "t"]), st_.sampled_from([1, -1])), max_size=30
)


def _word_of(alphabet, pairs):
    """Adaptor in: the word spelled by (name, sign) pairs, through ``parse_word``."""
    return parse_word(alphabet, " ".join(f"{name}^{sign}" for name, sign in pairs))


def _pairs(word):
    """Adaptor out: a word's codes read back as (name, sign) pairs."""
    names = word.alphabet.names()
    return tuple((names[abs(c) - 1], 1 if c > 0 else -1) for c in word.codes)


def _letter_order(alphabet):
    """Every letter as a pair: declaration order, each generator followed by its inverse."""
    return [(name, sign) for name in alphabet.names() for sign in (1, -1)]


def _inverse_letter(let):
    name, sign = let
    return name, -sign


def _naive_reduce(letters):
    """Reference reducer: rescan from the top until no adjacent inverses."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == _inverse_letter(out[i + 1]):
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def _ref_invert(letters):
    return tuple(_inverse_letter(let) for let in reversed(letters))


def _ref_substitute(letters, images):
    """Reference substitution: ``images`` maps each generator name to image letters."""
    out = []
    for name, sign in letters:
        img = images[name]
        out.extend(img if sign == 1 else _ref_invert(img))
    return _naive_reduce(out)


def _ref_shortlex_key(alphabet, letters):
    return (len(letters), tuple(_letter_order(alphabet).index(let) for let in letters))


def _ref_format(letters):
    parts = []
    for (name, sign), run in itertools.groupby(letters):
        exp = len(list(run)) * sign
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


ABC = Alphabet.of("a", "b", "c")
letters_abc = st_.lists(
    st_.tuples(st_.sampled_from(["a", "b", "c"]), st_.sampled_from([1, -1])), max_size=30
)


@given(letters_abc)
def test_kernel_reduce_matches_reference(pairs):
    word = _word_of(ABC, pairs)
    assert _pairs(word) == _naive_reduce(pairs)
    assert len(word) == len(_pairs(word))
    assert word.is_identity == (not _pairs(word))


@given(letters_abc, letters_abc)
def test_kernel_concat_and_invert_match_reference(p1, p2):
    u, v = _word_of(ABC, p1), _word_of(ABC, p2)
    assert _pairs(concat(u, v)) == _naive_reduce(_pairs(u) + _pairs(v))
    assert _pairs(invert(u)) == _ref_invert(_pairs(u))


@given(letters_abc, letters_abc, letters_abc, letters_st)
def test_kernel_substitute_matches_reference(pa, pb, pc, pairs):
    # a map from s,t into a,b,c and one from a,b,c onto itself
    down = GeneratorMap(ST, ABC, (_word_of(ABC, pa), _word_of(ABC, pb)))
    word = _word_of(ST, pairs)
    images = {name: _pairs(img) for name, img in zip(ST.names(), down.images)}
    assert _pairs(substitute(word, down)) == _ref_substitute(_pairs(word), images)
    self_map = GeneratorMap(ABC, ABC, tuple(_word_of(ABC, p) for p in (pa, pb, pc)))
    u = substitute(word, down)
    images = {name: _pairs(img) for name, img in zip(ABC.names(), self_map.images)}
    assert _pairs(substitute(u, self_map)) == _ref_substitute(_pairs(u), images)


@given(letters_abc)
def test_kernel_shortlex_key_and_format_match_reference(pairs):
    word = _word_of(ABC, pairs)
    assert word.shortlex_key() == _ref_shortlex_key(ABC, _pairs(word))
    assert format_word(word) == _ref_format(_pairs(word))
    assert parse_word(ABC, format_word(word)) == word


def test_kernel_shortlex_stream_matches_sorted_reference():
    # every reduced word of length <= 3, sorted by the reference key
    words = [
        letters
        for n in range(4)
        for letters in itertools.product(_letter_order(ABC), repeat=n)
        if _naive_reduce(letters) == letters
    ]
    words.sort(key=lambda letters: _ref_shortlex_key(ABC, letters))
    got = [_pairs(word) for word in itertools.islice(shortlex_stream(ABC), len(words))]
    assert got == words


@given(letters_st)
def test_reduction_matches_naive_oracle(pairs):
    assert _pairs(_word_of(ST, pairs)) == _naive_reduce(pairs)


@given(letters_st)
def test_free_reduce_idempotent(pairs):
    # reducing the letters of a stored (reduced) word gives the same word
    word = _word_of(ST, pairs)
    assert _word_of(ST, _pairs(word)) == word
    assert _naive_reduce(_pairs(word)) == _pairs(word)


@given(letters_st)
def test_invert_is_involution_and_cancels(pairs):
    word = _word_of(ST, pairs)
    assert invert(invert(word)) == word
    assert concat(word, invert(word)).is_identity


@given(letters_st, letters_st, letters_st)
def test_concat_associative(p1, p2, p3):
    u, v, x = _word_of(ST, p1), _word_of(ST, p2), _word_of(ST, p3)
    assert concat(concat(u, v), x) == concat(u, concat(v, x))


image_words = st_.sampled_from(["", "t", "s^-1 t s t^-1", "t^2", "s"])


@given(letters_st, letters_st, image_words, image_words)
def test_substitute_distributes_over_concat(p1, p2, s_img, t_img):
    m = GeneratorMap(ST, ST, (w(s_img), w(t_img)))
    u, v = _word_of(ST, p1), _word_of(ST, p2)
    assert substitute(concat(u, v), m) == concat(substitute(u, m), substitute(v, m))


reduced_pieces = st_.lists(st_.lists(st_.sampled_from([1, -1, 2, -2]), max_size=8).map(_reduce), max_size=6)


@given(reduced_pieces)
@example([(1, 2), (-2, -1)])  # the second piece cancels the first completely
@example([(1,), (-1, 2, 2, 1)])  # a piece longer than the accumulator, which it consumes
@example([(2, 1), (-1, -2, -2)])  # ... and goes on past it
@example([(), (1, 2), (), (-2,), ()])  # empty pieces
def test_join_at_junctions_matches_reduce(pieces):
    joined = ()
    for piece in pieces:
        joined = _join(joined, piece)
    assert joined == _reduce(itertools.chain.from_iterable(pieces))


def _assert_stored_reduced(*words):
    for word in words:
        assert type(word.codes) is tuple
        assert _reduce(word.codes) == word.codes, format_word(word)


BS = bs_presentation(BS23)


@given(
    letters_st, letters_st, st_.integers(0, 400), st_.integers(0, 3),
    st_.integers(0, 8), st_.integers(0, 6), st_.integers(0, 300),
)
@example([("s", 1), ("t", 1)], [("t", -1), ("s", -1)], 0, 0, 0, 0, 0)  # cancels at every junction
def test_every_word_operation_stores_a_reduced_tuple(p1, p2, index, iterate, j, fam, emission):
    """``_word`` trusts its codes, so each operation must hand it a freely reduced tuple."""
    u, v = _word_of(ST, p1), _word_of(ST, p2)
    m = GeneratorMap(ST, ST, (v, u))
    _assert_stored_reduced(u, v, u * v, ~u, substitute(u, m), m.then(m).images[0])
    _assert_stored_reduced(next(itertools.islice(shortlex_stream(ST), index, None)), *next(itertools.islice(_shortlex_levels(ST), iterate, None)))
    _assert_stored_reduced(apply_f(u, iterate))
    _assert_stored_reduced(_linear_witness(j), w_family(fam))
    added = apply_move(FinitePresentation(ST, (u * v, u)), AddGenerator("x", v))
    removed = apply_move(added, RemoveGenerator("x", len(added.relators) - 1))
    _assert_stored_reduced(*added.relators, *removed.relators)
    cert = TrivialityCertificate((CertFactor(u, 0, 1), CertFactor(v, 0, -1), CertFactor(u, 0, -1)))
    _assert_stored_reduced(certificate_word(BS, cert))
    for text in (" ".join(f"{name}^{sign}" for name, sign in p1), "s s^-1 t"):
        (factor,) = TrivialityCertificate.from_json(ST, [{"conj": text, "rel": 0, "sign": 1}]).factors
        _assert_stored_reduced(factor.conjugator)
    word, cert = next(itertools.islice(trivial_word_stream(BS), emission, None))
    _assert_stored_reduced(word, *(f.conjugator for f in cert.factors))
