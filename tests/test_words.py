import itertools

import pytest
from hypothesis import given, strategies as st_

from fpw.words import (
    MAX_WORD_LETTERS,
    Alphabet,
    Generator,
    GeneratorMap,
    Letter,
    ShortlexWords,
    Word,
    WordParseError,
    commutator,
    concat,
    format_word,
    free_reduce,
    invert,
    parse_word,
    shortlex_stream,
    substitute,
)

from conftest import w

ST = Alphabet.of("s", "t")
T_ONLY = Alphabet.of("t")


# ---------------------------------------------------------------- generators and alphabets


def test_generator_name_validation():
    Generator("s")
    Generator("gen_17")
    for bad in ["", "a b", "a^2", "x,y", "a|b", "<", ">", "a=b", "tab\tname"]:
        with pytest.raises(ValueError):
            Generator(bad)


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet.of("s", "s")
    with pytest.raises(ValueError):
        Alphabet.of()


def test_letter_order_is_declaration_order_with_inverses_interleaved():
    letters = ST.ordered_letters
    names = [(let.gen.name, let.sign) for let in letters]
    assert names == [("s", 1), ("s", -1), ("t", 1), ("t", -1)]
    assert [ST.letter_rank(let) for let in letters] == [0, 1, 2, 3]


# ---------------------------------------------------------------- reduction


def test_free_reduce_examples():
    assert free_reduce(w("s s^-1")).is_identity
    assert free_reduce(w("t s s^-1 t")) == w("t t")
    assert free_reduce(w("s^-1 t s")) == w("s^-1 t s")


def test_construction_reduces():
    s, t = ST.gen("s"), ST.gen("t")
    raw = (Letter(t, 1), Letter(s, 1), Letter(s, -1), Letter(t, 1))
    assert Word(ST, raw).letters == (Letter(t, 1), Letter(t, 1))


def test_word_rejects_foreign_letters_and_bad_signs():
    u = ST.gen("s")
    with pytest.raises(ValueError):
        Word(T_ONLY, (Letter(u, 1),))
    with pytest.raises(ValueError):
        Word(ST, (Letter(u, 2),))


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


def test_commutator_examples():
    assert commutator(w("s^-1 t s"), w("t")) == w("s^-1 t s t s^-1 t^-1 s t^-1")
    assert commutator(w("t"), w("t")).is_identity
    assert commutator(w("s"), w("t")) == w("s t s^-1 t^-1")


def test_word_operators():
    assert (w("s t") * w("t^-1")) == w("s")
    assert ~w("s t") == w("t^-1 s^-1")
    assert w("t") ** 3 == w("t^3")
    assert w("t") ** -2 == w("t^-2")
    assert (w("s t") ** 0).is_identity


# ---------------------------------------------------------------- parsing and formatting


def test_parse_word_examples():
    assert w("t^3").letters == tuple([Letter(ST.gen("t"), 1)] * 3)
    assert w("  s   t^-2 ") == w("s t^-1 t^-1")
    assert w("").is_identity


def test_parse_word_errors_carry_positions():
    with pytest.raises(WordParseError) as err:
        parse_word(ST, "t s^0")
    assert err.value.position == 2
    with pytest.raises(WordParseError):
        parse_word(ST, "t^x")
    with pytest.raises(WordParseError):
        parse_word(ST, "q")


def test_parse_word_caps_the_letter_count():
    assert len(parse_word(ST, f"t^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
    with pytest.raises(WordParseError) as err:
        parse_word(ST, f"s t^{MAX_WORD_LETTERS}")
    assert err.value.position == 2
    # the cap counts letters before reduction, and refuses before allocating
    with pytest.raises(WordParseError):
        parse_word(ST, f"t^{MAX_WORD_LETTERS} t^-1 t")
    with pytest.raises(WordParseError):
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


def test_generator_map_format_roundtrip():
    f = GeneratorMap.parse(ST, ST, "s=s,t=t^2")
    assert f.format() == "s=s,t=t^2"
    assert GeneratorMap.parse(ST, ST, f.format()) == f


def test_generator_map_composition():
    f = GeneratorMap.parse(ST, ST, "s=s,t=t^2")
    ff = f.then(f)
    assert substitute(w("t"), ff) == w("t^4")


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
        assert word.letters not in seen
        seen.add(word.letters)
        if prev_key is not None:
            assert key > prev_key
        prev_key = key


def _walk_index(words, i):
    """Position lookup by walking the levels from length 0 (the reference for
    ShortlexWords.__getitem__)."""
    for n in itertools.count():
        level = words.of_length(n)
        if i < len(level):
            return level[i]
        i -= len(level)


def test_shortlex_index_matches_the_level_walk():
    # one instance read in order, one in a scrambled order that builds levels
    # on demand and revisits shorter ones
    reference, ordered, scrambled = ShortlexWords(ST), ShortlexWords(ST), ShortlexWords(ST)
    expected = [_walk_index(reference, i) for i in range(5000)]
    assert [ordered[i] for i in range(5000)] == expected
    for i in sorted(range(5000), key=lambda i: (i * 7919) % 5000):
        assert scrambled[i] == expected[i]


@pytest.mark.parametrize("names,max_len", [(("t",), 4), (("s", "t"), 3)])
def test_shortlex_completeness_formula(names, max_len):
    # every reduced word of length <= L arrives within 1 + sum (2g)(2g-1)^(k-1)
    a = Alphabet.of(*names)
    g = len(names)
    bound = 1 + sum((2 * g) * (2 * g - 1) ** (k - 1) for k in range(1, max_len + 1))
    prefix = list(itertools.islice(shortlex_stream(a), bound))
    assert len({word.letters for word in prefix}) == bound
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


def _raw(pairs):
    return tuple(Letter(ST.gen(name), sign) for name, sign in pairs)


def _naive_reduce(letters):
    """Reference reducer: rescan from the top until no adjacent inverses."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == out[i + 1].inverse():
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def _ref_invert(letters):
    return tuple(let.inverse() for let in reversed(letters))


def _ref_substitute(letters, images):
    """Reference substitution: ``images`` maps each generator to image letters."""
    out = []
    for let in letters:
        img = images[let.gen]
        out.extend(img if let.sign == 1 else _ref_invert(img))
    return _naive_reduce(out)


def _ref_shortlex_key(alphabet, letters):
    return (len(letters), tuple(alphabet.ordered_letters.index(let) for let in letters))


def _ref_format(letters):
    parts = []
    for let, run in itertools.groupby(letters):
        exp = len(list(run)) * let.sign
        parts.append(let.gen.name if exp == 1 else f"{let.gen.name}^{exp}")
    return " ".join(parts)


ABC = Alphabet.of("a", "b", "c")
letters_abc = st_.lists(
    st_.tuples(st_.sampled_from(["a", "b", "c"]), st_.sampled_from([1, -1])), max_size=30
)


def _raw_abc(pairs):
    return tuple(Letter(ABC.gen(name), sign) for name, sign in pairs)


@given(letters_abc)
def test_kernel_reduce_matches_reference(pairs):
    raw = _raw_abc(pairs)
    word = Word(ABC, raw)
    assert word.letters == _naive_reduce(raw)
    assert len(word) == len(word.letters)
    assert word.is_identity == (not word.letters)


@given(letters_abc, letters_abc)
def test_kernel_concat_and_invert_match_reference(p1, p2):
    u, v = Word(ABC, _raw_abc(p1)), Word(ABC, _raw_abc(p2))
    assert concat(u, v).letters == _naive_reduce(u.letters + v.letters)
    assert invert(u).letters == _ref_invert(u.letters)
    assert (u ** 3).letters == _naive_reduce(u.letters * 3)
    assert (u ** -2).letters == _naive_reduce(_ref_invert(u.letters) * 2)


@given(letters_abc, letters_abc, letters_abc, letters_st)
def test_kernel_substitute_matches_reference(pa, pb, pc, pairs):
    # a map from s,t into a,b,c and one from a,b,c onto itself
    down = GeneratorMap(ST, ABC, (Word(ABC, _raw_abc(pa)), Word(ABC, _raw_abc(pb))))
    word = Word(ST, _raw(pairs))
    images = {g: img.letters for g, img in zip(ST.generators, down.images)}
    assert substitute(word, down).letters == _ref_substitute(word.letters, images)
    self_map = GeneratorMap(ABC, ABC, tuple(Word(ABC, _raw_abc(p)) for p in (pa, pb, pc)))
    u = substitute(word, down)
    images = {g: img.letters for g, img in zip(ABC.generators, self_map.images)}
    assert substitute(u, self_map).letters == _ref_substitute(u.letters, images)


@given(letters_abc)
def test_kernel_shortlex_key_and_format_match_reference(pairs):
    word = Word(ABC, _raw_abc(pairs))
    assert word.shortlex_key() == _ref_shortlex_key(ABC, word.letters)
    assert format_word(word) == _ref_format(word.letters)
    assert parse_word(ABC, format_word(word)) == word


def test_kernel_shortlex_stream_matches_sorted_reference():
    # every reduced word of length <= 3, sorted by the reference key
    words = [
        letters
        for n in range(4)
        for letters in itertools.product(ABC.ordered_letters, repeat=n)
        if _naive_reduce(letters) == letters
    ]
    words.sort(key=lambda letters: _ref_shortlex_key(ABC, letters))
    got = [word.letters for word in itertools.islice(shortlex_stream(ABC), len(words))]
    assert got == words


@given(letters_st)
def test_reduction_matches_naive_oracle(pairs):
    raw = _raw(pairs)
    assert Word(ST, raw).letters == _naive_reduce(raw)


@given(letters_st)
def test_free_reduce_idempotent(pairs):
    word = Word(ST, _raw(pairs))
    assert free_reduce(free_reduce(word)) == free_reduce(word)


@given(letters_st)
def test_invert_is_involution_and_cancels(pairs):
    word = Word(ST, _raw(pairs))
    assert invert(invert(word)) == word
    assert concat(word, invert(word)).is_identity


@given(letters_st, letters_st, letters_st)
def test_concat_associative(p1, p2, p3):
    u, v, x = Word(ST, _raw(p1)), Word(ST, _raw(p2)), Word(ST, _raw(p3))
    assert concat(concat(u, v), x) == concat(u, concat(v, x))


image_words = st_.sampled_from(["", "t", "s^-1 t s t^-1", "t^2", "s"])


@given(letters_st, letters_st, image_words, image_words)
def test_substitute_distributes_over_concat(p1, p2, s_img, t_img):
    m = GeneratorMap(ST, ST, (w(s_img), w(t_img)))
    u, v = Word(ST, _raw(p1)), Word(ST, _raw(p2))
    assert substitute(concat(u, v), m) == concat(substitute(u, m), substitute(v, m))
