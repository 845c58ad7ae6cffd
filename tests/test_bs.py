import itertools
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st_

from fpw.bs import (
    ST,
    BSParams,
    BS23,
    SyllableWord,
    _pinch,
    apply_f,
    bs_equal,
    bs_is_trivial,
    bs_presentation,
    britton_reduce_counted,
    doubling_map,
    f_preimage_witnesses,
    kernel_stream,
    in_kernel,
    w_family,
)
from fpw.harness import tower_oracle
from fpw.words import MAX_WORD_LETTERS, Alphabet, parse_word, shortlex_stream, shortlex_word, substitute

from conftest import w

W2_TEXT = "s^-2 t s^2 t^-1 s^-1 t s^-1 t^-1 s^2 t s^-1 t^-1 s"


# ---------------------------------------------------------------- syllables


def test_syllable_reading_examples():
    # words without a pinch come back as their own syllables
    assert britton_reduce_counted(BS23, w("t^3 s t^-1 s^2")) == (SyllableWord((3, -1, 0, 0), (1, 1, 1)), 0)
    assert britton_reduce_counted(BS23, w("")) == (SyllableWord((0,), ()), 0)
    assert britton_reduce_counted(BS23, w("t^-2")) == (SyllableWord((-2,), ()), 0)
    assert britton_reduce_counted(BS23, w("s")) == (SyllableWord((0, 0), (1,)), 0)


def test_syllable_format():
    assert SyllableWord((2, 1), (-1,)).format() == "t^2 s^-1 t^1"
    assert SyllableWord((0,), ()).format() == "t^0"


def test_syllable_roundtrip_examples():
    # spelling a word back out: f^0 is the identity
    for text in ["", "t^5", "s t s^-1", "s^-1 t^2 s t^-3", W2_TEXT]:
        word = w(text)
        assert apply_f(word, 0) == word


@settings(max_examples=200, deadline=None)
@given(st_.lists(st_.sampled_from(["s", "s^-1", "t", "t^-1"]), max_size=25))
def test_syllable_roundtrip_random(parts):
    word = w(" ".join(parts))
    assert apply_f(word, 0) == word


def test_syllables_reject_foreign_alphabet():
    word = parse_word(Alphabet.of("x"), "x")
    for call in (lambda: in_kernel(word, 2), lambda: apply_f(word, 2)):
        with pytest.raises(ValueError, match=r"not over the alphabet \{s, t\}"):
            call()
    # a negative iterate is reported before the alphabet
    for call in (lambda: in_kernel(word, -1), lambda: apply_f(word, -1)):
        with pytest.raises(ValueError, match="iterate must be >= 0"):
            call()


# ---------------------------------------------------------------- Britton reduction


def test_britton_reduce_kills_the_relator():
    assert britton_reduce_counted(BS23, w("s^-1 t^2 s t^-3")) == (((0,), ()), 1)


def test_britton_reduce_leaves_reduced_words_alone():
    reduced, pinches = britton_reduce_counted(BS23, w("s^-1 t s"))
    assert reduced == SyllableWord((0, 1, 0), (-1, 1))
    assert pinches == 0


def test_britton_reduce_single_pinch():
    reduced, pinches = britton_reduce_counted(BS23, w("s t^3 s^-1"))
    assert reduced == SyllableWord((2,), ())
    assert pinches == 1


def test_britton_reduce_zero_power_pinch():
    # opposite-sign s letters with nothing between them count as a pinch
    reduced, pinches = britton_reduce_counted(BS23, w("s t t^-1 s^-1 t"))
    assert reduced == SyllableWord((1,), ())


def test_britton_reduce_nested():
    word = w("s^2 t^9 s^-2")
    reduced, pinches = britton_reduce_counted(BS23, word)
    assert reduced == SyllableWord((4,), ())
    assert pinches == 2


def test_britton_reduce_two_disjoint_sites():
    reduced, pinches = britton_reduce_counted(BS23, w("s^-1 t^2 s t s^-1 t^2 s"))
    assert reduced == SyllableWord((7,), ())
    assert pinches == 2


def test_pinch_count_accounts_for_all_lost_s_letters():
    rng = random.Random(23)
    letters = ["s", "s^-1", "t", "t^-1"]
    for _ in range(150):
        word = w(" ".join(rng.choice(letters) for _ in range(rng.randint(0, 20))))
        before = sum(1 for c in word.codes if abs(c) == ST.code("s"))
        reduced, pinches = britton_reduce_counted(BS23, word)
        assert (before - len(reduced.s_signs)) % 2 == 0
        assert pinches == (before - len(reduced.s_signs)) // 2


def test_britton_reduce_rejects_foreign_alphabet():
    with pytest.raises(ValueError):
        britton_reduce_counted(BS23, parse_word(Alphabet.of("x"), "x"))


# The reader and the syllable stack pass that the letter stack pass replaced,
# kept as the oracle: the word is read into syllables first, and each pinch
# adds the run after it at once.


def _old_to_syllables(word):
    runs, signs = [0], []
    for c in word.codes:
        if c == 2:
            runs[-1] += 1
        elif c == -2:
            runs[-1] -= 1
        else:
            signs.append(c)
            runs.append(0)
    return tuple(runs), tuple(signs)


def _old_pinch(runs, signs, m, n):
    out_runs, out_signs, pinches = [runs[0]], [], 0
    for e, a in zip(signs, runs[1:]):
        if out_signs and out_signs[-1] == -e:
            k = out_runs[-1]
            div, mul = (m, n) if e == 1 else (n, m)
            if k % div == 0:
                out_signs.pop()
                out_runs.pop()
                out_runs[-1] += k // div * mul + a
                pinches += 1
                continue
        out_signs.append(e)
        out_runs.append(a)
    return tuple(out_runs), tuple(out_signs), pinches


# small multiples of 2 and 3 make pinches, and pinches that cancel to zero runs, frequent
_RUNS = st_.one_of(st_.sampled_from([0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6]), st_.integers(-12, 12))
_SYLLABLES = st_.lists(st_.tuples(st_.sampled_from([1, -1]), _RUNS), max_size=30)
_PARAMS = st_.sampled_from([(2, 3), (1, 3), (3, 1), (1, 1), (1, 2), (2, 4), (3, 3), (3, 2)])


def _syllable_word(head, syllables):
    parts = [f"t^{head}"] if head else []
    for e, a in syllables:
        parts += [f"s^{e}", f"t^{a}"] if a else [f"s^{e}"]
    return w(" ".join(parts))


@settings(max_examples=400, deadline=None)
@given(_PARAMS, _RUNS, _SYLLABLES, st_.integers(0, 6))
@example((2, 3), 0, [(-1, 1), (-1, 2), (1, -4), (1, 0)], 0)  # a pinch leaves a zero run that pinches
@example((3, 1), 0, [(1, 3), (-1, 0)], 0)  # s t^3 s^-1 pinches by the s^-1 rule
def test_letter_stack_pass_matches_the_syllable_stack_pass(mn, head, syllables, i):
    m, n = mn
    word = _syllable_word(head, syllables)
    runs, signs = _old_to_syllables(word)
    out_runs, out_signs, pinches = _old_pinch(tuple(a << i for a in runs), signs, m, n)
    assert _pinch(word.codes, m, n, 1 << i) == (out_runs, out_signs, pinches)
    if i == 0:
        assert britton_reduce_counted(BSParams(m, n), word) == ((out_runs, out_signs), pinches)
        assert bs_is_trivial(BSParams(m, n), word) == (out_runs == (0,))


# The leftmost-first rewriting that the stack pass replaced, kept as the
# reference: free cancellation first, then restart from the left after every
# pinch.


def _reference_normalize(runs, signs):
    i = 0
    while i < len(signs) - 1:
        if runs[i + 1] == 0 and signs[i] == -signs[i + 1]:
            runs[i] = runs[i] + runs[i + 2]
            del runs[i + 1 : i + 3]
            del signs[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return runs, signs


def _reference_britton(params, runs, signs):
    runs, signs = _reference_normalize(list(runs), list(signs))
    m, n = params.m, params.n
    pinches = 0
    while True:
        site = None
        for i in range(len(signs) - 1):
            k = runs[i + 1]
            if signs[i] == -1 and signs[i + 1] == 1 and k % m == 0:
                site, scaled = i, k * n // m
                break
            if signs[i] == 1 and signs[i + 1] == -1 and k % n == 0:
                site, scaled = i, k * m // n
                break
        if site is None:
            break
        runs[site] = runs[site] + scaled + runs[site + 2]
        del runs[site + 1 : site + 3]
        del signs[site : site + 2]
        pinches += 1
    return tuple(runs), tuple(signs), pinches


@settings(max_examples=300, deadline=None)
@given(_PARAMS, _RUNS, _SYLLABLES)
@example((2, 3), 0, [(-1, 1), (-1, 2), (1, -4), (1, 0)])  # a pinch leaves a zero run that pinches
def test_stack_pass_matches_leftmost_first_reference(mn, head, syllables):
    params = BSParams(*mn)
    word = _syllable_word(head, syllables)
    runs, signs = _old_to_syllables(word)
    reduced, pinches = britton_reduce_counted(params, word)
    expected = _reference_britton(params, runs, signs)
    assert (reduced.t_runs, reduced.s_signs, pinches) == expected
    # a reduced word's syllables need no free cancellation, so none is run
    assert _reference_normalize(list(runs), list(signs)) == (list(runs), list(signs))


# ---------------------------------------------------------------- triviality and equality


def test_bs_is_trivial_examples():
    assert bs_is_trivial(BS23, w(""))
    assert bs_is_trivial(BS23, w("s^-1 t^2 s t^-3"))
    assert bs_is_trivial(BS23, w("t^3 s^-1 t^-2 s"))
    assert not bs_is_trivial(BS23, w("s"))
    assert not bs_is_trivial(BS23, w("t"))
    assert not bs_is_trivial(BS23, w("t^6"))
    assert not bs_is_trivial(BS23, w_family(1))


def test_bs_equal_examples():
    assert bs_equal(BS23, w("s^-1 t^2 s"), w("t^3"))
    assert not bs_equal(BS23, w("t"), w("t^2"))
    assert bs_equal(BS23, w("s t s^-1"), w("s t s^-1"))


@settings(max_examples=60, deadline=None)
@given(st_.lists(st_.sampled_from(["s", "s^-1", "t", "t^-1"]), max_size=12))
def test_bs_equal_reflexive(parts):
    word = w(" ".join(parts))
    assert bs_equal(BS23, word, word)


def test_bs_equal_is_a_congruence():
    # if u = v then cu = cv and uc = vc
    rng = random.Random(5)
    letters = ["s", "s^-1", "t", "t^-1"]
    pairs = [
        (w("s^-1 t^2 s"), w("t^3")),
        (w("s t^3 s^-1"), w("t^2")),
        (w(""), w("s^-1 t^2 s t^-3")),
    ]
    for u, v in pairs:
        for _ in range(20):
            c = w(" ".join(rng.choice(letters) for _ in range(rng.randint(0, 8))))
            assert bs_equal(BS23, c * u, c * v)
            assert bs_equal(BS23, u * c, v * c)


def test_general_params_accepted():
    p25 = BSParams(2, 5)
    assert bs_is_trivial(p25, w("s^-1 t^2 s t^-5"))
    assert not bs_is_trivial(p25, w("s^-1 t^2 s t^-3"))


def test_bs_params_validation():
    with pytest.raises(ValueError):
        BSParams(0, 3)
    with pytest.raises(ValueError):
        BSParams(2, 0)


def test_bs_presentation():
    assert bs_presentation(BS23).format() == "< s, t | s^-1 t^2 s t^-3 >"
    assert bs_presentation(BSParams(1, 2)).format() == "< s, t | s^-1 t s t^-2 >"


# ---------------------------------------------------------------- the doubling endomorphism


def test_doubling_map_images():
    f = doubling_map()
    assert f.image("s") == w("s")
    assert f.image("t") == w("t t")


def test_apply_f_examples():
    assert apply_f(w("t"), 1) == w("t^2")
    assert apply_f(w("t"), 3) == w("t^8")
    assert apply_f(w("s t s^-1"), 1) == w("s t^2 s^-1")
    word = w("s^-1 t s t^-1")
    assert apply_f(word, 0) == word


def test_apply_f_power_agrees_with_iterated_substitution():
    f = doubling_map()
    word = w_family(2)
    assert apply_f(word, 2) == substitute(substitute(word, f), f)


def test_apply_f_rejects_negative_iterate():
    with pytest.raises(ValueError):
        apply_f(w("t"), -1)


@pytest.mark.parametrize("i", [0, 1, 5])
def test_doubling_rejects_words_not_over_st(i):
    # one alphabet rule: every entry point takes words over ST exactly, so a
    # sub-alphabet or the same letters in another order is refused everywhere
    for alphabet in (Alphabet.of("t"), Alphabet.of("t", "s")):
        word = parse_word(alphabet, " ".join(alphabet.names()))
        for call in (
            lambda: apply_f(word, i),
            lambda: tower_oracle(i)(word),
            lambda: britton_reduce_counted(BS23, word),
            lambda: bs_is_trivial(BS23, word),
            lambda: bs_equal(BS23, word, word),
        ):
            with pytest.raises(ValueError, match=r"not over the alphabet \{s, t\}"):
                call()


def test_apply_f_caps_the_image_length():
    assert len(apply_f(w("t"), 20)) == MAX_WORD_LETTERS
    with pytest.raises(ValueError):
        apply_f(w("s t"), 20)
    with pytest.raises(ValueError):
        apply_f(w("t"), 10**12)  # refused without forming 2^(10^12)
    assert apply_f(w("s^3"), 10**12) == w("s^3")


def test_syllable_kernel_predicate_matches_spelled_out_images():
    # levels 0..6 over the first 3000 shortlex words, against f^i(w) spelled
    # out by iterated substitution and decided by Britton reduction
    f = doubling_map()
    for index in range(3000):
        word = image = shortlex_word(ST, index)
        for i in range(7):
            assert apply_f(word, i) == image
            assert in_kernel(word, i) == bs_is_trivial(BS23, image)
            image = substitute(image, f)


def test_doubling_map_is_surjective_on_generators():
    # s has the obvious preimage; t is hit by s^-1 t s t^-1 (a pinch shows it)
    f = doubling_map()
    pre_t = substitute(w("s^-1 t s t^-1"), f)
    assert pre_t == w("s^-1 t^2 s t^-2")
    assert bs_equal(BS23, pre_t, w("t"))


# ---------------------------------------------------------------- the w-family


def test_w_family_base_cases():
    assert w_family(0).is_identity
    assert w_family(1) == w("s^-1 t s t s^-1 t^-1 s t^-1")


def test_w_family_second_member_frozen():
    assert w_family(2) == w(W2_TEXT)
    assert len(w_family(2).codes) == 16


def test_w_family_recursion_is_substitution():
    sub = f_preimage_witnesses()
    for i in [1, 2, 3]:
        assert w_family(i + 1) == substitute(w_family(i), sub)


def test_w_family_length_closed_form():
    # |w_i| = 3 * 2^i + 2i; w_19 would be the first past the cap, so it is refused unbuilt
    assert [len(w_family(i)) for i in range(1, 19)] == [3 * 2**i + 2 * i for i in range(1, 19)]
    assert 3 * 2**18 + 2 * 18 <= MAX_WORD_LETTERS < 3 * 2**19 + 2 * 19
    for i in (19, 40, 10**18):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"w_{i} would have more than {MAX_WORD_LETTERS} letters"):
            w_family(i)
        assert time.perf_counter() - start < 0.05


def test_w_family_raw_length_bookkeeping():
    # Substituting t -> s^-1 t s t^-1 turns each t-letter into four letters
    # (two of them t-letters) and keeps s-letters, so without any free
    # reduction the letter counts follow L' = L + 3T, T' = 2T from (8, 4).
    # The stored words are reduced, so only the base case is a real word;
    # the raw sequence 8, 20, 44, 92 is bookkeeping about the construction.
    s1 = sum(1 for c in w_family(1).codes if abs(c) == ST.code("s"))
    t1 = len(w_family(1).codes) - s1
    assert (s1, t1) == (4, 4)
    raw = [(8, 4)]
    for _ in range(3):
        length, t = raw[-1]
        raw.append((length + 3 * t, 2 * t))
    assert [length for length, _ in raw] == [8, 20, 44, 92]
    # after free reduction the stored words are shorter
    assert len(w_family(2).codes) == 16
    assert len(w_family(3).codes) < 44


def test_w_family_stops_at_the_length_cap():
    # w_18 has 786468 letters and stays; w_19 would pass MAX_WORD_LETTERS = 2^20
    with pytest.raises(ValueError, match="w_19 would have more than 1048576 letters"):
        w_family(19)


def test_w_family_rejects_negative():
    with pytest.raises(ValueError):
        w_family(-1)


# ---------------------------------------------------------------- kernel truth table


@pytest.mark.parametrize("i", range(5))
@pytest.mark.parametrize("j", range(5))
def test_kernel_truth_table(i, j):
    # w_j dies under the i-fold doubling map exactly when j <= i
    word = apply_f(w_family(j), i)
    assert bs_is_trivial(BS23, word) == (j <= i)


def _unclamped_in_kernel(word, i):
    """f^i(w) trivial in BS(2,3), by the stack pass on runs scaled by 2^i,
    with neither the s-sum shortcut nor the level clamp; the oracle."""
    return _pinch(word.codes, BS23.m, BS23.n, 1 << i)[0] == (0,)


def test_level_clamp_matches_the_unclamped_predicate():
    # in_kernel(w, i) == in_kernel(w, min(i, c)) for c the number of s-letters
    for index in range(3000):
        word = shortlex_word(ST, index)
        c = word.codes.count(1) + word.codes.count(-1)
        for i in (c, c + 1, c + 3):
            assert in_kernel(word, i) == _unclamped_in_kernel(word, i)


@pytest.mark.parametrize("i", range(4))
def test_kernel_stream_matches_the_unfiltered_scan(i):
    expected = (u for u in shortlex_stream(ST) if _unclamped_in_kernel(u, i))
    assert list(itertools.islice(kernel_stream(i), 100)) == list(itertools.islice(expected, 100))


def test_tower_oracle_answers_at_huge_levels_at_once():
    # the level is clamped to the s-letter count before any run is scaled
    oracle = tower_oracle(10**10)
    start = time.perf_counter()
    assert not oracle(w("t"))
    assert oracle(w_family(2))
    assert time.perf_counter() - start < 0.1


def test_in_kernel_weighs_each_t_run_once():
    # a 100,000-letter run at level 200,000: one product of a 200,000-bit
    # weight, not 100,000 additions of it
    word = parse_word(ST, "s^100000 t^100000 s^-100000")
    start = time.perf_counter()
    assert not in_kernel(word, 10**9)
    assert time.perf_counter() - start < 0.25


def test_tower_oracle_levels_on_the_witness_family():
    # w_j dies at level j, and the oracle does not spell out f^64(w_j)
    assert all(tower_oracle(64)(w_family(j)) for j in range(7))
    assert not any(tower_oracle(3)(w_family(j)) for j in range(4, 7))


def test_kernel_stream_rejects_negative_iterate_when_called():
    # the error comes from the call itself, before any word is requested
    with pytest.raises(ValueError):
        kernel_stream(-1)


def test_kernel_stream_level_zero():
    first = list(itertools.islice(kernel_stream(0), 40))
    assert first[0].is_identity
    for u in first:
        assert bs_is_trivial(BS23, u)
    assert len(set(first)) == len(first)


def test_kernel_stream_level_zero_contains_relator():
    relator = w("s^-1 t^2 s t^-3")
    assert any(u == relator for u in itertools.islice(kernel_stream(0), 30000))


def test_kernel_stream_level_one_sound():
    for u in itertools.islice(kernel_stream(1), 100):
        assert bs_is_trivial(BS23, apply_f(u, 1))


def test_kernel_streams_are_nested():
    # anything killed by f is killed by f^2
    level1 = list(itertools.islice(kernel_stream(1), 40))
    level2 = list(itertools.islice(kernel_stream(2), 80))
    assert set(level1) <= set(level2)


def test_w2_survives_one_application():
    assert not bs_is_trivial(BS23, apply_f(w_family(2), 1))


# ---------------------------------------------------------------- preimage witnesses


def test_preimage_witness_images():
    pre = f_preimage_witnesses()
    assert pre.image("s") == w("s")
    assert pre.image("t") == w("s^-1 t s t^-1")


def test_preimage_witness_section_property():
    # applying f to each witness recovers the generator in the group
    f = doubling_map()
    pre = f_preimage_witnesses()
    for name in ["s", "t"]:
        lifted = substitute(pre.image(name), f)
        assert bs_equal(BS23, lifted, ST.gen_word(name))


def test_preimage_witness_composes():
    # pre^i followed by f^i lands back on the original generator
    pre = f_preimage_witnesses()
    for name in ["s", "t"]:
        word = ST.gen_word(name)
        lifted = word
        for i in range(1, 4):
            lifted = substitute(lifted, pre)
            assert bs_equal(BS23, apply_f(lifted, i), word)
