"""The groups BS(m,n) = < s, t | s^-1 t^m s = t^n > and their word problem.

Words over the alphabet ST = {s, t}, and no other, are read letter by letter
in one left-to-right stack pass that keeps the syllable form
t^{a0} s^{e1} t^{a1} ... s^{ek} t^{ak}, with arbitrary-precision
t-exponents, and rewrites each pinch, leftmost first, as its closing s-letter
arrives:

    s^-1 t^k s  ->  t^(k n / m)   when m | k
    s    t^k s^-1 -> t^(k m / n)  when n | k

A word is trivial exactly when it reduces to t^0 with no s-letters, which is
what makes this a decision procedure rather than a semi-decision.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Iterator, NamedTuple

from .presentations import FinitePresentation
from .words import (
    MAX_WORD_LETTERS,
    Alphabet,
    GeneratorMap,
    Word,
    _word,
    invert,
    parse_word,
    shortlex_stream,
    substitute,
)

ST = Alphabet.of("s", "t")


class BSParams(NamedTuple("BSParams", [("m", int), ("n", int)])):
    """Parameters of BS(m,n); both must be at least 1."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError(f"BS parameters must be >= 1, got ({m}, {n})")
        return tuple.__new__(cls, (m, n))


BS23 = BSParams(2, 3)


class SyllableWord(NamedTuple):
    """The solver's output record t_runs[0] s^{s_signs[0]} t_runs[1] ... t_runs[k]."""

    t_runs: tuple[int, ...]
    s_signs: tuple[int, ...]

    def format(self) -> str:
        """The record as text; a t-exponent past Python's int-to-str digit limit raises ValueError."""
        try:
            return " ".join([f"t^{self.t_runs[0]}", *(f"s^{e} t^{a}" for e, a in zip(self.s_signs, self.t_runs[1:]))])
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"normal form has a t-exponent of more than {limit} digits") from None


def _st_codes(w: Word) -> tuple[int, ...]:
    """The letter codes of a word over ST = {s, t} exactly: s is code 1, t code 2."""
    if w.alphabet != ST:
        raise ValueError("word is not over the alphabet {s, t}")
    return w.codes


def _pinch(codes, m: int, n: int, t_weight: int = 1) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Read letter codes into syllables, each t-letter worth t_weight t's, and
    rewrite the pinches of BS(m,n), leftmost first, in the same stack pass;
    count them.

    The t-letters since the last s-letter are counted in a small int, ``a``,
    and added to the top run, ``top``, kept off the stack, once: a big
    t_weight costs one product per run.  The stack holds no pinch, so an
    s-letter can only close the leftmost one, with the top run; a zero run
    pinches too.
    """
    runs, signs, pinches, top, a = [], [], 0, 0, 0
    for c in codes:
        if c == 2:
            a += 1
        elif c == -2:
            a -= 1
        else:
            if a:
                top += a * t_weight
                a = 0
            if signs and signs[-1] == -c and top % (m if c == 1 else n) == 0:
                signs.pop()
                top = runs.pop() + (top // m * n if c == 1 else top // n * m)
                pinches += 1
            else:
                runs.append(top)
                signs.append(c)
                top = 0
    runs.append(top + a * t_weight)
    return tuple(runs), tuple(signs), pinches


def britton_reduce_counted(params: BSParams, w: Word) -> tuple[SyllableWord, int]:
    """Rewrite pinches leftmost-first until none remain; count them.

    Each pinch removes exactly two s-letters and nothing else removes any, so
    the count always equals (initial s-count - final s-count) / 2.
    """
    runs, signs, pinches = _pinch(_st_codes(w), params.m, params.n)
    return SyllableWord(runs, signs), pinches


def bs_is_trivial(params: BSParams, w: Word) -> bool:
    """Decide the word problem of BS(m,n).

    A Britton-reduced word with an s-letter is never trivial, and t has
    infinite order, so triviality means reducing all the way to t^0.
    """
    return _pinch(_st_codes(w), params.m, params.n)[0] == (0,)


def bs_equal(params: BSParams, u: Word, v: Word) -> bool:
    return bs_is_trivial(params, u * invert(v))


def bs_presentation(params: BSParams) -> FinitePresentation:
    """The one-relator presentation < s, t | s^-1 t^m s t^-n >."""
    relator = parse_word(ST, f"s^-1 t^{params.m} s t^-{params.n}")
    return FinitePresentation(ST, (relator,))


def doubling_map() -> GeneratorMap:
    """The endomorphism substitution s -> s, t -> t^2."""
    return GeneratorMap.parse(ST, ST, "s=s,t=t^2")


def apply_f(w: Word, i: int) -> Word:
    """Apply the doubling substitution i times: s -> s, t -> t^(2^i).

    Raises ValueError, before spelling out, past MAX_WORD_LETTERS letters.
    """
    if i < 0:
        raise ValueError("iterate must be >= 0")
    codes = _st_codes(w)
    # repeating each t by 2^min(i, cap's bit length) gives f^i(w) exactly or puts one t over the cap
    scale = 1 << min(i, MAX_WORD_LETTERS.bit_length())
    if len(codes) + (codes.count(2) + codes.count(-2)) * (scale - 1) > MAX_WORD_LETTERS:
        raise ValueError(f"f^{i}(w) would have more than {MAX_WORD_LETTERS} letters")
    spelled = {1: (1,), -1: (-1,), 2: (2,) * scale, -2: (-2,) * scale}
    return _word(ST, tuple(chain.from_iterable(map(spelled.__getitem__, codes))))


def in_kernel(w: Word, i: int) -> bool:
    """Whether f^i(w) is trivial in BS(2,3), decided on the scaled t-runs.

    The s-exponent sum maps BS(2,3) onto its abelianization Z and f fixes s,
    so a word with nonzero s-sum is never in the kernel.  With c s-letters in
    w, in_kernel(w, i) == in_kernel(w, min(i, c)): along the stack pass each
    run is 2^i times a rational with denominator at most 2^(nesting depth) <
    2^c, so for i >= c every divisibility-by-2 test passes, while tests for
    zero and for divisibility by 3 do not change under scaling by 2.
    """
    if i < 0:
        raise ValueError("iterate must be >= 0")
    codes = _st_codes(w)
    up, down = codes.count(1), codes.count(-1)
    return up == down and _pinch(codes, BS23.m, BS23.n, 1 << min(i, up + down))[0] == (0,)


def f_preimage_witnesses() -> GeneratorMap:
    """Generator-wise preimages under the doubling map in BS(2,3):
    s pulls back to s and t pulls back to s^-1 t s t^-1."""
    return GeneratorMap.parse(ST, ST, "s=s,t=s^-1 t s t^-1")


def w_family(i: int) -> Word:
    """The witness words: w_0 is empty, w_1 = [s^-1 t s, t], and each later
    w_i substitutes the preimage witnesses into its predecessor.  For i >= 1,
    w_i has 3 * 2^i + 2i letters, so from w_19 on, past MAX_WORD_LETTERS
    letters, this raises ValueError before building anything."""
    if i < 0:
        raise ValueError("index must be >= 0")
    # 2^i is capped at the cap's bit length, past which every w_i is too long
    if 3 * 2 ** min(i, MAX_WORD_LETTERS.bit_length()) + 2 * i > MAX_WORD_LETTERS:
        raise ValueError(f"w_{i} would have more than {MAX_WORD_LETTERS} letters")
    if i == 0:
        return ST.empty_word()
    w = parse_word(ST, "s^-1 t s t s^-1 t^-1 s t^-1")  # [s^-1 t s, t]
    shrink = f_preimage_witnesses()
    for _ in range(i - 1):
        w = substitute(w, shrink)
    return w


def kernel_stream(iterate: int) -> Iterator[Word]:
    """Shortlex enumeration of the words killed by the i-fold doubling map.

    Emits exactly those reduced words w over {s, t} for which f^i(w) is
    trivial in BS(2,3), in shortlex order.  A negative iterate raises here,
    not at the first ``next``.
    """
    if iterate < 0:
        raise ValueError("iterate must be >= 0")
    return (w for w in shortlex_stream(ST) if in_kernel(w, iterate))
