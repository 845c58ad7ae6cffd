"""The groups BS(m,n) = < s, t | s^-1 t^m s = t^n > and their word problem.

Words are carried in syllable form t^{a0} s^{e1} t^{a1} ... s^{ek} t^{ak}
with arbitrary-precision t-exponents.  Britton reduction repeatedly rewrites
pinches, leftmost first:

    s^-1 t^k s  ->  t^(k n / m)   when m | k
    s    t^k s^-1 -> t^(k m / n)  when n | k

A word is trivial exactly when it reduces to t^0 with no s-letters, which is
what makes this a decision procedure rather than a semi-decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .presentations import FinitePresentation
from .words import (
    Alphabet,
    GeneratorMap,
    Word,
    _word,
    commutator,
    free_reduce,
    invert,
    shortlex_stream,
    substitute,
)

ST = Alphabet.of("s", "t")


@dataclass(frozen=True)
class BSParams:
    """Parameters of BS(m,n); both must be at least 1."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"BS parameters must be >= 1, got ({self.m}, {self.n})")


BS23 = BSParams(2, 3)


@dataclass(frozen=True)
class SyllableWord:
    """Alternating form: t_runs[0] s^{s_signs[0]} t_runs[1] ... t_runs[k].

    Normalized on construction: an interior zero t-run between s-letters of
    opposite sign cancels that pair (free reduction); a zero run between
    s-letters of equal sign is kept, since s^e t^0 s^e is just s^(2e).
    """

    t_runs: tuple[int, ...]
    s_signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.t_runs) != len(self.s_signs) + 1:
            raise ValueError("need exactly one more t-run than s-letters")
        if any(e not in (1, -1) for e in self.s_signs):
            raise ValueError("s-letter signs must be +1 or -1")
        runs, signs = _normalize(list(self.t_runs), list(self.s_signs))
        object.__setattr__(self, "t_runs", tuple(runs))
        object.__setattr__(self, "s_signs", tuple(signs))

    @property
    def s_count(self) -> int:
        return len(self.s_signs)

    @property
    def is_identity(self) -> bool:
        return not self.s_signs and self.t_runs[0] == 0

    def format(self) -> str:
        parts = [f"t^{self.t_runs[0]}"]
        for e, a in zip(self.s_signs, self.t_runs[1:]):
            parts.append(f"s^{e}")
            parts.append(f"t^{a}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.format()


def _normalize(runs: list[int], signs: list[int]) -> tuple[list[int], list[int]]:
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


def to_syllables(w: Word) -> SyllableWord:
    """Convert a word over a sub-alphabet of {s, t} to syllable form."""
    names = w.alphabet.names()
    s, t = (names.index(x) + 1 if x in names else 0 for x in ("s", "t"))
    runs = [0]
    signs: list[int] = []
    for c in w.codes:
        if c == t or c == -t:
            runs[-1] += 1 if c > 0 else -1
        elif c == s or c == -s:
            signs.append(1 if c > 0 else -1)
            runs.append(0)
        else:
            raise ValueError(f"foreign generator {names[abs(c) - 1]!r}; expected only s, t")
    return SyllableWord(tuple(runs), tuple(signs))


def from_syllables(sw: SyllableWord) -> Word:
    s, t = ST.code("s"), ST.code("t")
    codes = [t if sw.t_runs[0] > 0 else -t] * abs(sw.t_runs[0])
    for e, a in zip(sw.s_signs, sw.t_runs[1:]):
        codes.append(s * e)
        codes += [t if a > 0 else -t] * abs(a)
    return _word(ST, codes)


def britton_reduce_counted(params: BSParams, w: Word) -> tuple[SyllableWord, int]:
    """Britton-reduce and also report how many pinches were rewritten.

    Each pinch removes exactly two s-letters and nothing else removes any, so
    the count always equals (initial s-count - final s-count) / 2.
    """
    sw = to_syllables(w)
    runs, signs = list(sw.t_runs), list(sw.s_signs)
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
    return SyllableWord(tuple(runs), tuple(signs)), pinches


def britton_reduce(params: BSParams, w: Word) -> SyllableWord:
    """Rewrite pinches leftmost-first until none remain."""
    return britton_reduce_counted(params, w)[0]


def bs_is_trivial(params: BSParams, w: Word) -> bool:
    """Decide the word problem of BS(m,n).

    A Britton-reduced word with an s-letter is never trivial, and t has
    infinite order, so triviality means reducing all the way to t^0.
    """
    return britton_reduce(params, w).is_identity


def bs_equal(params: BSParams, u: Word, v: Word) -> bool:
    return bs_is_trivial(params, u * invert(v))


def bs_presentation(params: BSParams) -> FinitePresentation:
    """The one-relator presentation < s, t | s^-1 t^m s t^-n >."""
    relator = ST.word(f"s^-1 t^{params.m} s t^-{params.n}")
    return FinitePresentation(ST, (relator,))


def doubling_map() -> GeneratorMap:
    """The endomorphism substitution s -> s, t -> t^2."""
    return GeneratorMap.parse(ST, ST, "s=s,t=t^2")


def apply_f(w: Word, i: int) -> Word:
    """Apply the doubling substitution i times: s -> s, t -> t^(2^i)."""
    if i < 0:
        raise ValueError("iterate must be >= 0")
    if i == 0:
        return free_reduce(w)
    step = GeneratorMap(ST, ST, (ST.gen_word("s"), ST.word(f"t^{2 ** i}")))
    return substitute(w, step)


def w_family(i: int) -> Word:
    """The witness words: w_0 is empty, w_1 = [s^-1 t s, t], and each later
    w_i substitutes s -> s, t -> [s^-1, t] into its predecessor."""
    if i < 0:
        raise ValueError("index must be >= 0")
    if i == 0:
        return ST.empty_word()
    w = commutator(ST.word("s^-1 t s"), ST.word("t"))
    shrink = GeneratorMap.parse(ST, ST, "s=s,t=s^-1 t s t^-1")
    for _ in range(i - 1):
        w = substitute(w, shrink)
    return w


def kernel_stream(iterate: int) -> Iterator[Word]:
    """Shortlex enumeration of the words killed by the i-fold doubling map.

    Emits exactly those reduced words w over {s, t} for which apply_f(w, i)
    is trivial in BS(2,3), in shortlex order.  A negative iterate raises
    here, not at the first ``next``.
    """
    if iterate < 0:
        raise ValueError("iterate must be >= 0")
    return (w for w in shortlex_stream(ST) if bs_is_trivial(BS23, apply_f(w, iterate)))


def f_preimage_witnesses() -> GeneratorMap:
    """Generator-wise preimages under the doubling map in BS(2,3):
    s pulls back to s and t pulls back to s^-1 t s t^-1."""
    return GeneratorMap.parse(ST, ST, "s=s,t=s^-1 t s t^-1")
