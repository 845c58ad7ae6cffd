"""Free-group words over a finite alphabet.

An alphabet is the tuple of its generator names.  Words are tuples of integer
letter codes, +-(generator index + 1), the way GAP and kbmag store them.
Letters are validated where they enter (parsing, ``GeneratorMap``,
certificate JSON); every public operation returns words in freely reduced
form, reducing only where letters can cancel (see ``_word``).
Reduced words have one shortlex order: ``shortlex_stream`` enumerates it level
by level and ``shortlex_word`` unranks any position of it, and neither keeps
a table of the words it has built.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, NamedTuple

# characters that would collide with the word / presentation / map grammars
_FORBIDDEN_CHARS = set("^,|<>=")

# The most letters a parsed word or a spelled-out doubling image may have;
# about 30 times the largest word any test or benchmark task builds.
MAX_WORD_LETTERS = 2**20


def _valid_name(name: str) -> bool:
    if not name or not name.isascii():
        return False
    return not any(c.isspace() or c in _FORBIDDEN_CHARS for c in name)


class Alphabet(tuple):
    """An ordered, duplicate-free, nonempty tuple of generator names.

    Names are nonempty ASCII without whitespace or any of ``^ , | < > =``.
    The letter code of a name is its position, counted from 1.  Equality and
    hashing are tuple's, so an alphabet equals the plain tuple of its names.
    """

    __slots__ = ()

    def __new__(cls, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet must contain at least one generator")
        for name in names:
            if not _valid_name(name):
                raise ValueError(f"invalid generator name: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {list(names)}")
        return tuple.__new__(cls, names)

    @classmethod
    def of(cls, *names: str) -> "Alphabet":
        return cls(names)

    def code(self, name: str) -> int:
        """The letter code of generator ``name``: its position, counted from 1."""
        try:
            return self.index(name) + 1
        except ValueError:
            raise ValueError(f"unknown generator: {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self)

    def empty_word(self) -> "Word":
        return _word(self, ())

    def gen_word(self, name: str) -> "Word":
        return _word(self, (self.code(name),))


def _rank(code: int) -> int:
    """Position of a letter code in the order 1, -1, 2, -2, ...: each generator
    in declaration order, followed by its inverse."""
    return 2 * code - 2 if code > 0 else -2 * code - 1


class Word:
    """A word over a fixed alphabet, stored freely reduced as letter codes.

    ``codes`` holds +-(i + 1) for generator i of the word's own alphabet or
    its inverse.  There is no public constructor: letters enter through
    ``parse_word``, ``GeneratorMap`` and ``TrivialityCertificate.from_json``,
    and every other word is built from words already valid.  Equality
    compares alphabet and codes; the hash is that of the codes.
    """

    __slots__ = ("alphabet", "codes")

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return _word, (self.alphabet, self.codes)

    @property
    def is_identity(self) -> bool:
        return not self.codes

    def shortlex_key(self) -> tuple:
        return (len(self.codes), tuple(map(_rank, self.codes)))

    def __eq__(self, other):
        if other.__class__ is not Word:
            return NotImplemented
        return self.codes == other.codes and self.alphabet == other.alphabet

    def __hash__(self) -> int:
        return hash(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


_set_alphabet = Word.alphabet.__set__
_set_codes = Word.codes.__set__


def _reduce(codes: Iterable[int]) -> tuple[int, ...]:
    """Free reduction in one stack pass, for spelled letters that may cancel anywhere."""
    out: list[int] = []
    push, pop = out.append, out.pop
    for c in codes:
        if out and out[-1] == -c:
            pop()
        else:
            push(c)
    return tuple(out)


def _join(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """``_reduce(left + right)`` where two freely reduced words meet: letters
    can cancel only at the junction, so only that run is trimmed."""
    k, most = 0, min(len(left), len(right))
    while k < most and left[-1 - k] == -right[k]:
        k += 1
    return left[: len(left) - k] + right[k:]


def _inverse(codes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-c for c in reversed(codes))


def _word(alphabet: Alphabet, codes: tuple[int, ...]) -> Word:
    """The one trusted constructor: stores ``codes``, a tuple valid for ``alphabet``
    and freely reduced, as it is.  Callers run ``_reduce`` on spelled letters,
    ``_join`` where two reduced words meet, and nothing where none can cancel."""
    w = object.__new__(Word)
    _set_alphabet(w, alphabet)
    _set_codes(w, codes)
    return w


def invert(w: Word) -> Word:
    return _word(w.alphabet, _inverse(w.codes))


def concat(u: Word, v: Word) -> Word:
    """Concatenate two words over the same alphabet and reduce."""
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")
    return _word(u.alphabet, _join(u.codes, v.codes))


class ParseError(ValueError):
    """Malformed word text, or malformed presentation text with the words in
    it; ``position`` is where the fault is in the text the caller passed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse_word(alphabet: Alphabet, text: str, *, offset: int = 0) -> Word:
    """Parse whitespace-separated letters ``name`` or ``name^k`` (k nonzero).

    The empty string denotes the empty word.  ``offset`` shifts reported error
    positions, for callers embedding word syntax in a larger grammar.  More
    than ``MAX_WORD_LETTERS`` letters before reduction is an error.
    """
    return _word(alphabet, _reduce(_spell(alphabet, text, offset=offset)))


class WordTooLong(ParseError):
    """Word text that spells more letters than its reader allows."""


def _spell(alphabet: Alphabet, text: str, *, offset: int = 0, max_letters: int = MAX_WORD_LETTERS) -> list[int]:
    """The letter codes of word text as written, before free reduction.  A
    letter past the ``max_letters``-th raises WordTooLong before it is spelled."""
    codes: list[int] = []
    for tok in re.finditer(r"\S+", text):
        token, pos = tok.group(), offset + tok.start()
        if "^" in token:
            name, _, exp = token.partition("^")
            try:
                k = int(exp)
            except ValueError:
                raise ParseError(f"bad exponent {exp!r}", pos) from None
            if k == 0:
                raise ParseError("zero exponent", pos)
        else:
            name, k = token, 1
        try:
            code = alphabet.code(name)
        except ValueError:
            raise ParseError(f"unknown generator {name!r}", pos) from None
        if len(codes) + abs(k) > max_letters:
            raise WordTooLong(f"word longer than {max_letters} letters", pos)
        codes.extend([code if k > 0 else -code] * abs(k))
    return codes


def format_word(w: Word) -> str:
    """Render a word as run-grouped text; the empty word renders as ''."""
    names = w.alphabet
    parts: list[str] = []
    i, codes = 0, w.codes
    while i < len(codes):
        j = i
        while j < len(codes) and codes[j] == codes[i]:
            j += 1
        name = names[abs(codes[i]) - 1]
        exp = j - i if codes[i] > 0 else i - j
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def _shortlex_levels(alphabet: Alphabet) -> Iterator[list[Word]]:
    """The reduced words of length 0, 1, 2, ... over ``alphabet``, one list per
    length in shortlex order, letters ranked by ``_rank``.  Each level is
    built whole from the one before when it is asked for; nothing older is
    kept."""
    order = [c for i in range(1, len(alphabet) + 1) for c in (i, -i)]
    level = [_word(alphabet, ())]
    while True:
        yield level
        level = [_word(alphabet, w.codes + (c,)) for w in level for c in order if not w.codes or c != -w.codes[-1]]


def shortlex_stream(alphabet: Alphabet) -> Iterator[Word]:
    """Yield every reduced word over the alphabet exactly once, in shortlex order."""
    return itertools.chain.from_iterable(_shortlex_levels(alphabet))


def shortlex_word(alphabet: Alphabet, i: int) -> Word:
    """The word at position ``i`` (from 0) of ``shortlex_stream(alphabet)``, in
    closed form: a word of length n >= 1 has 2g choices of first letter and
    2g - 1 of each later one, the ``_rank`` order less the inverse of the
    letter before, so ``i`` past the shorter levels is a mixed-radix number."""
    if i < 0:
        raise ValueError(f"negative shortlex position: {i}")
    choices, n, size = 2 * len(alphabet), 0, 1
    while i >= size:
        i, n, size = i - size, n + 1, choices * (choices - 1) ** n
    codes: list[int] = []
    for _ in range(n):
        size //= choices - 1 if codes else choices
        d, i = divmod(i, size)
        if codes and d >= _rank(-codes[-1]):
            d += 1
        codes.append((-1) ** d * (d // 2 + 1))
    return _word(alphabet, tuple(codes))


class GeneratorMap(NamedTuple("GeneratorMap", [("domain", Alphabet), ("codomain", Alphabet), ("images", tuple)])):
    """A map sending each generator of ``domain`` to a word over ``codomain``.

    Images are stored in the domain's declaration order.  Text syntax is
    comma-separated ``gen=word`` clauses, e.g. ``s=s,t=t^2``.
    """

    __slots__ = ()

    def __new__(cls, domain: Alphabet, codomain: Alphabet, images: tuple[Word, ...]):
        if len(images) != len(domain):
            raise ValueError(f"expected {len(domain)} images, got {len(images)}")
        for img in images:
            if img.alphabet != codomain:
                raise ValueError("image word is not over the codomain alphabet")
        return tuple.__new__(cls, (domain, codomain, images))

    def image(self, name: str) -> Word:
        if name not in self.domain:
            raise ValueError(f"unmapped generator: {name!r}")
        return self.images[self.domain.index(name)]

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "GeneratorMap":
        return cls(alphabet, alphabet, tuple(map(alphabet.gen_word, alphabet)))

    @classmethod
    def parse(cls, domain: Alphabet, codomain: Alphabet, text: str) -> "GeneratorMap":
        images: dict[str, Word] = {}
        for clause in text.split(","):
            name, eq, rhs = clause.partition("=")
            if not eq:
                raise ValueError(f"expected gen=word, got {clause!r}")
            name = name.strip()
            if name in images:
                raise ValueError(f"duplicate image for generator {name!r}")
            domain.code(name)  # raises on unknown generator
            images[name] = parse_word(codomain, rhs)
        missing = [g for g in domain if g not in images]
        if missing:
            raise ValueError(f"missing images for generators: {missing}")
        return cls(domain, codomain, tuple(images[g] for g in domain))

    def format(self) -> str:
        return ",".join(f"{g}={format_word(img)}" for g, img in zip(self.domain, self.images))

    def then(self, other: "GeneratorMap") -> "GeneratorMap":
        """Compose: apply this map, then ``other`` (domain -> other.codomain)."""
        return GeneratorMap(
            self.domain, other.codomain, tuple(substitute(img, other) for img in self.images)
        )


def substitute(w: Word, m: GeneratorMap) -> Word:
    """Replace every letter of ``w`` by its image under ``m`` and reduce.

    Spelling out more than ``MAX_WORD_LETTERS`` letters before reduction is
    a ValueError, raised before any image is copied.
    """
    if w.alphabet != m.domain:
        raise ValueError("word alphabet does not match map domain (unmapped generator)")
    images = {}
    for i, img in enumerate(m.images, 1):
        images[i], images[-i] = img.codes, _inverse(img.codes)
    # |w| times the longest image bounds the spelled length; past it, sum exactly
    if len(w.codes) * max(map(len, m.images)) > MAX_WORD_LETTERS:
        if sum(map(len, map(images.__getitem__, w.codes))) > MAX_WORD_LETTERS:
            raise ValueError(f"substitution spells more than {MAX_WORD_LETTERS} letters")
    pieces: list[int] = []
    for c in w.codes:
        pieces += images[c]
    return _word(m.codomain, _reduce(pieces))
