"""Encodings and the cardinality-recovery pipeline.

Small computability plumbing: the Cantor pairing bijection N^2 -> N and its
n-ary extension, lazy compression of a natural-number stream onto an initial
segment of N, and the quotient-tower construction that turns a finite set W
into a recursively presented group whose word problem remembers only |W|.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator

from .bs import BS23, ST, bs_presentation, in_kernel, kernel_stream
from .presentations import RecursivePresentation
from .words import Word, _word


def cantor_pair(x: int, y: int) -> int:
    """The pairing (x + y)(x + y + 1)/2 + y, a bijection N^2 -> N."""
    if x < 0 or y < 0:
        raise ValueError("cantor_pair takes naturals")
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(z: int) -> tuple[int, int]:
    if z < 0:
        raise ValueError("cantor_unpair takes a natural")
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def cantor_tuple(xs: tuple[int, ...]) -> int:
    """Left-fold pairing: (x1, ..., xn) -> <...<<x1, x2>, x3>..., xn>."""
    if not xs:
        raise ValueError("cannot encode the empty tuple")
    acc = xs[0]
    for x in xs[1:]:
        acc = cantor_pair(acc, x)
    return acc


def cantor_untuple(z: int, n: int) -> tuple[int, ...]:
    if n < 1:
        raise ValueError("tuple arity must be >= 1")
    out: list[int] = []
    for _ in range(n - 1):
        z, last = cantor_unpair(z)
        out.append(last)
    out.append(z)
    return tuple(reversed(out))


def compress_stream(source: Iterable[int]) -> Iterator[int]:
    """Lazily emit 0, 1, 2, ... once per distinct element of the source.

    Repeats are skipped, so an empty source yields nothing, a source with k
    distinct elements yields exactly 0..k-1, and a source with infinitely
    many distinct elements enumerates all of N.
    """
    seen: set[int] = set()
    for x in source:
        if x < 0:
            raise ValueError("compress_stream takes naturals")
        if x not in seen:
            seen.add(x)
            yield len(seen) - 1


def parse_int_list(text: str) -> list[int]:
    """The comma-separated integers of ``text``; empty or blank text has none."""
    if not text.strip():
        return []
    out = []
    for item in text.split(","):
        try:
            out.append(int(item))
        except ValueError:
            raise ValueError(f"not an integer: {item.strip()!r}") from None
    return out


class ExplicitFiniteSet(tuple):
    """A finite set of naturals: the sorted, duplicate-free tuple of its elements.

    Text syntax: comma-separated naturals, e.g. ``4,7``; empty text is the
    empty set.
    """

    __slots__ = ()

    def __new__(cls, elements: tuple[int, ...]):
        if any(x < 0 for x in elements):
            raise ValueError("elements must be naturals")
        if list(elements) != sorted(set(elements)):
            raise ValueError("elements must be strictly increasing; use .of()")
        return tuple.__new__(cls, elements)

    @classmethod
    def of(cls, elements: Iterable[int]) -> "ExplicitFiniteSet":
        return cls(tuple(sorted(set(elements))))

    @classmethod
    def parse(cls, text: str) -> "ExplicitFiniteSet":
        return cls.of(parse_int_list(text))


def tower_oracle(k: int) -> Callable[[Word], bool]:
    """The word oracle of the k-th quotient in the tower.

    A word is trivial in that quotient exactly when its k-fold doubling image
    is trivial in BS(2,3), so the oracle is total.
    """
    if k < 0:
        raise ValueError("tower level must be >= 0")
    return lambda w: in_kernel(w, k)


def quotient_tower_presentation(W: ExplicitFiniteSet) -> RecursivePresentation:
    """Present the |W|-th tower quotient over generators {s, t}.

    The relator stream emits the BS(2,3) relator first and then fairly
    interleaves the kernel streams of the (i+1)-fold doubling maps for i in
    compress(W), i.e. for i in 0..|W|-1.  For empty W the stream holds just
    the relator.
    """
    def source() -> Iterator[Word]:
        yield bs_presentation(BS23).relators[0]
        streams = [kernel_stream(i + 1) for i in compress_stream(W)]
        if not streams:
            return
        for ks in itertools.cycle(streams):
            yield next(ks)

    return RecursivePresentation(ST, source)


def _linear_witness(j: int) -> Word:
    """v_j = [s^-j t s^j, t] = s^-j t s^j t s^-j t^-1 s^j t^-1, with 4j + 4
    letters (v_0 is empty).  Its image under f^k is [s^-j t^(2^k) s^j, t^(2^k)],
    trivial in BS(2,3) exactly when j <= k, so v_j dies at tower level j and
    not before."""
    if j == 0:
        return ST.empty_word()  # t t t^-1 t^-1 cancels
    s, t = ST.code("s"), ST.code("t")
    out, back = (-s,) * j, (s,) * j
    return _word(ST, out + (t,) + back + (t,) + out + (-t,) + back + (-t,))


def recover_cardinality(oracle: Callable[[Word], bool], k_max: int) -> int:
    """Read |W| back off a tower oracle known to sit at level <= k_max.

    v_j dies exactly from level j on, so this tests v_1, v_2, ... while each
    dies, up to v_{k_max + 1}, and returns the last index that died; for the
    level-k oracle that is exactly k.  The answer is only meaningful under the
    level bound, which is why the bound is an explicit argument.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    j = 0
    while j <= k_max and oracle(_linear_witness(j + 1)):
        j += 1
    return j
