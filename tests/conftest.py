import bisect
import importlib.util
import itertools
from pathlib import Path

import pytest

from fpw.bs import ST, bs_presentation, BS23
from fpw.presentations import _compositions, _relator_codes
from fpw.words import Alphabet, Word, _inverse, _join, _shortlex_levels, _word, parse_word


@pytest.fixture
def st():
    return ST


@pytest.fixture
def bs23_pres():
    return bs_presentation(BS23)


def w(text, alphabet=ST):
    """Shorthand word constructor used throughout the suite."""
    return parse_word(alphabet, text)


def alpha(*names):
    return Alphabet.of(*names)


# The benchmark's independent checkers: no code shared with fpw, so they judge
# fpw's outputs without repeating its mistakes.
_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def snf_error(a, u, d, v):
    """Why (U, D, V) is not a Smith normal form of ``a``, or None if it is."""
    return reference.snf_error(*([list(row) for row in m.entries] for m in (a, u, d, v)))


# The shortlex table fpw once kept, with random access by position; the
# oracle of the level-by-level enumerator in fpw.words and of the candidate
# maps the searches read off its prefixes.
class ShortlexWords:
    """The reduced words over one alphabet in shortlex order, with random access.

    The letter order is the alphabet's declaration order with each generator
    immediately followed by its inverse.  Words come sorted by length, ties
    broken lexicographically, so the order is reproducible byte for byte.
    Each length is built on first use and kept, so memory grows with the
    longest length visited; every stream or table owns its own instance.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._order = [c for i in range(1, len(alphabet) + 1) for c in (i, -i)]
        self._levels: list[list[Word]] = [[_word(alphabet, ())]]
        # _starts[n]: position of the first word of length n; the last entry
        # is the count of words built
        self._starts = [0, 1]

    def of_length(self, n: int) -> list[Word]:
        """Every reduced word of length ``n``, in shortlex order."""
        while len(self._levels) <= n:
            self._levels.append([
                _word(self.alphabet, w.codes + (c,))
                for w in self._levels[-1]
                for c in self._order
                if not w.codes or c != -w.codes[-1]
            ])
            self._starts.append(self._starts[-1] + len(self._levels[-1]))
        return self._levels[n]

    def __getitem__(self, i: int) -> Word:
        """The word at position ``i`` (from 0) of the shortlex order."""
        while self._starts[-1] <= i:
            self.of_length(len(self._levels))
        n = bisect.bisect_right(self._starts, i) - 1
        return self._levels[n][i - self._starts[n]]


# The raw certificate stream as it was before emissions shared their index and
# sign tuples: every emission builds a fresh sign tuple, and every conjugator
# tuple runs through all index tuples and drops those below the top index.
# The oracle of fpw.presentations._emissions.
def emissions_with_fresh_tuples(pres):
    """The certificate stream, raw: (codes, conjugators, indices, signs) per
    emission, in ``trivial_word_stream``'s order, ``codes`` freely reduced.

    Conjugators and relators are stored reduced, so each factor c r^e c^-1 is
    reduced once, on first use, into a memo that lives as long as this
    stream, and an emission joins its reduced factors at their junctions.
    """
    relators = _relator_codes(pres)
    rels: list[dict[int, tuple[int, ...]]] = []  # rels[i][e] is r_i^e, pulled as the sizes need them
    conjugators = _shortlex_levels(pres.generators)
    # per length: each conjugator with its memo; memo[i][e] is c r_i^e c^-1 reduced
    levels: list[list[tuple[Word, list[dict[int, tuple[int, ...]]]]]] = []
    yield (), (), (), ()
    for size in itertools.count(1):
        rels += ({1: r, -1: _inverse(r)} for r in itertools.islice(relators, size - len(rels)))
        if not rels:  # the source ended before its first relator
            return
        for n in range(1, size + 1):
            rest = size - n
            for max_idx in range(0, min(rest, len(rels) - 1) + 1):
                conj_total = rest - max_idx
                for comp in _compositions(conj_total, n):
                    while len(levels) <= max(comp):
                        levels.append([(c, []) for c in next(conjugators)])
                    for conjs in itertools.product(*(levels[ln] for ln in comp)):
                        for c, memo in conjs:
                            while len(memo) <= max_idx:
                                c_inv, i = _inverse(c.codes), len(memo)
                                memo.append({e: _join(_join(c.codes, rels[i][e]), c_inv) for e in (1, -1)})
                        words = tuple(c for c, _ in conjs)
                        for idxs in itertools.product(range(max_idx + 1), repeat=n):
                            if max(idxs) != max_idx:
                                continue
                            head, *tail = [memo[i] for (_, memo), i in zip(conjs, idxs)]
                            for signs in itertools.product((1, -1), repeat=n):
                                codes = head[signs[0]]
                                for factor, e in zip(tail, signs[1:]):
                                    codes = _join(codes, factor[e])
                                yield codes, words, idxs, signs
