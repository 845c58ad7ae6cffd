import bisect
import importlib.util
from pathlib import Path

import pytest

from fpw.bs import ST, bs_presentation, BS23
from fpw.words import Alphabet, Word, _word, parse_word


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


# The shortlex table fpw kept before positions were unranked in closed form;
# the oracle of the stateless enumerator in fpw.words.
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
