"""Budgeted searches over presented groups.

Semi-decides whether a generator map is a homomorphism, searches for
isomorphisms between finite presentations, and searches for a finite
presentation of a subgroup given by generating words and a word-problem
oracle.  Every search is deterministic: identical inputs and budgets produce
identical results, and enlarging a budget can only turn Exhausted into a
success, never change or lose one.

Budget conventions
------------------
Budgets count elementary checks.  One emission of a presentation's
certificate stream (``trivial_word_stream``) is one unit, and in the subgroup
search each oracle call is one unit.  ``SearchBudget.max_candidates`` caps
how many candidates are examined (map pairs; in the subgroup search, also
candidate relator words), while ``max_stream_steps`` caps the emissions spent
on each side of one candidate's verification.

Candidate map pairs are scanned sequentially in Cantor order, each image
tuple decoded through the Cantor bijection into shortlex word indices, so
every finite pair of maps is eventually tried.  A candidate pair whose
obligations already fail in the abelianization can never verify and is
skipped without consuming stream budget or building a word.  A search pulls
each presentation's certificate stream once and reads every pair off it, and
what pair z finds and costs depends only on z, not on the pairs before it.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .harness import cantor_unpair, cantor_untuple
from .presentations import (
    Exhausted,
    FinitePresentation,
    Presentation,
    TrivialityCertificate,
    _emissions,
    _scan,
    exponent_matrix,
    exponent_vector,
    smith_normal_form,
)
from .words import Alphabet, GeneratorMap, Word, invert, shortlex_stream, substitute

WordOracle = Callable[[Word], bool]
"""A total decision procedure for one group's word problem."""


class SearchBudget(NamedTuple("SearchBudget", [("max_candidates", int), ("max_stream_steps", int)])):
    __slots__ = ()

    def __new__(cls, max_candidates: int, max_stream_steps: int):
        if max_candidates < 0 or max_stream_steps < 0:
            raise ValueError("budgets must be >= 0")
        return tuple.__new__(cls, (max_candidates, max_stream_steps))


class IsoWitness(NamedTuple):
    """A claimed isomorphism: generator maps in both directions."""

    forward: GeneratorMap
    backward: GeneratorMap

    def to_json(self) -> dict:
        return {"forward": self.forward.format(), "backward": self.backward.format()}


class Proved(NamedTuple):
    """Homomorphism obligations discharged; one certificate per relator."""

    certificates: tuple[TrivialityCertificate, ...]
    steps: int


class Found(NamedTuple):
    witness: IsoWitness
    pair_index: int
    steps: int


class SubgroupFound(NamedTuple):
    """P_k, verified isomorphic to the target; W_i -> gens_i maps it onto the
    subgroup, but that map is not checked to be injective."""

    k: int
    presentation: FinitePresentation
    witness: IsoWitness
    steps: int


def _check_map(phi: GeneratorMap, dom: Presentation, cod: Presentation, budget: int) -> None:
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if phi.domain != dom.generators or phi.codomain != cod.generators:
        raise ValueError("map endpoints do not match the presentations")


def semidecide_homomorphism(
    phi: GeneratorMap, dom: FinitePresentation, cod: Presentation, budget: int
) -> Proved | Exhausted:
    """Check that every relator of ``dom`` maps to a trivial word of ``cod``.

    A single enumeration of ``cod``'s certificate stream is matched against
    all relator images at once; the budget caps its emissions.
    """
    _check_map(phi, dom, cod, budget)
    found = _scan(cod, [substitute(r, phi) for r in dom.relators], budget)
    if isinstance(found, Exhausted):
        return found
    certs, steps = found
    return Proved(tuple(certs), steps)


def decide_homomorphism(
    phi: GeneratorMap, dom: FinitePresentation, oracle_cod: WordOracle
) -> bool:
    """Total homomorphism check against a word-problem oracle for the codomain."""
    if phi.domain != dom.generators:
        raise ValueError("map domain does not match the presentation")
    return all(oracle_cod(substitute(r, phi)) for r in dom.relators)


def _round_trips(there: GeneratorMap, back: GeneratorMap) -> list[Word]:
    """back(there(g)) g^-1 for each generator g of ``there``'s domain; all are
    trivial exactly when back . there fixes every generator."""
    gens = there.domain
    return [img * invert(gens.gen_word(g)) for g, img in zip(gens, there.then(back).images)]


def _obligations(there: GeneratorMap, back: GeneratorMap, far: FinitePresentation) -> set[Word]:
    """What must be trivial in ``there``'s domain for the pair (there, back)
    to verify on that side: ``back``'s images of the relators of ``far``,
    the presentation across, and the round trips back(there(g)) g^-1."""
    return {substitute(r, back) for r in far.relators}.union(_round_trips(there, back))


class _Side:
    """One presentation as one search sees it.  Its raw certificate stream is
    pulled lazily, at most ``cap`` emissions deep, and ``first`` maps the
    codes of each distinct word of that prefix to its first emission position
    (from 1); every candidate pair of the search reads the same prefix.
    Candidate map ``a`` into this side decodes through the Cantor tuple
    bijection to shortlex positions, read off ``words``, the prefix of
    ``shortlex_stream`` pulled only as far as the largest position decoded;
    each map is memoised with its exponent vectors, since the Cantor order
    revisits it.
    The exponent matrix is built once: its rows are ``relator_vectors``, and
    its Smith form gives the abelian filter ``passes``."""

    def __init__(self, pres: FinitePresentation, cap: int):
        self.pres = pres
        matrix = exponent_matrix(pres)
        self.relator_vectors = matrix.entries
        _, d, v = smith_normal_form(matrix)
        diag = d.diagonal()
        self._columns = [(col, diag[j] if j < len(diag) else 0) for j, col in enumerate(zip(*v.entries))]
        self.cap = cap
        self.first: dict[tuple[int, ...], int] = {}
        self.pulled = 0
        self.ended = False
        self._stream = _emissions(pres)
        self.words: list[Word] = []
        self._word_source = shortlex_stream(pres.generators)
        self._maps: dict[tuple[Alphabet, int], tuple[GeneratorMap, list[tuple[int, ...]]]] = {}

    def passes(self, far: _Side, m_there: list[tuple[int, ...]], m_back: list[tuple[int, ...]]) -> bool:
        """Whether every obligation of this side for a pair (there, back) can
        be trivial, read off exponent vectors with no word built: a word
        trivial in the group has its exponent vector in the integer row span
        of the relator matrix.  Row h of ``m_there``/``m_back`` is the exponent
        vector of that map's image of generator h; substitute(r, back) for a
        relator r of ``far`` has vector e(r) m_back, the round trip of
        generator g has m_there[g] m_back - e_g, and ``vec V`` must be
        entrywise a multiple of the Smith diagonal."""
        cols = list(zip(*m_back))
        for i, row in enumerate([*m_there, *far.relator_vectors]):
            vec = [sum(map(operator.mul, row, col)) for col in cols]
            if i < len(m_there):
                vec[i] -= 1
            for col, d in self._columns:
                val = sum(map(operator.mul, vec, col))
                if val % d if d else val:
                    return False
        return True

    def map_from(self, domain: Alphabet, a: int) -> tuple[GeneratorMap, list[tuple[int, ...]]]:
        """Candidate map ``a`` from ``domain`` into this side's words, with the
        exponent vector of each image, decoded once for the life of the side."""
        hit = self._maps.get((domain, a))
        if hit is None:
            idx = cantor_untuple(a, len(domain))
            while len(self.words) <= max(idx):
                self.words.append(next(self._word_source))
            phi = GeneratorMap(domain, self.pres.generators, tuple(self.words[i] for i in idx))
            hit = self._maps[domain, a] = (phi, [exponent_vector(phi.codomain, img) for img in phi.images])
        return hit

    @property
    def full(self) -> bool:
        return self.ended or self.pulled == self.cap

    def pull(self) -> tuple[int, ...] | None:
        """Pull one more emission and return its codes, or None at the stream's end."""
        codes = next(self._stream, (None,))[0]
        self.ended = codes is None
        if codes is not None:
            self.pulled += 1
            self.first.setdefault(codes, self.pulled)
        return codes


def _attempt(left: _Side, right: _Side, z: int) -> tuple[IsoWitness | None, int]:
    """Verify candidate pair z between two sides; returns (witness or None,
    emissions used).

    Pair z decodes as (a, b) = cantor_unpair(z); map a runs left -> right,
    map b right -> left.  A pair verifies when both homomorphism obligations
    and both generator-wise composition identities are proved trivial, each
    side from its own certificate stream capped at ``cap`` emissions.

    A pair costs what fresh streams pulled in lockstep, one emission per side
    per round, would spend, read off the shared prefixes: a side whose
    obligations all appear by position ``need`` <= cap spends ``need``; a side
    that cannot meet them fails at round cap, or at its stream length + 1 if
    the stream is shorter; and every side spends at most the earliest failure
    round.  No side is pulled past a round where the other is known to fail,
    and the result depends only on z, not on how deep earlier pairs pulled.
    """
    a, b = cantor_unpair(z)
    phi, m_phi = right.map_from(left.pres.generators, a)
    psi, m_psi = left.map_from(right.pres.generators, b)
    if not (left.passes(right, m_phi, m_psi) and right.passes(left, m_psi, m_phi)):
        return None, 0
    obligations = (_obligations(phi, psi, right.pres), _obligations(psi, phi, left.pres))
    targets = [{t.codes for t in ts} for ts in obligations]
    # per side: the side, its obligations, those not in its prefix yet
    state = [(s, ts, {t for t in ts if t not in s.first}) for s, ts in zip((left, right), targets)]
    while True:  # a full side still missing a word fails at its cap, or at its length + 1 if it ended
        fail = min((s.pulled + s.ended for s, _, missing in state if missing and s.full), default=None)
        growing = [
            (s, missing) for s, _, missing in state
            if missing and not s.full and (fail is None or s.pulled < fail)
        ]
        if not growing:
            break
        s, missing = min(growing, key=lambda g: g[0].pulled)
        missing.discard(s.pull())
    spent = [s.pulled if missing else max(map(s.first.get, ts), default=0) for s, ts, missing in state]
    if fail is None:
        return IsoWitness(forward=phi, backward=psi), sum(spent)
    return None, sum(min(x, fail) for x in spent)


def iso_search(
    left: FinitePresentation, right: FinitePresentation, budget: SearchBudget
) -> Found | Exhausted:
    """Search for an isomorphism witness between two finite presentations.

    Scans candidate map pairs in Cantor order, at most ``max_candidates`` of
    them, giving each side of each pair up to ``max_stream_steps`` certificate
    emissions.  Found results are fully verified and stable: re-running with
    the same budget reproduces the same witness, and a larger
    ``max_candidates`` cannot change a witness that was already found.
    """
    cap = budget.max_stream_steps
    sides = (_Side(left, cap), _Side(right, cap))
    units = 0
    for z in range(budget.max_candidates):
        witness, used = _attempt(*sides, z)
        units += used
        if witness is not None:
            return Found(witness, pair_index=z, steps=units)
    return Exhausted(units)


def verify_iso_witness(
    left: FinitePresentation, right: FinitePresentation, witness: IsoWitness, budget: int
) -> bool:
    """Re-verify a witness from scratch: both homomorphism checks and the
    four-way composition identities, each within ``budget`` emissions.  Each
    side's obligations are read off one scan of its certificate stream."""
    phi, psi = witness.forward, witness.backward
    _check_map(phi, left, right, budget)
    _check_map(psi, right, left, budget)
    sides = ((right, _obligations(psi, phi, left)), (left, _obligations(phi, psi, right)))
    return not any(isinstance(_scan(pres, targets, budget), Exhausted) for pres, targets in sides)


def subgroup_presentation_search(
    parent: FinitePresentation,
    oracle_parent: WordOracle,
    gens: Sequence[Word],
    target: FinitePresentation,
    budget: SearchBudget,
) -> SubgroupFound | Exhausted:
    """Search for a finite presentation of the subgroup generated by ``gens``.

    Enumerates candidate relator words c over fresh symbols W1..Wn (shortlex,
    skipping the empty word), keeping those whose substitution into ``gens``
    the parent oracle calls trivial.  Candidate presentations P_k collect the
    first k accepted words; for each P_k an isomorphism search against
    ``target`` runs as in ``iso_search``.  Scheduling is round-robin: each
    cycle examines one new candidate word, then lets every live P_k attempt
    one map pair.  Both the oracle tests and the pair attempts count against
    ``max_candidates``; emissions count against per-side stream caps as in
    ``iso_search``.  Found returns the first fully verified (k, witness).

    Found certifies P_k onto H and P_k isomorphic to ``target``, not P_k
    isomorphic to H: injectivity is never checked, and by the paper's main
    result no search could check it in general.  For the trivial subgroup,
    ``fpw subgrp-presentation --gens '' -q '< x | >'`` reports k = 0 and
    ``< W1 | >``.
    """
    if not gens:
        raise ValueError("need at least one subgroup generator word")
    for g in gens:
        if g.alphabet != parent.generators:
            raise ValueError("subgroup generator is not a word over the parent's generators")
    fresh = Alphabet.of(*(f"W{i + 1}" for i in range(len(gens))))
    to_parent = GeneratorMap(fresh, parent.generators, tuple(gens))
    c_source = shortlex_stream(fresh)
    next(c_source)  # the empty word presents nothing
    accepted: list[Word] = []
    cap = budget.max_stream_steps
    target_side = _Side(target, cap)  # one prefix and one abelian filter for every P_k
    live = {_Side(FinitePresentation(fresh, ()), cap): 0}  # each P_k's side -> the index of its next pair
    candidates = 0
    units = 0
    while candidates < budget.max_candidates:
        c = next(c_source)
        candidates += 1
        units += 1
        if oracle_parent(substitute(c, to_parent)):
            accepted.append(c)
            live[_Side(FinitePresentation(fresh, tuple(accepted)), cap)] = 0
        for side, z in live.items():
            if candidates >= budget.max_candidates:
                break
            candidates += 1
            live[side] = z + 1
            witness, used = _attempt(target_side, side, z)
            units += used
            if witness is not None:
                return SubgroupFound(len(side.pres.relators), side.pres, witness, steps=units)
    return Exhausted(units)

