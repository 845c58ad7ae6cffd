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
skipped without consuming stream budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from .harness import cantor_unpair, cantor_untuple
from .presentations import (
    Exhausted,
    FinitePresentation,
    Presentation,
    TrivialityCertificate,
    exponent_matrix,
    exponent_vector,
    semidecide_trivial,
    smith_normal_form,
    trivial_word_stream,
    ProvedTrivial,
)
from .words import Alphabet, GeneratorMap, ShortlexWords, Word, invert, shortlex_stream, substitute

WordOracle = Callable[[Word], bool]
"""A total decision procedure for one group's word problem."""


@dataclass(frozen=True)
class SearchBudget:
    max_candidates: int
    max_stream_steps: int

    def __post_init__(self):
        if self.max_candidates < 0 or self.max_stream_steps < 0:
            raise ValueError("budgets must be >= 0")


@dataclass(frozen=True)
class IsoWitness:
    """A claimed isomorphism: generator maps in both directions."""

    forward: GeneratorMap
    backward: GeneratorMap

    def to_json(self) -> dict:
        return {"forward": self.forward.format(), "backward": self.backward.format()}


@dataclass(frozen=True)
class Proved:
    """Homomorphism obligations discharged; one certificate per relator."""

    certificates: tuple[TrivialityCertificate, ...]
    steps: int


@dataclass(frozen=True)
class Found:
    witness: IsoWitness
    pair_index: int
    steps: int


@dataclass(frozen=True)
class SubgroupFound:
    k: int
    presentation: FinitePresentation
    witness: IsoWitness
    steps: int


def semidecide_homomorphism(
    phi: GeneratorMap, dom: FinitePresentation, cod: Presentation, budget: int
) -> Proved | Exhausted:
    """Check that every relator of ``dom`` maps to a trivial word of ``cod``.

    A single enumeration of ``cod``'s certificate stream is matched against
    all relator images at once; the budget caps its emissions.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if phi.domain != dom.generators or phi.codomain != cod.generators:
        raise ValueError("map endpoints do not match the presentations")
    targets = [substitute(r, phi) for r in dom.relators]
    certs: list[TrivialityCertificate | None] = [None] * len(targets)
    pending: dict[Word, list[int]] = {}
    for pos, t in enumerate(targets):
        pending.setdefault(t, []).append(pos)
    if not pending:
        return Proved((), 0)
    steps = 0
    for w, cert in itertools.islice(trivial_word_stream(cod), budget):
        steps += 1
        if w in pending:
            for pos in pending.pop(w):
                certs[pos] = cert
            if not pending:
                return Proved(tuple(certs), steps)  # type: ignore[arg-type]
    return Exhausted(steps)


def decide_homomorphism(
    phi: GeneratorMap, dom: FinitePresentation, oracle_cod: WordOracle
) -> bool:
    """Total homomorphism check against a word-problem oracle for the codomain."""
    if phi.domain != dom.generators:
        raise ValueError("map domain does not match the presentation")
    return all(oracle_cod(substitute(r, phi)) for r in dom.relators)


def _map_at(domain: Alphabet, codomain_words: ShortlexWords, a: int) -> GeneratorMap:
    """Candidate map a: a decodes through the Cantor tuple bijection to one
    shortlex word index per domain generator."""
    idx = cantor_untuple(a, len(domain))
    return GeneratorMap(domain, codomain_words.alphabet, tuple(codomain_words[i] for i in idx))


class _AbelianTester:
    """Necessary-condition filter: a word trivial in the group must have its
    exponent vector in the integer row span of the relator matrix."""

    def __init__(self, pres: FinitePresentation):
        self.generators = pres.generators
        _, d, v = smith_normal_form(exponent_matrix(pres))
        self._v = v
        self._diag = d.diagonal()

    def trivial_possible(self, w: Word) -> bool:
        vec = exponent_vector(self.generators, w)
        g = len(vec)
        for j in range(g):
            val = sum(vec[i] * self._v.entries[i][j] for i in range(g))
            d = self._diag[j] if j < len(self._diag) else 0
            if d == 0:
                if val != 0:
                    return False
            elif val % d != 0:
                return False
        return True


def _round_trips(there: GeneratorMap, back: GeneratorMap) -> list[Word]:
    """back(there(g)) g^-1 for each generator g of ``there``'s domain; all are
    trivial exactly when back . there fixes every generator."""
    gens = there.domain
    return [img * invert(gens.gen_word(g.name)) for g, img in zip(gens.generators, there.then(back).images)]


class _SideState:
    def __init__(self, pres: FinitePresentation, targets: set[Word]):
        self.pending = set(targets)
        self.stream = trivial_word_stream(pres) if self.pending else None
        self.steps = 0
        self.live = self.stream is not None


class _PairScanner:
    """Sequentially verifies candidate map pairs between two presentations.

    Pair z decodes as (a, b) = cantor_unpair(z); map a runs left -> right,
    map b right -> left.  A pair verifies when both homomorphism obligations
    and both generator-wise composition identities are proved trivial, each
    side from its own certificate stream capped at ``per_side`` emissions.
    """

    def __init__(self, left: FinitePresentation, right: FinitePresentation, per_side: int):
        self.left = left
        self.right = right
        self.per_side = per_side
        self.left_words = ShortlexWords(left.generators)
        self.right_words = ShortlexWords(right.generators)
        self.ab_left = _AbelianTester(left)
        self.ab_right = _AbelianTester(right)
        self.next_pair = 0

    def attempt_next(self) -> tuple[IsoWitness | None, int]:
        """Verify the next pair; returns (witness or None, emissions used)."""
        a, b = cantor_unpair(self.next_pair)
        self.next_pair += 1
        phi = _map_at(self.left.generators, self.right_words, a)
        psi = _map_at(self.right.generators, self.left_words, b)

        left_targets = {substitute(rel, psi) for rel in self.right.relators}
        left_targets.update(_round_trips(phi, psi))
        right_targets = {substitute(rel, phi) for rel in self.left.relators}
        right_targets.update(_round_trips(psi, phi))

        if not all(self.ab_left.trivial_possible(w) for w in left_targets):
            return None, 0
        if not all(self.ab_right.trivial_possible(w) for w in right_targets):
            return None, 0

        sides = (
            _SideState(self.left, left_targets),
            _SideState(self.right, right_targets),
        )
        used = 0
        while True:
            if all(not s.pending for s in sides):
                return IsoWitness(forward=phi, backward=psi), used
            if any(s.pending and (s.steps >= self.per_side or not s.live) for s in sides):
                return None, used
            for s in sides:
                if not s.pending or s.steps >= self.per_side or not s.live:
                    continue
                try:
                    w, _ = next(s.stream)
                except StopIteration:
                    s.live = False
                    continue
                s.steps += 1
                used += 1
                s.pending.discard(w)


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
    scanner = _PairScanner(left, right, budget.max_stream_steps)
    units = 0
    for z in range(budget.max_candidates):
        witness, used = scanner.attempt_next()
        units += used
        if witness is not None:
            return Found(witness, pair_index=z, steps=units)
    return Exhausted(units)


def verify_iso_witness(
    left: FinitePresentation, right: FinitePresentation, witness: IsoWitness, budget: int
) -> bool:
    """Re-verify a witness from scratch: both homomorphism checks and the
    four-way composition identities, each within ``budget`` emissions."""
    if not isinstance(semidecide_homomorphism(witness.forward, left, right, budget), Proved):
        return False
    if not isinstance(semidecide_homomorphism(witness.backward, right, left, budget), Proved):
        return False
    trips = [(left, w) for w in _round_trips(witness.forward, witness.backward)]
    trips += [(right, w) for w in _round_trips(witness.backward, witness.forward)]
    return all(isinstance(semidecide_trivial(p, w, budget), ProvedTrivial) for p, w in trips)


@dataclass
class _SubTask:
    k: int
    presentation: FinitePresentation
    scanner: _PairScanner


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
    p0 = FinitePresentation(fresh, ())
    tasks = [_SubTask(0, p0, _PairScanner(target, p0, budget.max_stream_steps))]
    candidates = 0
    units = 0
    while candidates < budget.max_candidates:
        c = next(c_source)
        candidates += 1
        units += 1
        if oracle_parent(substitute(c, to_parent)):
            accepted.append(c)
            pk = FinitePresentation(fresh, tuple(accepted))
            tasks.append(_SubTask(len(accepted), pk, _PairScanner(target, pk, budget.max_stream_steps)))
        for task in tasks:
            if candidates >= budget.max_candidates:
                break
            candidates += 1
            witness, used = task.scanner.attempt_next()
            units += used
            if witness is not None:
                return SubgroupFound(task.k, task.presentation, witness, steps=units)
    return Exhausted(units)


@dataclass(frozen=True)
class LiftReport:
    """The generator map W_i -> gens[i] together with what was verified.

    Only the homomorphism direction is checked; nothing here certifies
    injectivity, and ``injectivity_certified`` records that honestly.
    """

    mapping: GeneratorMap
    homomorphism_verified: bool
    injectivity_certified: bool


def hopfian_lift(
    gens: Sequence[Word], pres_k: FinitePresentation, oracle_parent: WordOracle
) -> LiftReport:
    """Map a found subgroup presentation onto the subgroup generators."""
    if len(gens) != len(pres_k.generators.generators):
        raise ValueError(
            f"arity mismatch: {len(gens)} generator words for "
            f"{len(pres_k.generators.generators)} presentation generators"
        )
    alphabets = {g.alphabet for g in gens}
    if len(alphabets) != 1:
        raise ValueError("subgroup generator words must share one alphabet")
    mapping = GeneratorMap(pres_k.generators, alphabets.pop(), tuple(gens))
    verified = all(oracle_parent(substitute(r, mapping)) for r in pres_k.relators)
    return LiftReport(mapping, verified, injectivity_certified=False)
