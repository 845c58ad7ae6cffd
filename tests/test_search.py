import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st_

import fpw.search
from fpw.bs import BS23, ST, bs_is_trivial, bs_presentation, doubling_map
from fpw.harness import cantor_pair, cantor_tuple, cantor_unpair, cantor_untuple
from fpw.presentations import (
    Exhausted,
    FinitePresentation,
    certificate_word,
    exponent_matrix,
    exponent_vector,
    parse_presentation,
    smith_normal_form,
    trivial_word_stream,
    _emissions,
)
from fpw.search import (
    Found,
    IsoWitness,
    Proved,
    SearchBudget,
    SubgroupFound,
    decide_homomorphism,
    iso_search,
    semidecide_homomorphism,
    subgroup_presentation_search,
    verify_iso_witness,
    _attempt,
    _map_at,
    _round_trips,
    _Side,
)
from fpw.words import Alphabet, GeneratorMap, parse_word, shortlex_word, substitute

from conftest import ShortlexWords, w

X = Alphabet.of("x")
Z2 = parse_presentation("< x | x^2 >")
Z_FREE = parse_presentation("< a | >")


def bs_oracle(word):
    return bs_is_trivial(BS23, word)


def parity_oracle(word):
    return exponent_vector(X, word)[0] % 2 == 0


# ---------------------------------------------------------------- budgets


def test_search_budget_validation():
    SearchBudget(0, 0)
    with pytest.raises(ValueError):
        SearchBudget(-1, 10)
    with pytest.raises(ValueError):
        SearchBudget(10, -1)


# ---------------------------------------------------------------- homomorphism checks


def test_semidecide_doubling_map_is_a_homomorphism():
    pres = bs_presentation(BS23)
    outcome = semidecide_homomorphism(doubling_map(), pres, pres, 20000)
    assert isinstance(outcome, Proved)
    assert outcome.steps == 744  # pinned: where the stream proves the image
    assert len(outcome.certificates) == 1
    image = substitute(pres.relators[0], doubling_map())
    assert certificate_word(pres, outcome.certificates[0]) == image


def test_semidecide_identity_map():
    phi = GeneratorMap.identity(Z2.generators)
    outcome = semidecide_homomorphism(phi, Z2, Z2, 100)
    assert isinstance(outcome, Proved)


def test_semidecide_non_homomorphism_exhausts():
    z3 = parse_presentation("< y | y^3 >")
    phi = GeneratorMap.parse(Z2.generators, z3.generators, "x=y")
    for budget in [0, 1, 50, 400]:
        outcome = semidecide_homomorphism(phi, Z2, z3, budget)
        assert isinstance(outcome, Exhausted) and outcome == Exhausted(budget)


def test_semidecide_relator_free_domain_is_immediate():
    phi = GeneratorMap.parse(Z_FREE.generators, Z2.generators, "a=x")
    outcome = semidecide_homomorphism(phi, Z_FREE, Z2, 0)
    assert isinstance(outcome, Proved) and outcome == Proved((), 0)


def test_semidecide_endpoint_mismatch():
    phi = GeneratorMap.identity(Z2.generators)
    with pytest.raises(ValueError):
        semidecide_homomorphism(phi, Z_FREE, Z2, 10)
    with pytest.raises(ValueError):
        semidecide_homomorphism(phi, Z2, Z_FREE, 10)


def test_decide_homomorphism_examples():
    pres = bs_presentation(BS23)
    assert decide_homomorphism(doubling_map(), pres, bs_oracle)
    # x -> s is not a homomorphism out of Z2: s^2 is nontrivial
    into_bs = GeneratorMap.parse(X, pres.generators, "x=s")
    assert not decide_homomorphism(into_bs, Z2, bs_oracle)
    assert decide_homomorphism(GeneratorMap.identity(X), Z2, parity_oracle)


def test_decide_homomorphism_domain_mismatch():
    with pytest.raises(ValueError):
        decide_homomorphism(GeneratorMap.identity(X), Z_FREE, parity_oracle)


# ---------------------------------------------------------------- iso search


def test_iso_search_finds_the_obvious_isomorphism():
    y2 = parse_presentation("< y | y^2 >")
    outcome = iso_search(Z2, y2, SearchBudget(200, 100))
    assert isinstance(outcome, Found)
    assert outcome.pair_index == 4  # Cantor pair (1, 1): generator to generator
    assert outcome.witness.forward.format() == "x=y"
    assert outcome.witness.backward.format() == "y=x"
    assert verify_iso_witness(Z2, y2, outcome.witness, 200)


def test_iso_search_handles_inverted_relator():
    y2i = parse_presentation("< y | y^-2 >")
    outcome = iso_search(Z2, y2i, SearchBudget(200, 100))
    assert isinstance(outcome, Found)
    assert verify_iso_witness(Z2, y2i, outcome.witness, 200)


def test_iso_search_free_rank_one():
    zb = parse_presentation("< b | >")
    outcome = iso_search(Z_FREE, zb, SearchBudget(200, 100))
    assert isinstance(outcome, Found)
    assert outcome.pair_index == 4


def test_iso_search_rejects_groups_with_different_abelianizations():
    # Z2 vs Z3 and Z vs Z2: every candidate pair is excluded arithmetically,
    # so the scan spends no stream emissions at all
    z3 = parse_presentation("< y | y^3 >")
    outcome = iso_search(Z2, z3, SearchBudget(500, 100))
    assert isinstance(outcome, Exhausted) and outcome == Exhausted(0)
    outcome = iso_search(Z_FREE, Z2, SearchBudget(500, 100))
    assert isinstance(outcome, Exhausted) and outcome == Exhausted(0)


def test_iso_search_zero_budget():
    outcome = iso_search(Z2, Z2, SearchBudget(0, 100))
    assert isinstance(outcome, Exhausted) and outcome == Exhausted(0)


def test_iso_search_is_deterministic():
    y2 = parse_presentation("< y | y^2 >")
    a = iso_search(Z2, y2, SearchBudget(200, 100))
    b = iso_search(Z2, y2, SearchBudget(200, 100))
    assert a == b


def test_iso_search_found_is_stable_under_larger_budgets():
    y2 = parse_presentation("< y | y^2 >")
    small = iso_search(Z2, y2, SearchBudget(50, 100))
    large = iso_search(Z2, y2, SearchBudget(5000, 400))
    assert isinstance(small, Found) and isinstance(large, Found)
    assert small.witness == large.witness
    assert small.pair_index == large.pair_index


def test_verify_iso_witness_rejects_one_sided_maps():
    # x -> y^2 and y -> x are homomorphisms but not mutually inverse
    y2 = parse_presentation("< y | y^2 >")
    witness = IsoWitness(
        GeneratorMap.parse(Z2.generators, y2.generators, "x=y^2"),
        GeneratorMap.parse(y2.generators, Z2.generators, "y=x"),
    )
    assert not verify_iso_witness(Z2, y2, witness, 300)


def test_verify_iso_witness_rejects_non_homomorphism():
    z3 = parse_presentation("< y | y^3 >")
    witness = IsoWitness(
        GeneratorMap.parse(Z2.generators, z3.generators, "x=y"),
        GeneratorMap.parse(z3.generators, Z2.generators, "y=x"),
    )
    assert not verify_iso_witness(Z2, z3, witness, 300)


# ---------------------------------------------------------------- subgroup presentations


def test_subgroup_search_cyclic_subgroup_of_bs():
    pres = bs_presentation(BS23)
    outcome = subgroup_presentation_search(
        pres, bs_oracle, [w("t")], Z_FREE, SearchBudget(400, 60)
    )
    assert isinstance(outcome, SubgroupFound)
    assert outcome.k == 0
    assert outcome.presentation.relators == ()
    assert outcome.steps == 7  # pinned unit count for this budget shape
    assert verify_iso_witness(Z_FREE, outcome.presentation, outcome.witness, 100)


def test_subgroup_search_whole_group():
    outcome = subgroup_presentation_search(
        Z2, parity_oracle, [parse_word(X, "x")], parse_presentation("< a | a^2 >"),
        SearchBudget(600, 200),
    )
    assert isinstance(outcome, SubgroupFound)
    assert outcome.k == 1
    assert outcome.presentation.format() == "< W1 | W1^2 >"
    assert outcome.witness.forward.format() == "a=W1"
    assert outcome.witness.backward.format() == "W1=a"


def test_subgroup_search_accepted_relators_are_sound():
    outcome = subgroup_presentation_search(
        Z2, parity_oracle, [parse_word(X, "x")], parse_presentation("< a | a^2 >"),
        SearchBudget(600, 200),
    )
    to_parent = GeneratorMap(
        outcome.presentation.generators, X, (parse_word(X, "x"),)
    )
    for rel in outcome.presentation.relators:
        assert parity_oracle(substitute(rel, to_parent))


def test_subgroup_search_mismatched_target_exhausts():
    # <x> inside the free group Z is Z itself, never Z2
    zfree = parse_presentation("< x | >")
    outcome = subgroup_presentation_search(
        zfree, lambda v: v.is_identity, [parse_word(X, "x")],
        parse_presentation("< a | a^2 >"), SearchBudget(300, 60),
    )
    assert isinstance(outcome, Exhausted)


def test_subgroup_search_fresh_alphabet_arity():
    pres = bs_presentation(BS23)
    outcome = subgroup_presentation_search(
        pres, bs_oracle, [w("t"), w("s^-1 t s")],
        parse_presentation("< a, b | >"), SearchBudget(30, 20),
    )
    # found or not, the candidate alphabet has one symbol per generator word
    if isinstance(outcome, SubgroupFound):
        assert outcome.presentation.generators.names() == ("W1", "W2")


def test_subgroup_search_validation():
    pres = bs_presentation(BS23)
    with pytest.raises(ValueError):
        subgroup_presentation_search(pres, bs_oracle, [], Z_FREE, SearchBudget(10, 10))
    with pytest.raises(ValueError):
        subgroup_presentation_search(
            pres, bs_oracle, [parse_word(X, "x")], Z_FREE, SearchBudget(10, 10)
        )


def test_subgroup_search_determinism():
    pres = bs_presentation(BS23)
    a = subgroup_presentation_search(pres, bs_oracle, [w("t")], Z_FREE, SearchBudget(400, 60))
    b = subgroup_presentation_search(pres, bs_oracle, [w("t")], Z_FREE, SearchBudget(400, 60))
    assert a == b


@pytest.mark.parametrize("max_candidates, pairs", [(2, 1), (3, 2)])
def test_subgroup_search_attempts_no_pair_past_the_candidate_budget(monkeypatch, max_candidates, pairs):
    # W1 -> the empty word is accepted at once, so the first cycle has P_0 and P_1
    # live; the candidate word and the pair attempts share max_candidates, and a
    # budget spent mid-cycle stops before the next pair
    attempted = []
    attempt = fpw.search._attempt

    def counting(left, right, z):
        attempted.append((len(right.pres.relators), z))
        return attempt(left, right, z)

    monkeypatch.setattr(fpw.search, "_attempt", counting)
    outcome = subgroup_presentation_search(
        bs_presentation(BS23), bs_oracle, [w("")], parse_presentation("< x | >"), SearchBudget(max_candidates, 10)
    )
    assert outcome == Exhausted(steps=1)
    assert attempted == [(0, 0), (1, 0)][:pairs]


# ---------------------------------------------------------------- scanner oracle
#
# The scanner as it was before it read candidate pairs off shared stream
# prefixes: every pair opens fresh certificate streams on both sides and pulls
# them in lockstep, and the abelian filter runs on built target words.  It is
# the reference for the closed-form scanner in fpw.search.


class _OracleAbelianTester:
    def __init__(self, pres):
        self.generators = pres.generators
        _, d, v = smith_normal_form(exponent_matrix(pres))
        self._v = v
        self._diag = d.diagonal()

    def trivial_possible(self, w):
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


class _OracleSideState:
    def __init__(self, pres, targets):
        self.pending = set(targets)
        self.stream = trivial_word_stream(pres) if self.pending else None
        self.steps = 0
        self.live = self.stream is not None


class _OraclePairScanner:
    def __init__(self, left, right, per_side):
        self.left = left
        self.right = right
        self.per_side = per_side
        self.left_words = ShortlexWords(left.generators)
        self.right_words = ShortlexWords(right.generators)
        self.ab_left = _OracleAbelianTester(left)
        self.ab_right = _OracleAbelianTester(right)
        self.next_pair = 0

    @staticmethod
    def decode(domain, codomain_words, a):
        """Candidate map a, its images read off the shortlex table."""
        idx = cantor_untuple(a, len(domain))
        return GeneratorMap(domain, codomain_words.alphabet, tuple(codomain_words[i] for i in idx))

    def targets(self, phi, psi):
        left_targets = {substitute(rel, psi) for rel in self.right.relators}
        left_targets.update(_round_trips(phi, psi))
        right_targets = {substitute(rel, phi) for rel in self.left.relators}
        right_targets.update(_round_trips(psi, phi))
        return left_targets, right_targets

    def abelian_ok(self, phi, psi):
        left_targets, right_targets = self.targets(phi, psi)
        return all(self.ab_left.trivial_possible(w) for w in left_targets) and all(
            self.ab_right.trivial_possible(w) for w in right_targets
        )

    def attempt_next(self):
        a, b = cantor_unpair(self.next_pair)
        self.next_pair += 1
        phi = self.decode(self.left.generators, self.right_words, a)
        psi = self.decode(self.right.generators, self.left_words, b)
        if not self.abelian_ok(phi, psi):
            return None, 0
        left_targets, right_targets = self.targets(phi, psi)
        sides = (
            _OracleSideState(self.left, left_targets),
            _OracleSideState(self.right, right_targets),
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


# < x | > has a finite certificate stream (the empty word only), so a side
# over it fails at its stream length + 1 rather than at the cap
SCANNER_CASES = [
    parse_presentation(text)
    for text in (
        "< x | >",
        "< x | x^2 >",
        "< y | y^-2 >",
        "< x | x^3 >",
        "< x | x^2, x^4 >",
        "< a, b | >",
        "< a, b | a b a^-1 b^-1 >",
        "< a, b | a^2, b >",
        "< a, b | a^3, a b a^-1 b^-1 >",
        "< s, t | s^-1 t^2 s t^-3 >",
        "< u, v | u^2, v^2, u v u v >",
    )
]


# the orders in which the oracle test tries pairs 0..59 on fresh sides
Z_ORDERS = (range(60), range(59, -1, -1), random.Random(22).sample(range(60), 60))


@pytest.mark.parametrize("per_side", [0, 1, 3, 20, 60])
def test_pair_scanner_matches_the_lockstep_oracle(per_side):
    # every ordered pair of presentations, the first 60 candidate pairs each,
    # tried on fresh sides in order, reversed and shuffled: the same witness
    # maps and the same emission count as the in-order oracle on every pair
    for left in SCANNER_CASES:
        for right in SCANNER_CASES:
            oracle = _OraclePairScanner(left, right, per_side)
            expected = [oracle.attempt_next() for _ in range(60)]
            for order in Z_ORDERS:
                sides = (_Side(left, per_side), _Side(right, per_side))
                for z in order:
                    assert _attempt(*sides, z) == expected[z], (left.format(), right.format(), per_side, z)


def _pair_index(left, right, phi_text, psi_text):
    """The candidate pair index z at which pairs from ``left`` to ``right``
    decode as the given maps."""
    def index(alphabet, image):
        return next(i for i in itertools.count() if shortlex_word(alphabet, i) == image)

    phi = GeneratorMap.parse(left.generators, right.generators, phi_text)
    psi = GeneratorMap.parse(right.generators, left.generators, psi_text)
    a = cantor_tuple(tuple(index(right.generators, img) for img in phi.images))
    b = cantor_tuple(tuple(index(left.generators, img) for img in psi.images))
    return cantor_pair(a, b)


FREE2 = parse_presentation("< a, b | >")
ZZ = parse_presentation("< a, b | a b a^-1 b^-1 >")


@pytest.mark.parametrize(
    "left,right,phi_text,psi_text,pulled",
    [
        # the Z^2 side needs the relator, at position 2 ...
        (FREE2, ZZ, "a=a,b=b", "a=a,b=a b a^-1", (1, 2)),
        # ... or its inverse, at position 3, of which it may spend only 2
        (FREE2, ZZ, "a=a,b=b", "a=b a b^-1,b=b", (1, 2)),
        # a round trip far down the Z^2 stream: that side is pulled to 2, not to the cap
        (ZZ, FREE2, "a=a,b=a^3 b a^-3", "a=a,b=b", (2, 1)),
    ],
)
def test_pair_scanner_when_a_finite_stream_fails_first(left, right, phi_text, psi_text, pulled):
    # < a, b | > emits only the empty word, so its side fails at round 2, and
    # the other side spends at most 2 emissions however deep its prefix is
    oracle = _OraclePairScanner(left, right, 60)
    fresh, warm = (_Side(left, 60), _Side(right, 60)), (_Side(left, 60), _Side(right, 60))
    for side in warm:  # as if earlier pairs had pulled deeper
        for _ in range(10):
            side.pull()
    z = oracle.next_pair = _pair_index(left, right, phi_text, psi_text)
    expected = oracle.attempt_next()
    assert expected == (None, 3)
    assert _attempt(*fresh, z) == expected
    assert _attempt(*warm, z) == expected
    assert (fresh[0].pulled, fresh[1].pulled) == pulled


@settings(max_examples=200, deadline=None)
@given(
    st_.sampled_from(SCANNER_CASES),
    st_.sampled_from(SCANNER_CASES),
    st_.integers(0, 400),
    st_.integers(0, 400),
)
def test_exponent_vector_filter_matches_the_word_filter(left, right, a, b):
    oracle = _OraclePairScanner(left, right, 0)
    ls, rs = _Side(left, 0), _Side(right, 0)
    phi = _map_at(left.generators, right.generators, a)
    psi = _map_at(right.generators, left.generators, b)
    m_phi = [exponent_vector(right.generators, img) for img in phi.images]
    m_psi = [exponent_vector(left.generators, img) for img in psi.images]
    by_vectors = ls.passes(rs, m_phi, m_psi) and rs.passes(ls, m_psi, m_phi)
    assert by_vectors == oracle.abelian_ok(phi, psi)


def test_a_side_builds_its_exponent_matrix_once(monkeypatch):
    calls = {"exponent_matrix": 0, "smith_normal_form": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(fpw.search, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(fpw.search, name, counting)
    _Side(parse_presentation("< a, b | a^3, a b a^-1 b^-1 >"), 10)
    assert calls == {"exponent_matrix": 1, "smith_normal_form": 1}


def _count_streams(monkeypatch):
    """Wrap the raw certificate stream the search module opens; return, per
    opened stream, its presentation and a one-element list counting its
    emissions."""
    opened = []

    def counting(pres):
        pulled = [0]
        opened.append((pres, pulled))

        def emissions():
            for item in _emissions(pres):
                pulled[0] += 1
                yield item

        return emissions()

    monkeypatch.setattr(fpw.search, "_emissions", counting)
    return opened


def test_pinned_bs_search_pulls_each_stream_once(monkeypatch):
    opened = _count_streams(monkeypatch)
    bs = bs_presentation(BS23)
    t = w("t")
    variant = FinitePresentation(ST, (t * bs.relators[0] * ~t,))
    outcome = iso_search(bs, variant, SearchBudget(400, 300))
    assert isinstance(outcome, Found)
    assert (outcome.pair_index, outcome.steps) == (364, 6018)
    assert [pres for pres, _ in opened] == [bs, variant]
    assert all(pulled[0] <= 300 + 1 for _, pulled in opened)


def test_subgroup_search_shares_the_target_stream(monkeypatch):
    opened = _count_streams(monkeypatch)
    target = parse_presentation("< a | a^2 >")
    outcome = subgroup_presentation_search(
        Z2, parity_oracle, [parse_word(X, "x")], target, SearchBudget(600, 200)
    )
    assert isinstance(outcome, SubgroupFound) and outcome.k == 1
    # the target's stream once, then one per candidate presentation P_0, P_1, ...
    presentations = [pres for pres, _ in opened]
    assert presentations[0] == target and presentations.count(target) == 1
    assert [len(pres.relators) for pres in presentations[1:]] == list(range(len(opened) - 1))
    assert all(pulled[0] <= 200 + 1 for _, pulled in opened)
