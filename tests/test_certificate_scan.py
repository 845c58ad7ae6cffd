"""The budgeted semi-decisions against the loops they replaced.

``semidecide_trivial``, ``semidecide_homomorphism``, ``verify_iso_witness``
and ``check_move`` now share one multi-target scan of the certificate
stream.  The functions below are those entry points as they were before,
each running its own loop (and ``verify_iso_witness`` one stream per
obligation group); they are the oracles of the differential tests here.
"""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st_

import fpw.presentations
import fpw.tietze
from fpw.bs import BS23, ST, bs_presentation, doubling_map
from fpw.cli import main
from fpw.harness import ExplicitFiniteSet, cantor_unpair, quotient_tower_presentation
from fpw.presentations import (
    CertFactor,
    Exhausted,
    FinitePresentation,
    ProvedTrivial,
    TrivialityCertificate,
    parse_presentation,
    semidecide_trivial,
    trivial_word_stream,
    _certificate,
    _emissions,
    _scan,
)
from fpw.search import (
    IsoWitness,
    Proved,
    SearchBudget,
    iso_search,
    semidecide_homomorphism,
    verify_iso_witness,
    _round_trips,
    _Side,
)
from fpw.tietze import (
    AddGenerator,
    AddRelator,
    Invalid,
    RemoveGenerator,
    RemoveRelator,
    TietzeError,
    Unverifiable,
    Valid,
    apply_move,
    check_move,
)
from fpw.words import GeneratorMap, shortlex_stream, substitute, _reduce, _word

from conftest import w
from test_search import SCANNER_CASES
from test_stream_contract import _REPEATING, _alphabets_and_relators

BUDGETS = (0, 1, 5, 50, 300)
BS = bs_presentation(BS23)
CASES = SCANNER_CASES  # BS(2,3) among them


# ---------------------------------------------------------------- oracles


def _old_semidecide_trivial(pres, word, budget):
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if word.alphabet != pres.generators:
        raise ValueError("word is not over the presentation's generators")
    steps = 0
    for emitted, cert in itertools.islice(trivial_word_stream(pres), budget):
        steps += 1
        if emitted == word:
            return ProvedTrivial(cert, steps)
    return Exhausted(steps)


def _old_semidecide_homomorphism(phi, dom, cod, budget):
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if phi.domain != dom.generators or phi.codomain != cod.generators:
        raise ValueError("map endpoints do not match the presentations")
    targets = [substitute(r, phi) for r in dom.relators]
    certs = [None] * len(targets)
    pending = {}
    for pos, t in enumerate(targets):
        pending.setdefault(t, []).append(pos)
    if not pending:
        return Proved((), 0)
    steps = 0
    for emitted, cert in itertools.islice(trivial_word_stream(cod), budget):
        steps += 1
        if emitted in pending:
            for pos in pending.pop(emitted):
                certs[pos] = cert
            if not pending:
                return Proved(tuple(certs), steps)
    return Exhausted(steps)


def _old_verify_iso_witness(left, right, witness, budget):
    if not isinstance(_old_semidecide_homomorphism(witness.forward, left, right, budget), Proved):
        return False
    if not isinstance(_old_semidecide_homomorphism(witness.backward, right, left, budget), Proved):
        return False
    trips = [(left, t) for t in _round_trips(witness.forward, witness.backward)]
    trips += [(right, t) for t in _round_trips(witness.backward, witness.forward)]
    return all(isinstance(_old_semidecide_trivial(p, t, budget), ProvedTrivial) for p, t in trips)


def _old_check_move(pres, move, budget):
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if isinstance(move, AddRelator) and move.certificate is None:
        if move.word.alphabet != pres.generators:
            return Invalid("relator is not a word over the presentation's generators")
        outcome = _old_semidecide_trivial(pres, move.word, budget)
    elif isinstance(move, RemoveRelator) and move.certificate is None:
        if not 0 <= move.index < len(pres.relators):
            return Invalid(
                f"relator index {move.index} out of range for {len(pres.relators)} relators"
            )
        rels = pres.relators
        remaining = FinitePresentation(pres.generators, rels[: move.index] + rels[move.index + 1 :])
        outcome = _old_semidecide_trivial(remaining, rels[move.index], budget)
    else:
        try:
            apply_move(pres, move)
        except TietzeError as e:
            return Invalid(e.message)
        return Valid(getattr(move, "certificate", None))
    if isinstance(outcome, ProvedTrivial):
        return Valid(outcome.certificate)
    return Unverifiable(budget)


# ---------------------------------------------------------------- targets


def _targets(pres):
    """Words first emitted at scattered positions of the first 400
    emissions, then the words of length 1, which are mostly nontrivial."""
    firsts = {}
    for pos, (word, _) in enumerate(itertools.islice(trivial_word_stream(pres), 400), 1):
        firsts.setdefault(word, pos)
    by_position = sorted(firsts, key=firsts.get)
    picked = [by_position[k] for k in (0, 1, 2, 4, 9, 25, 60, 150, len(by_position) - 1) if k < len(by_position)]
    letters = list(itertools.islice(shortlex_stream(pres.generators), 1, 2 * len(pres.generators) + 1))
    return list(dict.fromkeys(picked + letters))


@pytest.mark.parametrize("pres", CASES, ids=lambda p: p.format())
def test_semidecide_trivial_matches_the_single_target_loop(pres):
    for target in _targets(pres):
        for budget in BUDGETS:
            got, old = semidecide_trivial(pres, target, budget), _old_semidecide_trivial(pres, target, budget)
            assert type(got) is type(old) and got == old


def _maps(dom, cod, count):
    side = _Side(cod, 0)
    return [side.map_from(dom.generators, a)[0] for a in range(count)]


@pytest.mark.parametrize("dom", CASES, ids=lambda p: p.format())
def test_semidecide_homomorphism_matches_the_pending_loop(dom):
    # into itself, into the next case and into BS(2,3), the first 6 candidate maps each
    codomains = [dom, CASES[(CASES.index(dom) + 1) % len(CASES)], BS]
    for cod in codomains:
        for phi in _maps(dom, cod, 6):
            for budget in BUDGETS:
                got = semidecide_homomorphism(phi, dom, cod, budget)
                old = _old_semidecide_homomorphism(phi, dom, cod, budget)
                assert type(got) is type(old) and got == old, (phi.format(), budget)


def test_doubling_map_is_proved_at_the_pinned_step():
    f = GeneratorMap.parse(ST, ST, "s=s,t=t^2")
    got = semidecide_homomorphism(f, BS, BS, 744)
    assert isinstance(got, Proved) and got == _old_semidecide_homomorphism(f, BS, BS, 744)
    assert got.steps == 744
    assert isinstance(semidecide_homomorphism(f, BS, BS, 743), Exhausted)


ISO_PAIRS = [
    (parse_presentation("< x | x^2 >"), parse_presentation("< y | y^-2 >")),
    (parse_presentation("< x | x^2, x^4 >"), parse_presentation("< y | y^-2 >")),
    (parse_presentation("< a, b | a b a^-1 b^-1 >"), parse_presentation("< a, b | a b a^-1 b^-1 >")),
    (parse_presentation("< a, b | a^2, b >"), parse_presentation("< x | x^2 >")),
    (parse_presentation("< x | >"), parse_presentation("< a | >")),
]


@pytest.mark.parametrize("left,right", ISO_PAIRS, ids=lambda p: p.format())
def test_verify_iso_witness_matches_the_per_obligation_checks(left, right):
    found = iso_search(left, right, SearchBudget(300, 60))
    witnesses = [found.witness] if not isinstance(found, Exhausted) else []
    into_right, into_left = _Side(right, 0), _Side(left, 0)
    for z in range(25):
        a, b = cantor_unpair(z)
        witnesses.append(
            IsoWitness(into_right.map_from(left.generators, a)[0], into_left.map_from(right.generators, b)[0])
        )
    verdicts = set()
    for witness in witnesses:
        for budget in BUDGETS:
            got = verify_iso_witness(left, right, witness, budget)
            assert got == _old_verify_iso_witness(left, right, witness, budget), (witness.to_json(), budget)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_verify_iso_witness_errors_come_in_the_old_order():
    z2, z2b = ISO_PAIRS[0]
    good = IsoWitness(GeneratorMap.parse(z2.generators, z2b.generators, "x=y"),
                      GeneratorMap.parse(z2b.generators, z2.generators, "y=x"))
    backwards = IsoWitness(good.backward, good.forward)
    for left, right, witness, budget in [(z2, z2b, good, -1), (z2, z2b, backwards, 5), (z2, z2b, backwards, -1)]:
        with pytest.raises(ValueError) as new:
            verify_iso_witness(left, right, witness, budget)
        with pytest.raises(ValueError) as old:
            _old_verify_iso_witness(left, right, witness, budget)
        assert str(new.value) == str(old.value)


def _moves(pres):
    stream = list(itertools.islice(trivial_word_stream(pres), 80))
    word, cert = stream[-1]
    moves = [AddRelator(t, None) for t in _targets(pres)[::2]]
    moves += [RemoveRelator(i, None) for i in range(len(pres.relators) + 1)]
    moves += [AddRelator(word, cert), AddRelator(word * word, cert), AddRelator(w("s t"), None)]
    moves += [RemoveRelator(0, TrivialityCertificate((CertFactor(pres.generators.empty_word(), 0, 1),)))]
    first = pres.generators.names()[0]
    moves += [AddGenerator("g9", pres.generators.gen_word(first)), RemoveGenerator(first, 0)]
    return moves


@pytest.mark.parametrize("pres", CASES, ids=lambda p: p.format())
def test_check_move_matches_the_old_branches(pres):
    for move in _moves(pres):
        for budget in BUDGETS:
            got, old = check_move(pres, move, budget), _old_check_move(pres, move, budget)
            assert type(got) is type(old) and got == old, (move, budget)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        check_move(pres, AddRelator(pres.generators.empty_word(), None), -1)


# ---------------------------------------------------------------- the scan against the scan that joined every emission


def _joining_scan(pres, targets, budget):
    """``_scan`` as it was when it joined every emission of the unfiltered stream."""
    pending = {}
    for pos, t in enumerate(targets):
        pending.setdefault(t.codes, []).append(pos)
    certs = [None] * len(targets)
    if not pending:
        return certs, 0
    steps = 0
    for codes, conjs, idxs, signs in itertools.islice(_emissions(pres), budget):
        steps += 1
        if codes in pending:
            cert = _certificate(conjs, idxs, signs)
            for pos in pending.pop(codes):
                certs[pos] = cert
            if not pending:
                return certs, steps
    return Exhausted(steps)


SCAN_PRESENTATIONS = [
    *CASES,
    quotient_tower_presentation(ExplicitFiniteSet.of([4])),  # P_W for W = {4}, a recursive presentation
    FinitePresentation(_REPEATING.generators, tuple(_REPEATING.relator_source())),  # x^2, x^2, the empty word, y^3
    _REPEATING,
]


@st_.composite
def _scan_cases(draw):
    """A presentation, fixed or drawn with repeated and empty relators, and
    1-3 targets: the empty word, words among the first 300 emissions, and
    reduced words of 1-5 letters, which the stream mostly never reaches and
    whose exponent vectors often no row has."""
    pres = draw(st_.sampled_from(SCAN_PRESENTATIONS) | _alphabets_and_relators().map(lambda d: FinitePresentation(*d)))
    reached = [codes for codes, *_ in itertools.islice(_emissions(pres), 300)]
    letters = [c for i in range(1, len(pres.generators) + 1) for c in (i, -i)]
    target = st_.one_of(
        st_.just(()),
        st_.sampled_from(reached),
        st_.lists(st_.sampled_from(letters), min_size=1, max_size=5).map(_reduce),
    )
    return pres, [_word(pres.generators, codes) for codes in draw(st_.lists(target, min_size=1, max_size=3))]


@settings(max_examples=150, deadline=None)
@given(_scan_cases(), st_.integers(0, 400))
def test_scan_matches_the_scan_that_joined_every_emission(case, budget):
    """Same certificates and steps, or the same Exhausted, at budgets 0, 1, a
    drawn one, and, for targets all hit within 400 emissions, exactly the
    last hit and one short of it."""
    pres, targets = case
    budgets = {0, 1, budget}
    full = _joining_scan(pres, targets, 400)
    if not isinstance(full, Exhausted):
        budgets |= {full[1], full[1] - 1}
    for b in sorted(budgets):
        got, old = _scan(pres, targets, b), _joining_scan(pres, targets, b)
        assert type(got) is type(old) and got == old, b


# ---------------------------------------------------------------- streams and evaluations counted


def test_verify_iso_witness_opens_one_stream_per_side(monkeypatch):
    t = w("t")
    variant = FinitePresentation(ST, (t * BS.relators[0] * ~t,))
    found = iso_search(BS, variant, SearchBudget(400, 300))
    assert found.pair_index == 364
    opened = []

    def counting(pres, *vectors):
        opened.append(pres)
        return _emissions(pres, *vectors)

    monkeypatch.setattr(fpw.presentations, "_emissions", counting)
    assert verify_iso_witness(BS, variant, found.witness, 2000)
    assert opened == [variant, BS]  # the right side's obligations first, as before


def test_scan_builds_a_certificate_only_for_a_hit(monkeypatch):
    built = {"certificates": [], "factors": 0, "words": 0}

    def certificate(factors):
        built["certificates"].append(factors)
        return TrivialityCertificate(factors)

    def factor(*args):
        built["factors"] += 1
        return CertFactor(*args)

    def counting_words(make):
        def word(*args):
            built["words"] += 1
            return make(*args)

        return word

    monkeypatch.setattr(fpw.presentations, "TrivialityCertificate", certificate)
    monkeypatch.setattr(fpw.presentations, "CertFactor", factor)
    for name in ("_word",):
        monkeypatch.setattr(fpw.presentations, name, counting_words(getattr(fpw.presentations, name)))
    proved = semidecide_homomorphism(doubling_map(), BS, BS, 1000)
    assert isinstance(proved, Proved) and proved.steps == 744
    # 744 emissions, one relator image: one certificate, none for the other 743
    (cert,) = proved.certificates
    assert built == {"certificates": [cert.factors], "factors": len(cert.factors), "words": 0}


def test_tietze_apply_evaluates_each_certificate_once(monkeypatch, capsys):
    calls = []

    def counting(pres, cert):
        calls.append(cert)
        return fpw.presentations.certificate_word(pres, cert)

    monkeypatch.setattr(fpw.tietze, "certificate_word", counting)
    cert = [{"conj": "", "rel": 0, "sign": 1}, {"conj": "", "rel": 0, "sign": 1}]
    moves = [
        {"op": "add_rel", "word": "x^4", "cert": cert},
        {"op": "add_gen", "name": "y", "definition": "x"},
        {"op": "rem_rel", "index": 1, "cert": cert},
    ]
    assert main(["tietze-apply", "-p", "< x | x^2 >", "--moves", json.dumps(moves)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "< x, y | x^2, y x^-1 >"
    assert len(calls) == 2
