import json
import re

import pytest
from hypothesis import given, settings, strategies as st_

from fpw.presentations import (
    CertFactor,
    FinitePresentation,
    TrivialityCertificate,
    certificate_word,
    parse_presentation,
)
from fpw.tietze import (
    AddGenerator,
    AddRelator,
    Invalid,
    MoveLog,
    RemoveGenerator,
    RemoveRelator,
    TietzeError,
    Unverifiable,
    Valid,
    apply_move,
    apply_sequence,
    check_move,
    move_to_json,
    parse_move,
    presentation_hash,
)
from fpw.words import Alphabet, GeneratorMap, _reduce, _word, concat, invert, parse_word, substitute


X2 = parse_presentation("< x | x^2 >")


def xw(text):
    return parse_word(Alphabet.of("x"), text)


def cert_x4():
    # x^4 = (x^2)(x^2), two unconjugated relator factors
    return TrivialityCertificate(
        (CertFactor(xw(""), 0, 1), CertFactor(xw(""), 0, 1))
    )


# ---------------------------------------------------------------- relator moves


def test_add_relator_with_certificate():
    result = apply_move(X2, AddRelator(xw("x^4"), cert_x4()))
    assert result.format() == "< x | x^2, x^4 >"


def test_add_then_remove_is_identity():
    added = apply_move(X2, AddRelator(xw("x^4"), cert_x4()))
    back = apply_move(added, RemoveRelator(1, cert_x4()))
    assert back == X2


def test_add_relator_requires_certificate():
    with pytest.raises(TietzeError, match="requires a triviality certificate"):
        apply_move(X2, AddRelator(xw("x^4"), None))


def test_remove_relator_requires_certificate():
    with pytest.raises(TietzeError, match="removing a relator requires a derivation certificate"):
        apply_move(X2, RemoveRelator(0, None))


@pytest.mark.parametrize("call", [lambda move: apply_move(X2, move), move_to_json], ids=["apply_move", "move_to_json"])
def test_a_non_move_is_a_type_error(call):
    with pytest.raises(TypeError, match="not a Tietze move: 'x'"):
        call("x")


def test_add_relator_rejects_wrong_certificate():
    bogus = TrivialityCertificate((CertFactor(xw(""), 0, 1),))  # proves x^2, not x^3
    with pytest.raises(TietzeError, match="certificate derives 'x\\^2', not 'x\\^3'"):
        apply_move(X2, AddRelator(xw("x^3"), bogus))


def test_add_relator_rejects_foreign_word():
    other = parse_word(Alphabet.of("y"), "y")
    with pytest.raises(TietzeError, match="relator is not a word over the presentation's generators"):
        apply_move(X2, AddRelator(other, cert_x4()))


def test_remove_relator_certificate_is_over_remaining_relators():
    # from < x | x^2, x^4 > the first relator is recoverable from the second
    # only with inverse sign tricks that don't exist, so removal must fail
    pres = parse_presentation("< x | x^2, x^4 >")
    wrong = TrivialityCertificate((CertFactor(xw(""), 0, 1),))
    # index 0 removes x^2; remaining relator x^4 generates only multiples of 4
    with pytest.raises(TietzeError, match="certificate derives 'x\\^4', not 'x\\^2'"):
        apply_move(pres, RemoveRelator(0, wrong))


def test_remove_relator_index_out_of_range():
    with pytest.raises(TietzeError, match="out of range"):
        apply_move(X2, RemoveRelator(3, cert_x4()))
    with pytest.raises(TietzeError, match="out of range"):
        apply_move(X2, RemoveRelator(-1, cert_x4()))


def test_remove_relator_valid_certificate():
    pres = parse_presentation("< x | x^2, x^4 >")
    # removing x^4 needs a certificate over < x | x^2 > alone
    back = apply_move(pres, RemoveRelator(1, cert_x4()))
    assert back == X2


# ---------------------------------------------------------------- generator moves


def test_add_generator_appends_defining_relator():
    free = parse_presentation("< x | >")
    result = apply_move(free, AddGenerator("y", xw("x x")))
    assert result.format() == "< x, y | y x^-2 >"


def test_add_generator_then_remove_round_trips():
    free = parse_presentation("< x | >")
    bigger = apply_move(free, AddGenerator("y", xw("x x")))
    back = apply_move(bigger, RemoveGenerator("y", 0))
    assert back == free


def test_add_generator_name_clash():
    with pytest.raises(TietzeError, match="already present"):
        apply_move(X2, AddGenerator("x", xw("x")))


def test_add_generator_definition_must_avoid_new_name():
    free = parse_presentation("< x | >")
    with pytest.raises(TietzeError, match="definition is not a word over the existing generators"):
        apply_move(free, AddGenerator("y", parse_word(Alphabet.of("y"), "y")))


def test_add_generator_lifts_existing_relators():
    result = apply_move(X2, AddGenerator("y", xw("x")))
    assert result.generators.names() == ("x", "y")
    assert parse_word(result.generators, "x^2") in result.relators
    assert parse_word(result.generators, "y x^-1") in result.relators


def test_remove_generator_missing_name():
    with pytest.raises(TietzeError, match="has no generator 'q'"):
        apply_move(X2, RemoveGenerator("q", 0))


def test_remove_generator_index_out_of_range():
    pres = apply_move(parse_presentation("< x | >"), AddGenerator("y", xw("x x")))
    with pytest.raises(TietzeError, match="out of range"):
        apply_move(pres, RemoveGenerator("y", 5))


def test_remove_generator_relator_must_be_defining_shape():
    # relator must read y * (word without y)^-1
    pres = parse_presentation("< x, y | x^2 y >")
    with pytest.raises(TietzeError, match="does not start with 'y'"):
        apply_move(pres, RemoveGenerator("y", 0))


def test_remove_generator_definition_must_avoid_the_generator():
    pres = parse_presentation("< x, y | y y x >")
    with pytest.raises(TietzeError, match="outside its leading letter"):
        apply_move(pres, RemoveGenerator("y", 0))


def test_remove_generator_substitutes_into_other_relators():
    free = parse_presentation("< x | >")
    step1 = apply_move(free, AddGenerator("y", xw("x x")))
    # y^2 x^-4 = (y r y^-1) r for the defining relator r = y x^-2
    step2 = apply_move(
        step1,
        AddRelator(
            parse_word(step1.generators, "y^2 x^-4"),
            TrivialityCertificate(
                (
                    CertFactor(parse_word(step1.generators, "y"), 0, 1),
                    CertFactor(parse_word(step1.generators, ""), 0, 1),
                )
            ),
        ),
    )
    result = apply_move(step2, RemoveGenerator("y", 0))
    assert result.generators.names() == ("x",)
    # y^2 x^-4 becomes (x^2)^2 x^-4, which reduces to the empty relator; the
    # move keeps it (only the parser drops empty relators)
    assert len(result.relators) == 1
    assert result.relators[0].is_identity


def test_remove_first_generator_reencodes_the_rest():
    pres = parse_presentation("< a, b, c | a c^-1 b, b c a^2 >")
    result = apply_move(pres, RemoveGenerator("a", 0))
    assert result.format() == "< b, c | b c b^-1 c b^-1 c >"


def test_remove_middle_generator_reencodes_the_rest():
    pres = parse_presentation("< a, b, c | b a c^-1, a b c >")
    result = apply_move(pres, RemoveGenerator("b", 0))
    assert result.format() == "< a, c | a c a^-1 c >"


# The generator moves as they were when every letter was re-encoded by its
# generator's name: the oracle of apply_move's generator branches.
def _lift(word, alphabet):
    names = word.alphabet
    return _word(alphabet, tuple(alphabet.code(names[abs(c) - 1]) * (1 if c > 0 else -1) for c in word.codes))


def _lifted_generator_move(pres, move):
    if isinstance(move, AddGenerator):
        new_alpha = Alphabet(pres.generators + (move.name,))
        defining = concat(new_alpha.gen_word(move.name), invert(_lift(move.definition, new_alpha)))
        return FinitePresentation(new_alpha, tuple(_lift(r, new_alpha) for r in pres.relators) + (defining,))
    tail = _word(pres.generators, pres.relators[move.index].codes[1:])
    new_alpha = Alphabet(g for g in pres.generators if g != move.name)
    definition = invert(_lift(tail, new_alpha))
    images = [definition if g == move.name else new_alpha.gen_word(g) for g in pres.generators]
    down = GeneratorMap(pres.generators, new_alpha, tuple(images))
    relators = tuple(substitute(r, down) for i, r in enumerate(pres.relators) if i != move.index)
    return FinitePresentation(new_alpha, relators)


@st_.composite
def _valid_generator_moves(draw):
    """A presentation on 1-3 generators and a generator move valid on it."""
    names = draw(st_.permutations(["a", "b", "c", "d"]))
    alphabet = Alphabet(names[: draw(st_.integers(1, 3))])
    gens = len(alphabet)

    def word(codes):
        return _word(alphabet, _reduce(draw(st_.lists(st_.sampled_from(codes), max_size=8))))

    every = [c for i in range(1, gens + 1) for c in (i, -i)]
    relators = [word(every) for _ in range(draw(st_.integers(0, 4)))]
    if gens == 1 or draw(st_.booleans()):
        return FinitePresentation(alphabet, tuple(relators)), AddGenerator(names[gens], word(every))
    code = draw(st_.integers(1, gens))
    defining = _word(alphabet, (code,) + word([c for c in every if abs(c) != code]).codes)
    index = draw(st_.integers(0, len(relators)))
    relators.insert(index, defining)
    return FinitePresentation(alphabet, tuple(relators)), RemoveGenerator(alphabet[code - 1], index)


@settings(max_examples=300, deadline=None)
@given(_valid_generator_moves())
def test_generator_moves_match_the_name_lifting_oracle(case):
    pres, move = case
    assert apply_move(pres, move) == _lifted_generator_move(pres, move)


# a generator move whose alphabet would be invalid: a move that leaves it
# valid, then the bad one, as JSON decoded against the presentation it meets
_BAD_ALPHABET_MOVES = [
    ("< x | x^2 >", {"op": "add_gen", "name": "y", "definition": "x"},
     {"op": "add_gen", "name": "z^", "definition": "x"}, "invalid generator name: 'z^'"),
    ("< x | x >", {"op": "add_rel", "word": "x^2", "cert": cert_x4().to_json()},
     {"op": "rem_gen", "name": "x", "index": 0}, "alphabet must contain at least one generator"),
]


@pytest.mark.parametrize("text, first, bad, reason", _BAD_ALPHABET_MOVES, ids=["bad-name", "no-generator"])
def test_apply_sequence_rejects_a_move_leaving_an_invalid_alphabet(text, first, bad, reason):
    with pytest.raises(TietzeError, match=re.escape(f"move 1: {reason}")) as err:
        apply_sequence(parse_presentation(text), [first, bad])
    assert err.value.step == 1


@pytest.mark.parametrize("text, first, bad, reason", _BAD_ALPHABET_MOVES, ids=["bad-name", "no-generator"])
def test_check_move_rejects_a_move_leaving_an_invalid_alphabet(text, first, bad, reason):
    pres = parse_presentation(text)
    pres = apply_move(pres, parse_move(pres, first))
    assert check_move(pres, parse_move(pres, bad), budget=10) == Invalid(reason)


# ---------------------------------------------------------------- sequences and logs


def test_apply_sequence_empty():
    result, log = apply_sequence(X2, [])
    assert result == X2
    assert log.entries == ()
    assert log.final_hash is None


def test_apply_sequence_two_moves():
    moves = [AddRelator(xw("x^4"), cert_x4()), RemoveRelator(1, cert_x4())]
    result, log = apply_sequence(X2, moves)
    assert result == X2
    assert len(log.entries) == 2
    assert log.verify_chain()
    assert log.entries[0].before_hash == presentation_hash(X2)
    assert log.final_hash == presentation_hash(X2)


def test_apply_sequence_reports_failing_step():
    moves = [
        AddRelator(xw("x^4"), cert_x4()),
        RemoveRelator(9, cert_x4()),
    ]
    with pytest.raises(TietzeError, match="out of range") as err:
        apply_sequence(X2, moves)
    assert err.value.step == 1
    assert "move 1" in str(err.value)


def test_move_log_chain_detects_tampering():
    moves = [AddRelator(xw("x^4"), cert_x4()), RemoveRelator(1, cert_x4())]
    _, log = apply_sequence(X2, moves)
    entries = list(log.entries)
    broken = MoveLog((entries[0], type(entries[1])(entries[1].move_json, "bogus", entries[1].after_hash)))
    assert not broken.verify_chain()


def test_move_log_json_is_serializable():
    moves = [AddRelator(xw("x^4"), cert_x4())]
    _, log = apply_sequence(X2, moves)
    blob = json.dumps(log.to_json())
    data = json.loads(blob)
    assert len(data["entries"]) == 1


def test_presentation_hash_tracks_canonical_form():
    a = parse_presentation("< x | x^2, x^4 >")
    b = parse_presentation("< x | x^4, x^2 >")
    assert presentation_hash(a) == presentation_hash(b)
    assert presentation_hash(a) != presentation_hash(X2)
    assert len(presentation_hash(a)) == 64


# ---------------------------------------------------------------- JSON forms


@pytest.mark.parametrize(
    "move",
    [
        AddRelator(xw("x^4"), cert_x4()),
        RemoveRelator(1, cert_x4()),
        RemoveRelator(0, None),
        AddGenerator("y", xw("x x")),
        RemoveGenerator("y", 0),
    ],
)
def test_move_json_roundtrip(move):
    pres = parse_presentation("< x | x^2, x^4 >")
    data = json.loads(json.dumps(move_to_json(move)))
    assert parse_move(pres, data) == move


def test_parse_move_rejects_unknown_op():
    with pytest.raises(ValueError):
        parse_move(X2, {"op": "frobnicate"})


def test_apply_sequence_threads_alphabets_of_json_moves():
    # later moves parse over the alphabet the first one produced
    free = parse_presentation("< x | >")
    xy = parse_presentation("< x, y | y x^-2 >")
    cert = TrivialityCertificate((CertFactor(parse_word(xy.generators, ""), 0, 1),))
    data = [
        {"op": "add_gen", "name": "y", "definition": "x x"},
        {"op": "add_rel", "word": "y x^-2", "cert": cert.to_json()},
        {"op": "rem_rel", "index": 1, "cert": cert.to_json()},
        {"op": "rem_gen", "name": "y", "index": 0},
    ]
    result, log = apply_sequence(free, data)
    assert result == free
    moves = [
        AddGenerator("y", xw("x x")),
        AddRelator(xy.relators[0], cert),
        RemoveRelator(1, cert),
        RemoveGenerator("y", 0),
    ]
    assert [json.loads(e.move_json) for e in log.entries] == [move_to_json(m) for m in moves]
    assert apply_sequence(free, moves[:2] + data[2:])[1] == log


def test_apply_sequence_reports_step_on_bad_json_move():
    free = parse_presentation("< x | >")
    data = [
        {"op": "add_gen", "name": "y", "definition": "x x"},
        {"op": "rem_gen", "name": "z", "index": 0},
    ]
    with pytest.raises(TietzeError) as err:
        apply_sequence(free, data)
    assert err.value.step == 1


# ---------------------------------------------------------------- semi-decision


def test_check_move_accepts_supplied_certificate():
    outcome = check_move(X2, AddRelator(xw("x^4"), cert_x4()), budget=10)
    assert isinstance(outcome, Valid) and outcome == Valid(cert_x4())


def test_check_move_rejects_bogus_certificate():
    bogus = TrivialityCertificate((CertFactor(xw(""), 0, 1),))
    outcome = check_move(X2, AddRelator(xw("x^3"), bogus), budget=10)
    assert isinstance(outcome, Invalid)


def test_check_move_searches_for_missing_certificate():
    pres = parse_presentation("< x | x^2, x^4 >")
    outcome = check_move(pres, RemoveRelator(1, None), budget=1000)
    assert isinstance(outcome, Valid)
    assert outcome.certificate is not None
    # the found certificate really proves x^4 over the remaining < x | x^2 >
    assert certificate_word(X2, outcome.certificate) == xw("x^4")


def test_check_move_unverifiable_at_low_budget():
    pres = parse_presentation("< x | x^2, x^4 >")
    outcome = check_move(pres, RemoveRelator(1, None), budget=1)
    assert isinstance(outcome, Unverifiable) and outcome == Unverifiable(1)


def test_check_move_add_relator_without_certificate():
    outcome = check_move(X2, AddRelator(xw("x^4"), None), budget=1000)
    assert isinstance(outcome, Valid)
    assert outcome.certificate is not None


def test_check_move_generator_moves():
    free = parse_presentation("< x | >")
    outcome = check_move(free, AddGenerator("y", xw("x x")), budget=10)
    assert isinstance(outcome, Valid) and outcome == Valid(None)
    outcome = check_move(free, AddGenerator("x", xw("x")), budget=10)
    assert isinstance(outcome, Invalid)
    assert "x" in outcome.reason
