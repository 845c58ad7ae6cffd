"""Certificate-checked Tietze transformations on finite presentations.

Each move either carries enough evidence to validate immediately or is
rejected; ``apply_move`` never guesses.  Adding a relator requires a
triviality certificate for it; removing one requires a certificate deriving
it from the relators that remain.  Generator moves are structural and need
no certificate, only a valid alphabet after the move.  ``check_move``
additionally semi-decides certificate-free relator moves by searching the
certificate stream under a budget.  Every rejected move raises the one
``TietzeError``, a ``ValueError`` whose message says why; ``apply_sequence``
adds the step it failed at.

Applied sequences produce a ``MoveLog`` of each move's canonical JSON and the
hashes of the presentations around it.  ``verify_chain`` checks only that the
hashes link up, not the moves; replaying the moves with ``apply_sequence``
audits a log, re-checking each certificate without re-running any search.
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple, Sequence

from .presentations import (
    FinitePresentation,
    ProvedTrivial,
    TrivialityCertificate,
    _json_field,
    certificate_word,
    semidecide_trivial,
)
from .words import Alphabet, GeneratorMap, Word, _inverse, _word, format_word, invert, parse_word, substitute


class TietzeError(ValueError):
    """A rejected move.  ``step`` is set when raised from ``apply_sequence``."""

    def __init__(self, message: str, step: int | None = None):
        self.message = message
        self.step = step
        prefix = f"move {step}: " if step is not None else ""
        super().__init__(prefix + message)


class AddRelator(NamedTuple):
    word: Word
    certificate: TrivialityCertificate | None = None


class RemoveRelator(NamedTuple):
    index: int
    certificate: TrivialityCertificate | None = None


class AddGenerator(NamedTuple):
    name: str
    definition: Word


class RemoveGenerator(NamedTuple):
    name: str
    index: int


TietzeMove = AddRelator | RemoveRelator | AddGenerator | RemoveGenerator


def _alphabet(names) -> Alphabet:
    """The alphabet a generator move leaves; an invalid one rejects the move."""
    try:
        return Alphabet(names)
    except ValueError as e:
        raise TietzeError(str(e)) from None


def _obligation(
    pres: FinitePresentation, move: AddRelator | RemoveRelator
) -> tuple[FinitePresentation, Word]:
    """The presentation a relator move's word must be proved trivial in, and
    that word; raises for a foreign word or an index out of range."""
    if isinstance(move, AddRelator):
        if move.word.alphabet != pres.generators:
            raise TietzeError("relator is not a word over the presentation's generators")
        return pres, move.word
    i, rels = move.index, pres.relators
    if not 0 <= i < len(rels):
        raise TietzeError(f"relator index {i} out of range for {len(rels)} relators")
    return FinitePresentation(pres.generators, rels[:i] + rels[i + 1 :]), rels[i]


def apply_move(pres: FinitePresentation, move: TietzeMove) -> FinitePresentation:
    """Apply one move, validating its evidence; raises TietzeError."""
    if isinstance(move, (AddRelator, RemoveRelator)):
        proved_in, word = _obligation(pres, move)
        adding = isinstance(move, AddRelator)
        if move.certificate is None:
            raise TietzeError(
                "adding a relator requires a triviality certificate" if adding
                else "removing a relator requires a derivation certificate"
            )
        try:
            derived = certificate_word(proved_in, move.certificate)
        except ValueError as e:
            raise TietzeError(str(e)) from None
        if derived != word:
            raise TietzeError(f"certificate derives '{format_word(derived)}', not '{format_word(word)}'")
        return FinitePresentation(pres.generators, pres.relators + (word,)) if adding else proved_in

    if isinstance(move, AddGenerator):
        if move.name in pres.generators:
            raise TietzeError(f"generator '{move.name}' already present")
        if move.definition.alphabet != pres.generators:
            raise TietzeError("definition is not a word over the existing generators")
        new_alpha = _alphabet(pres.generators + (move.name,))
        # the new generator goes last: old words keep their codes, and its letter cannot cancel
        defining = _word(new_alpha, (len(new_alpha),) + _inverse(move.definition.codes))
        relators = tuple(_word(new_alpha, r.codes) for r in pres.relators) + (defining,)
        return FinitePresentation(new_alpha, relators)

    if isinstance(move, RemoveGenerator):
        if move.name not in pres.generators:
            raise TietzeError(f"presentation has no generator '{move.name}'")
        if not 0 <= move.index < len(pres.relators):
            raise TietzeError(f"relator index {move.index} out of range for {len(pres.relators)} relators")
        rel = pres.relators[move.index]
        code = pres.generators.code(move.name)
        if not rel.codes or rel.codes[0] != code:
            raise TietzeError(f"relator {move.index} does not start with '{move.name}'")
        tail = _word(pres.generators, rel.codes[1:])
        if code in tail.codes or -code in tail.codes:
            raise TietzeError(f"relator {move.index} uses '{move.name}' outside its leading letter")
        new_alpha = _alphabet(g for g in pres.generators if g != move.name)
        # the tail never reads the removed generator's image, so a placeholder does
        images = [new_alpha.empty_word() if g == move.name else new_alpha.gen_word(g) for g in pres.generators]
        images[code - 1] = invert(substitute(tail, GeneratorMap(pres.generators, new_alpha, tuple(images))))
        down = GeneratorMap(pres.generators, new_alpha, tuple(images))
        relators = tuple(
            substitute(r, down) for i, r in enumerate(pres.relators) if i != move.index
        )
        return FinitePresentation(new_alpha, relators)

    raise TypeError(f"not a Tietze move: {move!r}")


class MoveLogEntry(NamedTuple):
    """One applied move with hashes of the presentations on either side."""

    move_json: str
    before_hash: str
    after_hash: str


class MoveLog(NamedTuple):
    entries: tuple[MoveLogEntry, ...]

    @property
    def final_hash(self) -> str | None:
        return self.entries[-1].after_hash if self.entries else None

    def verify_chain(self) -> bool:
        """Each step picks up where the previous one left off; moves are not checked."""
        return all(
            a.after_hash == b.before_hash for a, b in zip(self.entries, self.entries[1:])
        )

    def to_json(self) -> dict:
        return {
            "entries": [
                {
                    "move": json.loads(e.move_json),
                    "before": e.before_hash,
                    "after": e.after_hash,
                }
                for e in self.entries
            ],
        }


def presentation_hash(pres: FinitePresentation) -> str:
    return hashlib.sha256(pres.canonical_text().encode()).hexdigest()


def move_to_json(move: TietzeMove) -> dict:
    if isinstance(move, AddRelator):
        cert = None if move.certificate is None else move.certificate.to_json()
        return {"op": "add_rel", "word": format_word(move.word), "cert": cert}
    if isinstance(move, RemoveRelator):
        cert = None if move.certificate is None else move.certificate.to_json()
        return {"op": "rem_rel", "index": move.index, "cert": cert}
    if isinstance(move, AddGenerator):
        return {"op": "add_gen", "name": move.name, "definition": format_word(move.definition)}
    if isinstance(move, RemoveGenerator):
        return {"op": "rem_gen", "name": move.name, "index": move.index}
    raise TypeError(f"not a Tietze move: {move!r}")


def parse_move(pres: FinitePresentation, data: dict) -> TietzeMove:
    """Decode one move against the presentation it will apply to; malformed
    JSON raises ValueError naming the bad field."""
    if not isinstance(data, dict):
        raise ValueError("a move must be a JSON object")
    op = data.get("op")
    where = f"move {op!r}"
    if op == "add_rel":
        word = parse_word(pres.generators, _json_field(data, "word", str, where))
        cert = data.get("cert")
        certificate = None if cert is None else TrivialityCertificate.from_json(pres.generators, cert)
        return AddRelator(word, certificate)
    if op == "rem_rel":
        index = _json_field(data, "index", int, where)
        cert = data.get("cert")
        certificate = None if cert is None else TrivialityCertificate.from_json(pres.generators, cert)
        return RemoveRelator(index, certificate)
    if op == "add_gen":
        definition = parse_word(pres.generators, _json_field(data, "definition", str, where))
        return AddGenerator(_json_field(data, "name", str, where), definition)
    if op == "rem_gen":
        return RemoveGenerator(_json_field(data, "name", str, where), _json_field(data, "index", int, where))
    raise ValueError(f"unknown move op: {op!r}")


def apply_sequence(
    pres: FinitePresentation, moves: Sequence[TietzeMove | dict]
) -> tuple[FinitePresentation, MoveLog]:
    """Apply moves in order, building the hash chain; the first failure is
    re-raised with its step index attached.  A JSON move object is decoded
    against the presentation it applies to, so a later move may use the
    generators an earlier one introduced; malformed JSON raises ValueError."""
    current = pres
    before = presentation_hash(pres)
    entries: list[MoveLogEntry] = []
    for i, move in enumerate(moves):
        if not isinstance(move, TietzeMove):
            move = parse_move(current, move)
        try:
            current = apply_move(current, move)
        except TietzeError as e:
            raise TietzeError(e.message, step=i) from None
        after = presentation_hash(current)
        entries.append(MoveLogEntry(json.dumps(move_to_json(move), sort_keys=True, separators=(",", ":")), before, after))
        before = after
    return current, MoveLog(tuple(entries))


class Valid(NamedTuple):
    certificate: TrivialityCertificate | None


class Invalid(NamedTuple):
    reason: str


class Unverifiable(NamedTuple):
    budget: int


def check_move(
    pres: FinitePresentation, move: TietzeMove, budget: int
) -> Valid | Invalid | Unverifiable:
    """Decide a move's validity, searching for missing relator certificates.

    Moves carrying certificates validate or fail immediately.  A
    certificate-free AddRelator or RemoveRelator triggers a certificate-stream
    search capped at ``budget`` emissions; success returns Valid with the
    certificate found, and running out of budget returns Unverifiable rather
    than a verdict.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    try:
        if not isinstance(move, (AddRelator, RemoveRelator)) or move.certificate is not None:
            apply_move(pres, move)
            return Valid(getattr(move, "certificate", None))
        outcome = semidecide_trivial(*_obligation(pres, move), budget)
    except TietzeError as e:
        return Invalid(e.message)
    if isinstance(outcome, ProvedTrivial):
        return Valid(outcome.certificate)
    return Unverifiable(budget)
