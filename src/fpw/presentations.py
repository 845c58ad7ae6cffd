"""Finite and recursive group presentations.

Provides the presentation grammar, triviality certificates with a fair
deterministic enumeration of all certificate words (hence a semi-decision
procedure for the word problem of any presented group), and abelianization
invariants via an exact integer Smith normal form.
"""

from __future__ import annotations

import itertools
from typing import Callable, Collection, Iterator, NamedTuple

from .words import (
    MAX_WORD_LETTERS,
    Alphabet,
    ParseError,
    Word,
    WordTooLong,
    _inverse,
    _join,
    _reduce,
    _shortlex_levels,
    _spell,
    _word,
    format_word,
    invert,
    parse_word,
)


class FinitePresentation(NamedTuple("FinitePresentation", [("generators", Alphabet), ("relators", tuple)])):
    """A finite presentation: an alphabet plus a finite tuple of relators.

    Relators are stored freely reduced, in the order given.  The empty relator
    is permitted in storage (it presents nothing) but the parser drops it.
    """

    __slots__ = ()

    def __new__(cls, generators: Alphabet, relators: tuple[Word, ...]):
        relators = tuple(relators)
        for r in relators:
            if r.alphabet != generators:
                raise ValueError("relator is not a word over the presentation's generators")
        return tuple.__new__(cls, (generators, relators))

    def format(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(format_word(r) for r in self.relators)
        if not rels:
            return f"< {gens} | >"
        return f"< {gens} | {rels} >"

    def canonical_text(self) -> str:
        """Serialization with relators sorted in shortlex order (for hashing)."""
        return FinitePresentation(self.generators, tuple(sorted(self.relators, key=Word.shortlex_key))).format()


class RecursivePresentation(NamedTuple):
    """A presentation whose relators arrive from a pull-based stream.

    ``relator_source`` returns a fresh iterator of relator words each time it
    is called.  The stream may repeat words and may be infinite; iterator
    exhaustion is the explicit "no more relators available" signal, which is
    how finite relator lists embed as a degenerate case.  Certificates index
    the stream as emitted, repeats and empty words included, and a relator
    over other generators is a ValueError when it is read, not before.
    """

    generators: Alphabet
    relator_source: Callable[[], Iterator[Word]]


Presentation = FinitePresentation | RecursivePresentation


def parse_presentation(text: str) -> FinitePresentation:
    """Parse ``< gens | relators >``.

    Generators are comma-separated names.  Relators are comma-separated, each
    either a word or an equation ``u = v`` (stored as the relator u v^-1).
    Empty relator clauses and relators that reduce to the empty word are
    dropped.  Malformed text, the words in it included, raises ``ParseError``
    with the position of the fault in ``text``.
    """
    lt = text.find("<")
    if lt < 0 or text[:lt].strip():
        raise ParseError("expected '<'", 0)
    bar = text.find("|", lt)
    if bar < 0:
        raise ParseError("expected '|'", len(text))
    gt = text.rfind(">")
    if gt < bar:
        raise ParseError("expected '>'", len(text))
    if text[gt + 1 :].strip():
        raise ParseError("unexpected text after '>'", gt + 1)

    names: dict[str, None] = {}  # an ordered set
    pos = lt + 1
    for chunk in text[lt + 1 : bar].split(","):
        name = chunk.strip()
        if not name:
            raise ParseError("empty generator name", pos)
        if name in names:
            raise ParseError(f"duplicate generator {name!r}", pos)
        try:
            Alphabet.of(name)
        except ValueError as e:
            raise ParseError(str(e), pos) from None
        names[name] = None
        pos += len(chunk) + 1
    alphabet = Alphabet(names)

    relators: list[Word] = []
    pos = bar + 1
    for chunk in text[bar + 1 : gt].split(","):
        if chunk.strip():
            sides = chunk.split("=")
            if len(sides) > 2:
                raise ParseError("more than one '=' in relator", pos)
            if len(sides) == 1:
                rel = parse_word(alphabet, sides[0], offset=pos)
            else:
                u = parse_word(alphabet, sides[0], offset=pos)
                v = parse_word(alphabet, sides[1], offset=pos + len(sides[0]) + 1)
                rel = u * invert(v)
            if not rel.is_identity:
                relators.append(rel)
        pos += len(chunk) + 1
    return FinitePresentation(alphabet, tuple(relators))


# --------------------------------------------------------------------------
# triviality certificates


class CertFactor(NamedTuple):
    conjugator: Word
    relator_index: int
    sign: int


class TrivialityCertificate(NamedTuple("TrivialityCertificate", [("factors", tuple)])):
    """A product of conjugated relators: prod_i  c_i r_{j_i}^{e_i} c_i^-1.

    A word equals such a product (after free reduction) exactly when it is
    trivial in the presented group, so a certificate is checkable evidence of
    triviality.  JSON form: list of {"conj": word, "rel": index, "sign": +-1},
    where rel indexes the relators from 0.
    """

    __slots__ = ()

    def __new__(cls, factors: tuple[CertFactor, ...]):
        for f in factors:
            if f.sign not in (1, -1):
                raise ValueError(f"certificate sign must be +1 or -1, got {f.sign}")
            if f.relator_index < 0:
                raise ValueError(f"negative relator index: {f.relator_index}")
        return tuple.__new__(cls, (factors,))

    def to_json(self) -> list[dict]:
        return [
            {"conj": format_word(f.conjugator), "rel": f.relator_index, "sign": f.sign}
            for f in self.factors
        ]

    @classmethod
    def from_json(cls, alphabet: Alphabet, data: list[dict]) -> "TrivialityCertificate":
        """Decode and validate JSON; raises ValueError naming the bad field."""
        if not isinstance(data, list):
            raise ValueError("certificate must be a JSON list of factors")
        factors = []
        spelled = 0  # conjugator letters as written, before reduction: what parsing costs
        for k, item in enumerate(data):
            where = f"certificate factor {k}"
            if not isinstance(item, dict):
                raise ValueError(f"{where} must be an object")
            conj = _json_field(item, "conj", str, where)
            rel = _json_field(item, "rel", int, where)
            sign = _json_field(item, "sign", int, where)
            try:
                codes = _spell(alphabet, conj, max_letters=MAX_WORD_LETTERS - spelled)
            except WordTooLong:
                raise ValueError(f"{where}: conjugators pass {MAX_WORD_LETTERS} letters in all") from None
            spelled += len(codes)
            factors.append(CertFactor(_word(alphabet, _reduce(codes)), rel, sign))
        return cls(tuple(factors))


def _json_field(data: dict, key: str, kind: type, where: str):
    """``data[key]``, which must be present and of type ``kind`` (bools are not ints)."""
    value = data.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where}: field {key!r} is missing or not a JSON {'string' if kind is str else 'integer'}")
    return value


def _relator_codes(pres: Presentation) -> Iterator[tuple[int, ...]]:
    """Each relator's letter codes in the presentation's order, duplicates and empty
    words kept so certificate indices hold; a foreign relator raises as it is read."""
    relators = pres.relators if isinstance(pres, FinitePresentation) else pres.relator_source()
    for r in relators:
        if r.alphabet != pres.generators:
            raise ValueError("relator is not a word over the presentation's generators")
        yield r.codes


def certificate_word(pres: Presentation, cert: TrivialityCertificate) -> Word:
    """Evaluate a certificate to the reduced word it proves trivial.

    The factors' codes are concatenated and reduced once, which gives the
    same word as multiplying the factors in one at a time.  Spelling out
    more than ``MAX_WORD_LETTERS`` letters is a ValueError, raised before
    the factor that would pass the cap is copied.
    """
    top = max((f.relator_index for f in cert.factors), default=-1)
    rels = list(itertools.islice(_relator_codes(pres), top + 1))
    codes: list[int] = []
    for c, i, e in cert.factors:
        if c.alphabet != pres.generators:
            raise ValueError("conjugator is not a word over the presentation's generators")
        if i >= len(rels):
            raise ValueError(f"relator index {i} out of range")
        r = rels[i] if e == 1 else _inverse(rels[i])
        if len(codes) + 2 * len(c.codes) + len(r) > MAX_WORD_LETTERS:
            raise ValueError(f"certificate spells more than {MAX_WORD_LETTERS} letters")
        codes += c.codes
        codes += r
        codes += _inverse(c.codes)
    return _word(pres.generators, _reduce(codes))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative ints summing to ``total``, lex ascending."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def trivial_word_stream(
    pres: Presentation,
) -> Iterator[tuple[Word, TrivialityCertificate]]:
    """Enumerate every certificate over the presentation, fairly.

    Certificates are ordered by total size, defined as

        factor count + summed conjugator lengths + max relator index,

    with the empty certificate (proving the empty word) first at size 0.
    Ties are broken by the deterministic loop order: factor count ascending,
    then max index, then the composition of conjugator lengths (lex
    ascending), then conjugator tuples in shortlex order, then index tuples,
    then sign tuples (+1 before -1).  Every certificate is emitted exactly
    once, paired with its reduced word, so a consumer that runs long enough
    sees every trivial word of the presented group.  Budgets elsewhere in
    this package are counted in emissions of this stream.

    This wraps each emission of the raw stream ``_emissions`` in a word and a
    certificate; the budgeted searches read the raw stream and build a
    certificate only for a word they keep.  The stream may emit the same
    word under different certificates.
    """
    for codes, conjs, idxs, signs in _emissions(pres):
        yield _word(pres.generators, codes), _certificate(conjs, idxs, signs)


def _certificate(conjs: tuple[Word, ...], idxs: tuple[int, ...], signs: tuple[int, ...]) -> TrivialityCertificate:
    return TrivialityCertificate(tuple(map(CertFactor, conjs, idxs, signs)))


def _emissions(
    pres: Presentation, vectors: Collection[int] | None = None
) -> Iterator[tuple[tuple[int, ...] | None, tuple[Word, ...], tuple[int, ...], tuple[int, ...]]]:
    """The certificate stream, raw: (codes, conjugators, indices, signs) per
    emission, in ``trivial_word_stream``'s order, ``codes`` freely reduced.

    Conjugators and relators are stored reduced, so each factor c r^e c^-1 is
    reduced once, on first use, into a memo that lives as long as this
    stream, and an emission joins its reduced factors at their junctions.
    Emissions share their index and sign tuples: the sign tuples of n
    factors are built once per n, and the index tuples whose top index is
    ``max_idx`` once per (n, max_idx) block, so no emission builds an index
    or sign tuple of its own.  A conjugator tuple and its memos come
    straight off products of each length's words and memos.

    Given ``vectors``, exponent vectors packed by ``_packed``, a row
    (indices, signs) whose summed relator vector is not among them is
    yielded with ``None`` for its codes and joins nothing: conjugation does
    not change an exponent vector, so no emission of that row has one of
    ``vectors``.  The rows, conjugator levels and memos are those of the
    unfiltered stream.  A block works out its rows' vectors when its first
    conjugator tuple reaches them, and keeps per index tuple one list that
    points into the rows shared per n.
    """
    relators = _relator_codes(pres)
    rels: list[dict[int, tuple[int, ...]]] = []  # rels[i][e] is r_i^e, pulled as the sizes need them
    rel_vectors: list[int] = []  # each r_i's exponent vector, packed, kept only given ``vectors``
    conjugators = _shortlex_levels(pres.generators)
    # per length: the conjugators, and each one's memo; memo[i][e] is c r_i^e c^-1 reduced
    words_of: list[list[Word]] = []
    memos_of: list[list[list[dict[int, tuple[int, ...]]]]] = []
    # sign_rows[n - 1]: each n-tuple of signs, +1 before -1, with its head and tail;
    # skip_rows[n - 1]: the same signs as rows that join nothing
    sign_rows: list[list[tuple[tuple[int, ...], int, tuple[int, ...]]]] = []
    skip_rows: list[list[tuple[tuple[int, ...], None, None]]] = []
    yield (), (), (), ()
    for size in itertools.count(1):
        for r in itertools.islice(relators, size - len(rels)):
            rels.append({1: r, -1: _inverse(r)})
            if vectors is not None:
                rel_vectors.append(_packed(r))
        if not rels:  # the source ended before its first relator
            return
        for n in range(1, size + 1):
            if n > len(sign_rows):
                sign_rows.append([(s, s[0], s[1:]) for s in itertools.product((1, -1), repeat=n)])
                skip_rows.append([(s, None, None) for s, _, _ in sign_rows[-1]])
            rest = size - n
            for max_idx in range(0, min(rest, len(rels) - 1) + 1):
                conj_total = rest - max_idx
                idx_tuples = [t for t in itertools.product(range(max_idx + 1), repeat=n) if max_idx in t]
                # rows_of[k]: the rows of idx_tuples[k], each skipped unless it can hit
                rows_of = [] if vectors is not None else [sign_rows[n - 1]] * len(idx_tuples)
                for comp in _compositions(conj_total, n):
                    while len(words_of) <= max(comp):
                        words_of.append(next(conjugators))
                        memos_of.append([[] for _ in words_of[-1]])
                    for words, memos in zip(
                        itertools.product(*(words_of[ln] for ln in comp)),
                        itertools.product(*(memos_of[ln] for ln in comp)),
                    ):
                        for c, memo in zip(words, memos):
                            while len(memo) <= max_idx:
                                c_inv, r = _inverse(c.codes), rels[len(memo)]
                                memo.append({1: _join(_join(c.codes, r[1]), c_inv),
                                             -1: _join(_join(c.codes, r[-1]), c_inv)})
                        for k, idxs in enumerate(idx_tuples):
                            if k == len(rows_of):  # the block's first conjugator tuple reaches idxs
                                totals = [0]  # each sign row's summed vector, packed, in sign_rows order
                                for v in map(rel_vectors.__getitem__, reversed(idxs)):
                                    totals = [t + v for t in totals] + [t - v for t in totals]
                                rows = [row if t in vectors else skip
                                        for row, skip, t in zip(sign_rows[n - 1], skip_rows[n - 1], totals)]
                                rows_of.append(skip_rows[n - 1] if rows == skip_rows[n - 1] else rows)
                            head, *tail = map(list.__getitem__, memos, idxs)
                            for signs, first, later in rows_of[k]:
                                if later is None:
                                    yield None, words, idxs, signs
                                    continue
                                codes = head[first]
                                for factor in map(dict.__getitem__, tail, later):
                                    codes = _join(codes, factor)
                                yield codes, words, idxs, signs


class ProvedTrivial(NamedTuple):
    certificate: TrivialityCertificate
    steps: int


class Exhausted(NamedTuple):
    steps: int


def _scan(
    pres: Presentation, targets: Collection[Word], budget: int
) -> tuple[list[TrivialityCertificate], int] | Exhausted:
    """One pass over at most ``budget`` emissions of the raw certificate
    stream, matched against the targets' codes: the first certificate of each
    target, in target order, and the position of the last target to appear,
    or Exhausted if one does not appear.  A certificate is built only for an
    emission that hits a target.  The stream is given the targets' exponent
    vectors, so it joins only the rows that can hit; every row still counts
    one step, so steps, certificates and Exhausted are those of a scan that
    joins every emission."""
    pending: dict[tuple[int, ...], list[int]] = {}
    for pos, t in enumerate(targets):
        pending.setdefault(t.codes, []).append(pos)
    certs: list = [None] * len(targets)
    if not pending:
        return certs, 0
    steps = 0
    vectors = {_packed(t.codes) for t in targets}
    for codes, conjs, idxs, signs in itertools.islice(_emissions(pres, vectors), budget):
        steps += 1
        if codes in pending:
            cert = _certificate(conjs, idxs, signs)
            for pos in pending.pop(codes):
                certs[pos] = cert
            if not pending:
                return certs, steps
    return Exhausted(steps)


def semidecide_trivial(
    pres: Presentation, w: Word, budget: int
) -> ProvedTrivial | Exhausted:
    """Search the certificate stream for ``w``; give up after ``budget`` emissions.

    Monotone in the budget: a word proved within b is proved, with the same
    certificate, within any b' >= b.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if w.alphabet != pres.generators:
        raise ValueError("word is not over the presentation's generators")
    found = _scan(pres, (w,), budget)
    if isinstance(found, Exhausted):
        return found
    (cert,), steps = found
    return ProvedTrivial(cert, steps)


# --------------------------------------------------------------------------
# abelianization via integer Smith normal form


class IntMatrix(NamedTuple("IntMatrix", [("rows", int), ("cols", int), ("entries", tuple)])):
    """An immutable integer matrix with explicit shape (entries are exact ints)."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entries do not match declared shape")
        return tuple.__new__(cls, (rows, cols, entries))

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int | None = None) -> "IntMatrix":
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count from an empty row list")
            cols = len(rows[0])
        return cls(len(rows), cols, tuple(tuple(int(x) for x in r) for r in rows))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def exponent_matrix(pres: FinitePresentation) -> IntMatrix:
    """Relator-by-generator matrix of exponent sums."""
    rows = tuple(exponent_vector(pres.generators, r) for r in pres.relators)
    return IntMatrix(len(rows), len(pres.generators), rows)


def exponent_vector(alphabet: Alphabet, w: Word) -> tuple[int, ...]:
    if w.alphabet != alphabet:
        raise ValueError("word is not over the given alphabet")
    row = [0] * len(alphabet)
    for c in w.codes:
        row[abs(c) - 1] += 1 if c > 0 else -1
    return tuple(row)


def _packed(codes: tuple[int, ...]) -> int:
    """The exponent vector of ``codes`` as one integer, 64 bits per
    generator: letter +-g adds +-2^(64 (g - 1)).  Packing is additive, and
    one-to-one on vectors whose entries stay below 2^63 in size, which every
    row of the stream's does: its entries are at most its factor count times
    a relator's length."""
    return sum(1 << 64 * c - 64 if c > 0 else -1 << -64 * c - 64 for c in codes)


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, D, V) with D = U a V in Smith normal form.

    D is diagonal with nonnegative entries and d1 | d2 | ... ; U and V have
    determinant +-1.  All arithmetic is exact over Python ints.

    Remainder elimination (Cohen, GTM 138, 2.4): the smallest nonzero entry of
    the trailing block moves to (k, k), and the pivot p is divided into column
    k by row moves and into row k by column moves (row moves on V, kept
    transposed), with nearest-integer quotients (2x + p) // (2p).  A remainder
    left in row or column k is at most |p|/2, so k is redone, as it is after a
    row holding a trailing entry p does not divide is added into row k.
    """
    rows, cols = a.rows, a.cols
    m = [list(r) for r in a.entries]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]
    k = 0
    while k < min(rows, cols):
        nonzero = [(abs(x), i, j) for i in range(k, rows) for j in range(k, cols) if (x := m[i][j])]
        if not nonzero:
            break
        _, i, j = min(nonzero)  # ties go to (k, k), so a redone k gets a smaller pivot
        m[k], m[i], u[k], u[i] = m[i], m[k], u[i], u[k]
        for r in m:
            r[k], r[j] = r[j], r[k]
        vt[k], vt[j] = vt[j], vt[k]
        p, mk, uk = m[k][k], m[k], u[k]
        for i in range(k + 1, rows):
            if q := (2 * m[i][k] + p) // (2 * p):
                m[i] = [x - q * y for x, y in zip(m[i], mk)]
                u[i] = [x - q * y for x, y in zip(u[i], uk)]
        for j in range(k + 1, cols):
            if q := (2 * mk[j] + p) // (2 * p):
                for r in m[k:]:
                    r[j] -= q * r[k]
                vt[j] = [x - q * y for x, y in zip(vt[j], vt[k])]
        if any(mk[k + 1 :]) or any(m[i][k] for i in range(k + 1, rows)):
            continue
        bad = next((i for i in range(k + 1, rows) if any(x % p for x in m[i][k + 1 :])), None)
        if bad is not None:
            m[k] = [x + y for x, y in zip(m[k], m[bad])]
            u[k] = [x + y for x, y in zip(u[k], u[bad])]
            continue
        if p < 0:
            m[k][k], u[k] = -p, [-x for x in u[k]]
        k += 1
    v = IntMatrix.from_rows(list(zip(*vt)), cols)
    return IntMatrix.from_rows(u, rows), IntMatrix.from_rows(m, cols), v


def abelianization_invariants(pres: FinitePresentation) -> tuple[int, tuple[int, ...]]:
    """Return (free rank, torsion orders) of the presented group's abelianization.

    Torsion orders come out in divisibility order (each divides the next).
    """
    _, d, _ = smith_normal_form(exponent_matrix(pres))
    diag = d.diagonal()
    nonzero = [x for x in diag if x != 0]
    free_rank = len(pres.generators) - len(nonzero)
    torsion = tuple(x for x in nonzero if x > 1)
    return free_rank, torsion


def is_perfect(pres: FinitePresentation) -> bool:
    """True when the abelianization is trivial (rank 0, no torsion)."""
    return abelianization_invariants(pres) == (0, ())
