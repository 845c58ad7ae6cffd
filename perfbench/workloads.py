"""Seeded task lists for the benchmark's workloads.

Each ``build_<family>(fp, seed, rounds)`` takes the freshly imported ``fpw``
package and returns a list of ``Task``s; ``build`` mixes the families of a
workload.  A task's ``run`` calls the
program through module attributes looked up at call time (so the tracer's
wrappers see every call), and its ``check`` judges the output with code the
task did not run: the reference checkers in ``reference.py``, a second
``fpw`` entry point, or an answer known by construction.

Tasks come in rounds.  Every round holds the same task kinds.  The sizes
that drive a task's cost (word length, nesting depth, doubling level, stream
position, factor count, matrix size) come from stratified ``Draw``s, so
runs with different seeds do comparable work; the seed picks the inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import reference as ref

ST_NAMES = ("s", "t")
BS_TEXT = "< s, t | s^-1 t^2 s t^-3 >"
Z2_TEXT = "< x | x^2 >"
AB_TEXT = "< a, b | a^3, a b a^-1 b^-1 >"  # Z3 x Z, a two-relator presentation

# Every task must finish within its deadline or it is abandoned.  Smith
# normal form of an integer matrix up to 8x8 is milliseconds of work for a
# polynomial algorithm, so 0.1 s leaves room for noise but none for the
# coefficient blow-up of the current elimination.  All other tasks run well
# under a second today; 10 s only stops a runaway.
DEADLINE_S = 10.0
SNF_DEADLINE_S = 0.1


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when correct, else why not
    deadline_s: float = DEADLINE_S


class Draw:
    """Stratified draws in [0, 1) for one cost-driving input property.

    Each cycle of ``n`` draws puts one point in each of the strata
    [i/n, (i+1)/n), at its middle, and hands the points out in a seeded
    order: a fixed ladder of sizes.  With ``n`` set to the number of draws a
    pass over the task list makes, every pass does work of the same sizes
    whatever the seed, so the percentiles of the task times stay put, while
    the seed picks the order and the contents (the letters of a word, the
    conjugators of a certificate, the entries of a matrix).  With ``jitter``
    each point sits at a seeded place in its stratum instead.
    """

    def __init__(self, rng: random.Random, n: int, jitter: bool = False):
        self.rng, self.n, self.jitter, self.queue = rng, max(n, 1), jitter, []

    def __call__(self) -> float:
        if not self.queue:
            self.queue = [(i + (self.rng.random() if self.jitter else 0.5)) / self.n for i in range(self.n)]
            self.rng.shuffle(self.queue)
        return self.queue.pop()

    def integer(self, lo: int, hi: int) -> int:
        return lo + min(int(self() * (hi - lo + 1)), hi - lo)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self()

    def log_uniform(self, lo: float, hi: float) -> float:
        return lo * (hi / lo) ** self()


def cli(fp, argv: list[str]) -> tuple[int, str]:
    """Run ``fpw`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fp.cli.main(argv)
    return code, buf.getvalue()


def _letters_of(word, names) -> list[int]:
    return ref.letters(str(word), names)


def _random_text(rng: random.Random, length: int, s_share: float) -> str:
    """A reduced {s, t} word of about ``length`` letters, ``s_share`` of them s."""
    seq: list[int] = []
    while len(seq) < length:
        gen = ref.S if rng.random() < s_share else ref.T
        ref.extend(seq, [gen if rng.random() < 0.5 else -gen])
    return ref.text(seq, ST_NAMES)


def _bs_trivial_letters(rng: random.Random, length: int, s_share: float) -> list[int]:
    """A product of conjugates of the BS(2,3) relator, about ``length`` letters."""
    rel = ref.letters("s^-1 t^2 s t^-3", ST_NAMES)
    seq: list[int] = []
    while len(seq) < length:
        c = ref.letters(_random_text(rng, rng.randint(1, 40), s_share), ST_NAMES)
        r = rel if rng.random() < 0.5 else ref.inverse(rel)
        ref.extend(seq, c + r + ref.inverse(c))
    return seq


def _bs_nontrivial_piece(rng: random.Random) -> list[int]:
    """A short word whose affine image is not the identity.  Inserted into a
    trivial word it makes a word whose image is conjugate to its own, so the
    result is nontrivial in BS(2,3)."""
    while True:
        x = ref.letters(_random_text(rng, rng.randint(1, 6), 0.4), ST_NAMES)
        if x and not ref.is_affine_identity(x):
            return x


def _cert_spec(rng, pres_rels: int, names, factors: int, conj_len: int):
    """Factors as (conjugator text, relator index, sign), conjugators reduced."""
    spec = []
    for _ in range(factors):
        seq: list[int] = []
        while len(seq) < conj_len:
            ref.extend(seq, [rng.choice((1, -1)) * rng.randint(1, len(names))])
        spec.append((ref.text(seq, names), rng.randrange(pres_rels), rng.choice((1, -1))))
    return spec


def _cert_letters(spec, rel_letters: list[list[int]], names) -> list[int]:
    """Reference evaluation: one reduction over the concatenated factors."""
    out: list[int] = []
    for conj, i, sign in spec:
        c = ref.letters(conj, names)
        r = rel_letters[i] if sign == 1 else ref.inverse(rel_letters[i])
        out.extend(c + r + ref.inverse(c))
    return ref.reduce(out)


def _build_cert(fp, alphabet, spec):
    P = fp.presentations
    return P.TrivialityCertificate(
        tuple(P.CertFactor(fp.words.parse_word(alphabet, c), i, e) for c, i, e in spec)
    )


# --------------------------------------------------------------------------
# prove: certificate production


def build_prove(fp, seed: int, rounds: int) -> list[Task]:
    rng = random.Random(f"prove/{seed}")
    P, B, H, S = fp.presentations, fp.bs, fp.harness, fp.search
    bs = B.bs_presentation(B.BS23)
    z2 = P.parse_presentation(Z2_TEXT)
    ab = P.parse_presentation(AB_TEXT)
    tower_set = H.ExplicitFiniteSet.of(rng.sample(range(50), 2))
    qt = H.quotient_tower_presentation(tower_set)

    def bs_oracle(seq, word):
        return ref.is_affine_identity(seq) and B.bs_is_trivial(B.BS23, word)

    def exponent_oracle(moduli):
        def oracle(seq, word):
            sums = ref.exponent_sums(seq, len(moduli))
            return all(x % m == 0 if m else x == 0 for x, m in zip(sums, moduli))
        return oracle

    # (presentation, generator names, stream depth, independent oracle)
    targets = {
        "bs": (bs, ST_NAMES, 300, bs_oracle),
        "z2": (z2, ("x",), 300, exponent_oracle([2])),
        "ab": (ab, ("a", "b"), 300, exponent_oracle([3, 0])),
        # the tower quotient kills more than BS(2,3); its words still have
        # identity image in the affine representation, which factors through
        # every level of the tower.  Past emission 100 or so the stream needs
        # a kernel word that takes 0.2 s to find, a cliff in the task times
        "tower": (qt, ST_NAMES, 100, lambda seq, word: ref.is_affine_identity(seq)),
    }
    # distinct words of each stream prefix, by position of first emission;
    # a search for one costs about that many emissions
    firsts: dict[str, list] = {}
    for key, (pres, _, depth, _) in targets.items():
        seen: dict = {}
        for pos, (w, _) in enumerate(itertools.islice(P.trivial_word_stream(pres), depth), 1):
            seen.setdefault(w, pos)
        firsts[key] = [(pos, w) for w, pos in seen.items()]
    semidecide_keys = ("bs", "bs", "z2", "ab", "ab", "tower")
    draws = {key: Draw(rng, rounds * semidecide_keys.count(key)) for key in targets}

    def semidecide_task(key: str) -> Task:
        pres, names, depth, oracle = targets[key]
        pos, target = firsts[key][draws[key].integer(0, len(firsts[key]) - 1)]

        def check(result) -> str | None:
            if not isinstance(result, P.ProvedTrivial):
                return f"unexpected {type(result).__name__} for a word at emission {pos}"
            if result.steps > pos:
                return f"proved at step {result.steps}, after the word's emission {pos}"
            if P.certificate_word(pres, result.certificate) != target:
                return "certificate does not evaluate to the target"
            if not oracle(_letters_of(target, names), target):
                return "target is not trivial"
            return None

        return Task(f"semidecide.{key}", lambda: P.semidecide_trivial(pres, target, depth), check)

    f = B.doubling_map()
    f_images = [ref.double(_letters_of(r, ST_NAMES), 1) for r in bs.relators]

    def hom_task() -> Task:
        budget = rng.randint(744, 1500)

        def check(result) -> str | None:
            if not isinstance(result, S.Proved) or result.steps != 744:
                return f"expected Proved in 744 steps, got {result}"
            for cert, image in zip(result.certificates, f_images):
                word = P.certificate_word(bs, cert)
                if _letters_of(word, ST_NAMES) != image or not B.bs_is_trivial(B.BS23, word):
                    return "certificate does not evaluate to a relator image"
            return None

        return Task("hom.doubling", lambda: S.semidecide_homomorphism(f, bs, bs, budget), check)

    demo_out = (
        "ok: the doubling map is a homomorphism\n"
        "ok: every generator has a preimage, so it is surjective\n"
        "ok: w1 is nontrivial\n"
        "ok: f(w1) is trivial\n"
        "conclusion: a surjective endomorphism with nontrivial kernel\n"
    )

    def demo_task() -> Task:
        argv = ["demo", "non-hopfian", "--budget", str(rng.randint(744, 3000))]
        return Task(
            "cli.non_hopfian",
            lambda: cli(fp, argv),
            lambda r: None if r == (0, demo_out) else f"demo printed {r!r}",
        )

    tasks: list[Task] = []
    for n in range(rounds):
        round_tasks = [semidecide_task(k) for k in semidecide_keys]
        # the doubling map and the demo are the slowest tasks here, an eighth
        # of them each, so that task_ms.p90 falls among them
        round_tasks += [hom_task(), demo_task()]
        rng.shuffle(round_tasks)
        tasks += round_tasks
    return tasks


# --------------------------------------------------------------------------
# decide: the BS(2,3) word problem and the tower harness


def build_decide(fp, seed: int, rounds: int) -> list[Task]:
    rng = random.Random(f"decide/{seed}")
    B, H, W = fp.bs, fp.harness, fp.words
    ST = B.ST
    w_texts = [str(B.w_family(j)) for j in range(6)]
    shapes = {kind: (Draw(rng, 2 * rounds), Draw(rng, 2 * rounds)) for kind in ("triv", "equal", "britton")}

    def word_shape(kind: str) -> tuple[int, float]:
        # length log-uniform over tens to ~2000 letters; the share of s
        # letters sets the nesting depth Britton reduction has to unwind
        length, share = shapes[kind]
        return int(length.log_uniform(20, 2000)), share.uniform(0.1, 0.6)

    def trivial_case(kind: str) -> tuple[list[int], bool]:
        seq = _bs_trivial_letters(rng, *word_shape(kind))
        if rng.random() < 0.5:
            return seq, True
        cut = rng.randint(0, len(seq))
        return ref.reduce(seq[:cut] + _bs_nontrivial_piece(rng) + seq[cut:]), False

    def triv_task() -> Task:
        seq, expected = trivial_case("triv")
        word = W.parse_word(ST, ref.text(seq, ST_NAMES))
        return Task(
            "bs.is_trivial",
            lambda: B.bs_is_trivial(B.BS23, word),
            lambda r: None if r is expected else f"expected {expected}, got {r}",
        )

    def equal_task() -> Task:
        length, share = word_shape("equal")
        u = ref.letters(_random_text(rng, length // 2 + 1, share), ST_NAMES)
        middle = _bs_trivial_letters(rng, length // 2, share)
        expected = rng.random() < 0.5
        if not expected:
            middle = ref.reduce(middle + _bs_nontrivial_piece(rng))
        cut = rng.randint(0, len(u))
        v = ref.reduce(u[:cut] + middle + u[cut:])
        uw = W.parse_word(ST, ref.text(u, ST_NAMES))
        vw = W.parse_word(ST, ref.text(v, ST_NAMES))
        return Task(
            "bs.equal",
            lambda: B.bs_equal(B.BS23, uw, vw),
            lambda r: None if r is expected else f"expected {expected}, got {r}",
        )

    def britton_task() -> Task:
        seq, _ = trivial_case("britton")
        word = W.parse_word(ST, ref.text(seq, ST_NAMES))
        s_in = sum(1 for x in seq if abs(x) == ref.S)

        def check(result) -> str | None:
            normal_form, pinches = result
            runs, signs = ref.syllables(normal_form.format())
            if ref.has_pinch(runs, signs):
                return "normal form still has a pinch"
            if ref.affine_bs23(ref.syllable_letters(runs, signs)) != ref.affine_bs23(seq):
                return "normal form is a different element"
            if 2 * pinches != s_in - len(signs):
                return f"{pinches} pinches do not account for the s-letters removed"
            return None

        return Task("bs.britton", lambda: B.britton_reduce_counted(B.BS23, word), check)

    # (w_j, level) pairs for levels 0..12, ordered by the length of
    # f^level(w_j) and drawn as a fixed ladder, so every pass does the same
    # work here.  The ladder stops at w_1 spelled out 10 times over (about
    # 30000 letters): longer images take most of a second, and so few of
    # them would make the run's tail.
    def image_size(p: tuple[int, int]) -> int:
        return len(w_texts[p[0]]) << p[1]

    pairs = sorted(
        ((j, i) for j in range(6) for i in range(13) if image_size((j, i)) <= len(w_texts[1]) << 10),
        key=lambda p: (image_size(p), p),
    )
    pair_draws = {"apply_f": Draw(rng, 2 * rounds), "oracle": Draw(rng, 2 * rounds)}

    def level_pair(kind: str) -> tuple[int, int]:
        return pairs[pair_draws[kind].integer(0, len(pairs) - 1)]

    def apply_f_task() -> Task:
        j, i = level_pair("apply_f")
        w = B.w_family(j)

        def check(result) -> str | None:
            expected = ref.double(ref.letters(w_texts[j], ST_NAMES), i)
            return None if _letters_of(result, ST_NAMES) == expected else f"f^{i}(w_{j}) is wrong"

        return Task("bs.apply_f", lambda: B.apply_f(w, i), check)

    def oracle_task() -> Task:
        j, k = level_pair("oracle")
        w = B.w_family(j)
        expected = j <= k  # w_j dies exactly at level j of the tower
        return Task(
            "harness.tower_oracle",
            lambda: H.tower_oracle(k)(w),
            lambda r: None if r is expected else f"oracle {k} on w_{j}: expected {expected}",
        )

    kernel_draw = Draw(rng, (rounds + 1) // 2)
    kernel_sizes = [(i, count) for count in range(2, 5) for i in (1, 2, 3)]

    def kernel_task() -> Task:
        i, count = kernel_sizes[kernel_draw.integer(0, len(kernel_sizes) - 1)]

        def check(words) -> str | None:
            if len(words) != count or str(words[0]) != "":
                return "kernel prefix has the wrong length or does not start at the empty word"
            seqs = [_letters_of(w, ST_NAMES) for w in words]
            if any(len(a) > len(b) for a, b in zip(seqs, seqs[1:])) or len(set(map(str, words))) != count:
                return "kernel prefix is not in shortlex order"
            for w, seq in zip(words, seqs):
                if not ref.is_affine_identity(seq):
                    return f"kernel word {w} is nontrivial in the affine image"
                if not B.bs_is_trivial(B.BS23, B.apply_f(w, i)):
                    return f"kernel word {w} survives f^{i}"
            return None

        return Task(
            "bs.kernel",
            lambda: list(itertools.islice(B.kernel_stream(i), count)),
            check,
        )

    recover_draw = Draw(rng, rounds)
    recover_sizes = sorted(((size, extra) for size in range(5) for extra in range(3)), key=lambda p: (sum(p), p))

    def recover_task() -> Task:
        size, extra = recover_sizes[recover_draw.integer(0, len(recover_sizes) - 1)]
        members = sorted(rng.sample(range(100), size))
        kmax = size + extra
        argv = ["demo", "recover-card", "--set", ",".join(map(str, members)), "--kmax", str(kmax)]
        expected = (0, f"|W| = {len(members)}\n")
        return Task(
            "cli.recover_card",
            lambda: cli(fp, argv),
            lambda r: None if r == expected else f"recover-card printed {r!r}",
        )

    tasks: list[Task] = []
    for n in range(rounds):
        round_tasks = [triv_task(), triv_task(), equal_task(), equal_task()]
        round_tasks += [britton_task(), britton_task()]
        round_tasks += [apply_f_task(), apply_f_task(), oracle_task(), oracle_task()]
        round_tasks.append(recover_task())
        if n % 2 == 0:
            round_tasks.append(kernel_task())
        rng.shuffle(round_tasks)
        tasks += round_tasks
    return tasks


# --------------------------------------------------------------------------
# search: verified isomorphism and subgroup searches


def _removable_generators(pres) -> list[tuple[str, int]]:
    names = pres.generators.names()
    out = []
    for idx, rel in enumerate(pres.relators):
        seq = _letters_of(rel, names)
        if seq and seq[0] > 0 and seq.count(seq[0]) + seq.count(-seq[0]) == 1:
            out.append((names[seq[0] - 1], idx))
    return out


def _tietze_variant(fp, rng: random.Random, base):
    """A random valid move sequence applied to ``base``, in the style of
    acceptance criterion 11; returns the final presentation.

    Criterion 11 finds the certificate for a relator removal by a stream
    search.  Here a removal takes back the last relator added, with the
    certificate it was added with, so that set-up runs no search and its
    cost does not depend on the seed."""
    P, T = fp.presentations, fp.tietze
    current = base
    base_gens = len(base.generators.names())
    derivable: dict[int, list] = {}  # relator index -> spec deriving it
    for _ in range(rng.randint(1, 6)):
        names = current.generators.names()
        last = len(current.relators) - 1
        ops = []
        if current.relators:
            ops.append("add_rel")
        if last in derivable:
            ops.append("rem_rel")
        if len(names) < base_gens + 1:
            ops.append("add_gen")
        removable = _removable_generators(current)
        if removable:
            ops.append("rem_gen")
        if not ops:
            break
        op = rng.choice(ops)
        if op == "add_rel":
            spec = _cert_spec(rng, len(current.relators), names, rng.randint(1, 2), rng.randint(0, 1))
            cert = _build_cert(fp, current.generators, spec)
            move = T.AddRelator(P.certificate_word(current, cert), cert)
            derivable[last + 1] = spec
        elif op == "rem_rel":
            move = T.RemoveRelator(last, _build_cert(fp, current.generators, derivable.pop(last)))
        elif op == "add_gen":
            letter = [rng.choice((1, -1)) * rng.randint(1, len(names))] * rng.randint(0, 1)
            fresh = next(f"g{k}" for k in itertools.count(1) if f"g{k}" not in names)
            move = T.AddGenerator(fresh, fp.words.parse_word(current.generators, ref.text(letter, names)))
        else:
            name, idx = rng.choice(removable)
            move = T.RemoveGenerator(name, idx)
            derivable.clear()  # substitution rewrites the relators
        current = T.apply_move(current, move)
    return current


def build_search(fp, seed: int, rounds: int) -> list[Task]:
    rng = random.Random(f"search/{seed}")
    P, B, S, T, W = fp.presentations, fp.bs, fp.search, fp.tietze, fp.words
    parse = P.parse_presentation
    bs = B.bs_presentation(B.BS23)
    t_word = W.parse_word(B.ST, "t")
    conjugated = t_word * bs.relators[0] * ~t_word
    variant, _ = T.apply_sequence(
        bs,
        [
            T.AddRelator(conjugated, P.TrivialityCertificate((P.CertFactor(t_word, 0, 1),))),
            T.RemoveRelator(0, P.TrivialityCertificate((P.CertFactor(~t_word, 0, 1),))),
        ],
    )
    z2, z_free = parse(Z2_TEXT), parse("< x | >")
    z_target, z2_target = parse("< a | >"), parse("< a | a^2 >")
    bases = [parse(text) for text in (Z2_TEXT, "< x | >", "< x | x^3 >")]
    # making a variant searches certificate streams, so rounds draw from a
    # pool.  The search's cost climbs steeply with the relator count: a
    # variant with 7 relators (3 of them empty) ran past 10 s where 4 or
    # fewer take milliseconds, so the pool keeps variants of at most 4.
    variants = []
    while len(variants) < 24:
        base = rng.choice(bases)
        variant_pres = _tietze_variant(fp, rng, base)
        if len(variant_pres.relators) <= 4:
            variants.append((base, variant_pres))
    # by size, so that a stratified draw spreads a pass's picks over the
    # pool and the search times vary less from seed to seed
    variants.sort(key=lambda v: (len(v[1].generators.names()), sum(len(r) for r in v[1].relators)))
    variant_draw = Draw(rng, rounds)

    def iso_task(kind, left, right, budget, verify_budget, pair=None, units=None) -> Task:
        def check(result) -> str | None:
            if not isinstance(result, S.Found):
                return f"expected Found, got {result}"
            if pair is not None and result.pair_index != pair:
                return f"found at pair {result.pair_index}, pinned at {pair}"
            if units is not None and result.steps != units:
                return f"found after {result.steps} units, pinned at {units}"
            if not S.verify_iso_witness(left, right, result.witness, verify_budget):
                return "witness fails re-verification"
            return None

        return Task(kind, lambda: S.iso_search(left, right, budget), check)

    def bs_oracle(v) -> bool:
        return B.bs_is_trivial(B.BS23, v)

    def subgroup_z_task() -> Task:
        budget = S.SearchBudget(rng.randint(100, 400), rng.randint(20, 60))

        def check(result) -> str | None:
            if not isinstance(result, S.SubgroupFound) or result.k != 0:
                return f"expected SubgroupFound with k=0, got {result}"
            if not S.verify_iso_witness(z_target, result.presentation, result.witness, 200):
                return "subgroup witness fails re-verification"
            return None

        return Task(
            "search.subgroup_z",
            lambda: S.subgroup_presentation_search(bs, bs_oracle, [t_word], z_target, budget),
            check,
        )

    rung_draws = [Draw(rng, rounds), Draw(rng, rounds)]

    def subgroup_z2_task(rung: int) -> Task:
        # <t> is Z, never Z2: every rung of the ladder must exhaust.  The
        # rungs are fixed, because task_ms.p50 falls among the low ones.
        size = rung_draws[rung].integer(*[(10, 100), (200, 300)][rung])
        budget = S.SearchBudget(size, size)
        return Task(
            f"search.subgroup_z2.{rung}",
            lambda: S.subgroup_presentation_search(bs, bs_oracle, [t_word], z2_target, budget),
            lambda r: None if isinstance(r, P.Exhausted) else f"expected Exhausted, got {r}",
        )

    tasks: list[Task] = []
    for n in range(rounds):
        round_tasks = [
            iso_task("search.iso_z2", z2, parse("< y | y^-2 >"), S.SearchBudget(200, 100), 200),
            iso_task("search.iso_z2_pin", z2, parse("< y | y^2 >"), S.SearchBudget(200, 100), 200, 4),
            iso_task("search.iso_z_pin", z_free, parse("< b | >"), S.SearchBudget(200, 100), 200, 4),
        ]
        base, variant_pres = variants[variant_draw.integer(0, len(variants) - 1)]
        round_tasks.append(iso_task("search.iso_tietze", base, variant_pres, S.SearchBudget(5000, 1500), 3000))
        round_tasks += [subgroup_z_task(), subgroup_z2_task(0), subgroup_z2_task(1)]
        if n == 0:
            round_tasks.append(
                iso_task("search.iso_bs_variant", bs, variant, S.SearchBudget(400, 300), 2000, 364, 6018)
            )
        rng.shuffle(round_tasks)
        tasks += round_tasks
    return tasks


# --------------------------------------------------------------------------
# check: the read side of certificates, Tietze logs and Smith normal form


def build_check(fp, seed: int, rounds: int) -> list[Task]:
    rng = random.Random(f"check/{seed}")
    P, B, T, W = fp.presentations, fp.bs, fp.tietze, fp.words
    pres_by_text = {text: P.parse_presentation(text) for text in (BS_TEXT, Z2_TEXT, AB_TEXT)}
    names_by_text = {BS_TEXT: ST_NAMES, Z2_TEXT: ("x",), AB_TEXT: ("a", "b")}

    def rel_letters(text):
        pres = pres_by_text[text]
        return [_letters_of(r, names_by_text[text]) for r in pres.relators]

    eval_draw = Draw(rng, 2 * rounds)

    def cert_eval_task(large: bool = False) -> Task:
        # evaluation cost grows as factor count squared x conjugator length.
        # Both grow with one draw, so the task times form a ladder from 5 x 3
        # to 20 x 16; large certificates, 30 factors x 20 letters, sit above
        # it, and task_ms.p90 of the check workload falls among them
        if large:
            factors, conj = 30, 20
        else:
            size = eval_draw()
            factors, conj = int(5 + 16 * size), int(3 + 14 * size)
        spec = _cert_spec(rng, 1, ST_NAMES, factors, conj)
        pres = pres_by_text[BS_TEXT]
        cert = _build_cert(fp, pres.generators, spec)
        def check(word) -> str | None:
            if _letters_of(word, ST_NAMES) != _cert_letters(spec, rel_letters(BS_TEXT), ST_NAMES):
                return "certificate evaluates to the wrong word"
            if not B.bs_is_trivial(B.BS23, word):
                return "certificate word is not Britton-trivial"
            return None

        return Task("cert_eval", lambda: P.certificate_word(pres, cert), check)

    cert_draws = {kind: Draw(rng, n * rounds) for kind, n in (("json", 1), ("check_cert", 6), ("check_move", 1))}

    def random_cert(kind, text, max_factors=12, max_conj=10):
        names = names_by_text[text]
        size = cert_draws[kind]()
        spec = _cert_spec(
            rng, len(pres_by_text[text].relators), names,
            1 + int(size * max_factors), int(size * (max_conj + 1)),
        )
        return spec, _cert_letters(spec, rel_letters(text), names)

    def json_task() -> Task:
        text = rng.choice(list(pres_by_text))
        spec, _ = random_cert("json", text)
        pres = pres_by_text[text]
        data = json.dumps(_build_cert(fp, pres.generators, spec).to_json())
        return Task(
            "cert.from_json",
            lambda: P.TrivialityCertificate.from_json(pres.generators, json.loads(data)),
            lambda c: None
            if [(str(f.conjugator), f.relator_index, f.sign) for f in c.factors] == spec
            else "JSON round trip changed the certificate",
        )

    def check_cert_task() -> Task:
        text = rng.choice(list(pres_by_text))
        names = names_by_text[text]
        spec, word = random_cert("check_cert", text)
        valid = rng.random() < 0.5
        if not valid:
            word = ref.reduce(word + [rng.choice((1, -1)) * rng.randint(1, len(names))])
        cert_json = json.dumps([{"conj": c, "rel": i, "sign": e} for c, i, e in spec])
        argv = ["check-cert", "-p", text, "--cert", cert_json, ref.text(word, names)]

        def check(result) -> str | None:
            code, out = result
            if valid and (code, out) != (0, "valid\n"):
                return f"valid certificate reported as {out!r}"
            if not valid and (code != 1 or not out.startswith("invalid: ")):
                return f"invalid certificate reported as {out!r}"
            return None

        return Task("cli.check_cert", lambda: cli(fp, argv), check)

    def sequence_task() -> Task:
        text = rng.choice(list(pres_by_text))
        base = pres_by_text[text]
        names = names_by_text[text]
        # each relator with the certificate spec that derives it from the
        # relators before it, or None for relators no certificate derives
        rels: list[tuple[str, list | None]] = [(ref.text(r, names), None) for r in rel_letters(text)]
        moves = []
        current = base
        for _ in range(rng.randint(2, 8)):
            op = rng.choice(["add_rel", "add_rel", "rem_rel", "add_gen"])
            if op == "rem_rel" and rels[-1][1] is None:
                op = "add_rel"
            if op == "add_rel":
                spec = _cert_spec(rng, len(rels), names, rng.randint(1, 3), rng.randint(0, 4))
                word = _cert_letters(spec, [ref.letters(r, names) for r, _ in rels], names)
                word_text = ref.text(word, names)
                cert = _build_cert(fp, current.generators, spec)
                move = T.AddRelator(W.parse_word(current.generators, word_text), cert)
                rels.append((word_text, spec))
            elif op == "rem_rel":
                move = T.RemoveRelator(len(rels) - 1, _build_cert(fp, current.generators, rels[-1][1]))
                rels.pop()
            else:
                definition = ref.reduce(
                    [rng.choice((1, -1)) * rng.randint(1, len(names)) for _ in range(rng.randint(1, 4))]
                )
                move = T.AddGenerator(
                    f"g{len(names)}", W.parse_word(current.generators, ref.text(definition, names))
                )
                names = names + (f"g{len(names)}",)
                rels.append((ref.text(ref.reduce([len(names)] + ref.inverse(definition)), names), None))
            moves.append(move)
            current = T.apply_move(current, move)
        expected_names, expected_rels = names, [r for r, _ in rels]

        def check(result) -> str | None:
            final, log = result
            if len(log.entries) != len(moves) or not log.verify_chain():
                return "move log does not chain"
            if log.entries[0].before_hash != T.presentation_hash(base):
                return "move log does not start at the base presentation"
            if log.final_hash != T.presentation_hash(final):
                return "move log does not end at the final presentation"
            if final.generators.names() != expected_names or [str(r) for r in final.relators] != expected_rels:
                return "move sequence produced the wrong presentation"
            return None

        return Task("tietze.apply_sequence", lambda: T.apply_sequence(base, moves), check)

    budget_draw = Draw(rng, rounds)

    def check_move_task(kind: str) -> Task:
        text = rng.choice(list(pres_by_text))
        pres = pres_by_text[text]
        names = names_by_text[text]
        if kind == "unverifiable":
            # a word that is nontrivial in its group can never be certified
            budget = budget_draw.integer(200, 600)
            nontrivial = {BS_TEXT: "t", Z2_TEXT: "x", AB_TEXT: "b"}[text]
            move = T.AddRelator(W.parse_word(pres.generators, nontrivial), None)
            return Task(
                "tietze.check_move.unverifiable",
                lambda: T.check_move(pres, move, budget),
                lambda r: None if isinstance(r, T.Unverifiable) and r.budget == budget else f"got {r}",
            )
        spec, word = random_cert("check_move", text, 2, 1 if kind == "search" else 6)
        if kind == "search":
            spec = spec[:1]
            word = _cert_letters(spec, rel_letters(text), names)
        word_text = ref.text(word, names)
        cert = None if kind == "search" else _build_cert(fp, pres.generators, spec)
        move = T.AddRelator(W.parse_word(pres.generators, word_text), cert)

        def check(result) -> str | None:
            if not isinstance(result, T.Valid) or result.certificate is None:
                return f"expected Valid, got {result}"
            found = [(str(f.conjugator), f.relator_index, f.sign) for f in result.certificate.factors]
            if _cert_letters(found, rel_letters(text), names) != word:
                return "returned certificate does not derive the relator"
            return None

        return Task(f"tietze.check_move.{kind}", lambda: T.check_move(pres, move, 3000), check)

    size_draw = Draw(rng, 3 * rounds)
    density_draw, dense_draw = Draw(rng, 3 * rounds, jitter=True), Draw(rng, (rounds + 1) // 2, jitter=True)

    def matrix_rows(n: int) -> list[list[int]]:
        density = density_draw.uniform(0.4, 1.0) if n < 7 else dense_draw.uniform(0.85, 1.0)
        return [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]

    def snf_task(n: int) -> Task:
        rows = matrix_rows(n)
        a = P.IntMatrix.from_rows(rows)

        def check(result) -> str | None:
            u, d, v = (list(map(list, m.entries)) for m in result)
            return ref.snf_error(rows, u, d, v)

        return Task(f"snf.{n}", lambda: P.smith_normal_form(a), check, SNF_DEADLINE_S)

    def abelian_task(n: int) -> Task:
        rows = matrix_rows(n)
        gens = [f"x{i}" for i in range(n)]
        relators = []
        for row in rows:
            word = " ".join(f"{g}^{e}" for g, e in zip(gens, row) if e)
            if word:
                relators.append(word)
        pres = P.parse_presentation(f"< {', '.join(gens)} | {', '.join(relators)} >")
        def check(result) -> str | None:
            free_rank, torsion = result
            r = ref.rank(rows)
            if free_rank != n - r:
                return f"free rank {free_rank}, expected {n - r}"
            if any(x < 2 for x in torsion) or any(y % x for x, y in zip(torsion, torsion[1:])):
                return "torsion orders break the divisibility chain"
            product = 1
            for x in torsion:
                product *= x
            if r == n and product != abs(ref.det(rows)):
                return f"torsion orders multiply to {product}, not to |det|"
            return None

        return Task(f"abelian.{n}", lambda: P.abelianization_invariants(pres), check, SNF_DEADLINE_S)

    tasks: list[Task] = []
    for n in range(rounds):
        round_tasks = [cert_eval_task(), cert_eval_task()] + [cert_eval_task(large=True) for _ in range(4)]
        round_tasks += [json_task(), sequence_task()] + [check_cert_task() for _ in range(6)]
        round_tasks += [check_move_task(rng.choice(["certified", "search"])), check_move_task("unverifiable")]
        # three small matrices, and in every other round one 7x7 or 8x8
        # dense enough to run away; fewer than a tenth of the tasks, so
        # task_ms.p90 measures work rather than the deadline
        sizes = [size_draw.integer(2, 6) for _ in range(3)] + [7 + n % 4 // 2] * (n % 2 == 0)
        round_tasks += [rng.choice((snf_task, abelian_task))(size) for size in sizes]
        rng.shuffle(round_tasks)
        tasks += round_tasks
    return tasks


FAMILIES = {
    "prove": build_prove,
    "decide": build_decide,
    "search": build_search,
    "check": build_check,
}

# The benchmark's workloads, each a mix of task families given as (family,
# rounds in one pass over the task list).  Two workloads with long runs
# average the shared machine's slow spells out better than four short ones.
# "prove" produces certificates and searches: it runs the certificate stream
# and the searches.  "check" decides and checks: the word problem, the
# tower harness, certificate evaluation, Tietze logs and Smith normal form;
# of the certificate stream it runs only the short searches of check_move.
# A pass holds over 150 tasks, so that more than ten lie beyond p90, and
# takes 3 to 4 s on a 2-core x86 host with Python 3.11, so that a 60 s run
# makes some fifteen passes.
WORKLOADS = {
    "prove": (("prove", 12), ("search", 6)),
    "check": (("decide", 8), ("check", 4)),
}


def build(fp, workload: str, seed: int, rounds: int | None = None) -> list[Task]:
    """The task list of one pass of ``workload``: its families' lists, spread
    evenly through each other.  ``rounds`` overrides every family's count."""
    lists = [FAMILIES[family](fp, seed, rounds or n) for family, n in WORKLOADS[workload]]
    placed = [((i + 0.5) / len(tasks), k, task) for k, tasks in enumerate(lists) for i, task in enumerate(tasks)]
    return [task for _, _, task in sorted(placed, key=lambda x: x[:2])]
