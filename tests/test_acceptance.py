"""End-to-end acceptance gate.

Each test here is one numbered criterion; it prints a single PASS/FAIL line
(visible under ``pytest -s``) and asserts the same condition, so ``pytest -v``
shows one verdict per criterion either way.  Budgets marked "recorded" were
measured once with the seeds used here and pinned with margin; the scripts in
scripts/ reproduce the measurements.
"""

import itertools
import random

from fpw.bs import (
    BS23,
    ST,
    apply_f,
    bs_equal,
    bs_is_trivial,
    bs_presentation,
    w_family,
)
from fpw.cli import main as cli_main
from fpw.harness import (
    cantor_pair,
    cantor_unpair,
    compress_stream,
    recover_cardinality,
    tower_oracle,
)
from fpw.presentations import (
    CertFactor,
    Exhausted,
    IntMatrix,
    TrivialityCertificate,
    abelianization_invariants,
    certificate_word,
    exponent_vector,
    is_perfect,
    parse_presentation,
    smith_normal_form,
    trivial_word_stream,
)
from fpw.search import (
    Found,
    SearchBudget,
    SubgroupFound,
    iso_search,
    subgroup_presentation_search,
    verify_iso_witness,
)
from fpw.tietze import (
    AddGenerator,
    AddRelator,
    RemoveGenerator,
    RemoveRelator,
    Valid,
    apply_move,
    apply_sequence,
    check_move,
)
from fpw.words import Alphabet, parse_word

from conftest import snf_error

BS_PRES = bs_presentation(BS23)
LETTERS = ["s", "s^-1", "t", "t^-1"]

# recorded: the seeded criterion-3 sample is fully enumerated by emission
# 20524; the complete census of trivial words of reduced length <= 10 needs
# 443438 (scripts/stream_budget_census.py)
STREAM_BUDGET = 25_000

# recorded: the 2-move variant witness appears at pair 364 after 6018 units
VARIANT_BUDGET = SearchBudget(400, 300)

# recorded: all 50 seeded sequences confirm with pair <= 52, steps <= 468
SEQUENCE_BUDGET = SearchBudget(5_000, 1_500)


def report(num, label, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def random_word(rng, alphabet, max_len):
    names = alphabet.names()
    parts = [
        rng.choice(names) + rng.choice(["", "^-1"])
        for _ in range(rng.randint(0, max_len))
    ]
    return parse_word(alphabet, " ".join(parts))


def random_certificate(rng, pres, max_factors, max_conj):
    factors = tuple(
        CertFactor(
            random_word(rng, pres.generators, max_conj),
            rng.randrange(len(pres.relators)),
            rng.choice([-1, 1]),
        )
        for _ in range(rng.randint(1, max_factors))
    )
    return TrivialityCertificate(factors)


def test_criterion_01_kernel_truth_table():
    ok = all(
        bs_is_trivial(BS23, apply_f(w_family(j), i)) == (j <= i)
        for i in range(5)
        for j in range(5)
    )
    report(1, "w_j dies under the i-fold doubling map exactly when j <= i", ok)


def test_criterion_02_non_hopfian_demo(capsys):
    code = cli_main(["demo", "non-hopfian"])
    out = capsys.readouterr().out
    with capsys.disabled():
        lines = out.splitlines()
        ok = (
            code == 0
            and sum(1 for l in lines if l.startswith("ok: ")) == 4
            and lines[-1]
            == "conclusion: a surjective endomorphism with nontrivial kernel"
        )
        report(2, "demo non-hopfian verifies the surjective map with kernel", ok)


def test_criterion_03_solver_vs_certificate_oracle():
    rng = random.Random(20257)

    certs = [random_certificate(rng, BS_PRES, 4, 4) for _ in range(500)]
    sound = all(
        bs_is_trivial(BS23, certificate_word(BS_PRES, c)) for c in certs
    )

    sample = []
    while len(sample) < 500:
        word = certificate_word(BS_PRES, random_certificate(rng, BS_PRES, 4, 4))
        if len(word.codes) <= 10:
            sample.append(word)
    judged = all(bs_is_trivial(BS23, word) for word in sample)

    pending = set(sample)
    for word, _ in itertools.islice(trivial_word_stream(BS_PRES), STREAM_BUDGET):
        pending.discard(word)
        if not pending:
            break
    report(
        3,
        "500 random certificates are solver-trivial and 500 short trivial "
        f"words all appear in the stream within {STREAM_BUDGET} emissions",
        sound and judged and not pending,
    )


def test_criterion_04_congruence():
    rng = random.Random(93)
    ok = True
    for _ in range(200):
        u = random_word(rng, ST, 8)
        v = u * certificate_word(BS_PRES, random_certificate(rng, BS_PRES, 2, 3))
        ok = ok and bs_equal(BS23, u, v)
        ok = ok and bs_equal(BS23, apply_f(u, 1), apply_f(v, 1))
    report(4, "u = u*(cert word) and the equality survives the doubling map", ok)


def test_criterion_05_cardinality_recovery():
    ok = True
    checked = 0
    for size in range(4):
        for subset in itertools.combinations(range(10), size):
            k = sum(1 for _ in compress_stream(subset))
            ok = ok and recover_cardinality(tower_oracle(k), k_max=4) == len(subset)
            checked += 1
    report(5, f"|W| recovered for all {checked} subsets of 0..9 with |W| <= 3", ok)


def test_criterion_06_compression_cases():
    empty = list(compress_stream([])) == []
    finite = list(compress_stream([5, 3, 5, 9])) == [0, 1, 2]
    infinite = list(itertools.islice(compress_stream(itertools.count()), 12)) == list(
        range(12)
    )
    report(6, "compression matches the empty, finite, and infinite cases", empty and finite and infinite)


def test_criterion_07_cantor_pairing():
    values = sorted(
        cantor_pair(x, s - x) for s in range(101) for x in range(s + 1)
    )
    bijective = values == list(range(5151))
    section = all(
        cantor_unpair(cantor_pair(x, s - x)) == (x, s - x)
        for s in range(101)
        for x in range(s + 1)
    )
    report(7, "pairing is bijective on x+y <= 100 and unpair inverts pair", bijective and section)


def test_criterion_08_smith_normal_form():
    rng = random.Random(271828)
    ok = True
    for _ in range(1000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        u, d, v = smith_normal_form(a)
        ok = ok and snf_error(a, u, d, v) is None
    ok = ok and abelianization_invariants(BS_PRES) == (1, ())
    ok = ok and not is_perfect(parse_presentation("< x | x^2 >"))
    ok = ok and is_perfect(parse_presentation("< x | x >"))
    report(8, "SNF postconditions on 1000 matrices plus the abelianization facts", ok)


def test_criterion_09_iso_search_positive_instances():
    trivial_left = parse_presentation("< x | x >")
    trivial_right = parse_presentation("< y | y >")
    a = iso_search(trivial_left, trivial_right, SearchBudget(50, 50))
    ok = isinstance(a, Found) and verify_iso_witness(
        trivial_left, trivial_right, a.witness, 200
    )

    z2 = parse_presentation("< x | x^2 >")
    z2_inv = parse_presentation("< y | y^-2 >")
    b = iso_search(z2, z2_inv, SearchBudget(200, 100))
    ok = ok and isinstance(b, Found) and verify_iso_witness(z2, z2_inv, b.witness, 200)

    # two relator moves produce < s, t | t s^-1 t^2 s t^-4 >
    t_word = parse_word(ST, "t")
    conjugated = t_word * BS_PRES.relators[0] * ~t_word
    variant, _ = apply_sequence(
        BS_PRES,
        [
            AddRelator(conjugated, TrivialityCertificate((CertFactor(t_word, 0, 1),))),
            RemoveRelator(
                0, TrivialityCertificate((CertFactor(~t_word, 0, 1),))
            ),
        ],
    )
    c = iso_search(BS_PRES, variant, VARIANT_BUDGET)
    ok = ok and isinstance(c, Found) and c.pair_index == 364
    ok = ok and verify_iso_witness(BS_PRES, variant, c.witness, 2000)
    report(9, "iso witnesses found and re-verified for all three positive cases", ok)


def test_criterion_10_subgroup_presentation_search():
    z_target = parse_presentation("< a | >")
    z2_target = parse_presentation("< a | a^2 >")

    found_z = subgroup_presentation_search(
        BS_PRES, lambda v: bs_is_trivial(BS23, v), [parse_word(ST, "t")],
        z_target, SearchBudget(400, 60),
    )
    ok = isinstance(found_z, SubgroupFound) and found_z.k == 0
    ok = ok and verify_iso_witness(
        z_target, found_z.presentation, found_z.witness, 200
    )

    x = Alphabet.of("x")
    z2_parent = parse_presentation("< x | x^2 >")
    parity = lambda v: exponent_vector(x, v)[0] % 2 == 0
    found_z2 = subgroup_presentation_search(
        z2_parent, parity, [parse_word(x, "x")], z2_target, SearchBudget(600, 200)
    )
    ok = ok and isinstance(found_z2, SubgroupFound) and found_z2.k == 1
    ok = ok and verify_iso_witness(
        z2_target, found_z2.presentation, found_z2.witness, 200
    )

    # the <t> subgroup is Z, never Z2: exhaust at every rung of a budget
    # ladder whose largest grants 10^5 stream emissions per side
    for budget in [
        SearchBudget(10, 10),
        SearchBudget(100, 100),
        SearchBudget(1000, 1000),
        SearchBudget(2000, 100_000),
    ]:
        outcome = subgroup_presentation_search(
            BS_PRES, lambda v: bs_is_trivial(BS23, v), [parse_word(ST, "t")],
            z2_target, budget,
        )
        ok = ok and isinstance(outcome, Exhausted)
    report(10, "Z and Z2 subgroups found and verified; the mismatch always exhausts", ok)


def _removable_generators(pres):
    out = []
    for idx, rel in enumerate(pres.relators):
        if not rel.codes:
            continue
        first = rel.codes[0]
        if first < 0:
            continue
        if any(abs(c) == first for c in rel.codes[1:]):
            continue
        out.append((pres.generators[first - 1], idx))
    return out


def _random_sequence(rng, pres, max_len=6, max_extra_gens=1):
    current = pres
    moves = []
    base_gen_count = len(pres.generators.names())
    for _ in range(rng.randint(1, max_len)):
        ops = []
        if current.relators:
            ops.append("add_rel")
        if len(current.relators) >= 2:
            ops.append("rem_rel")
        if len(current.generators.names()) < base_gen_count + max_extra_gens:
            ops.append("add_gen")
        removable = _removable_generators(current)
        if removable:
            ops.append("rem_gen")
        if not ops:
            break
        op = rng.choice(ops)
        if op == "add_rel":
            cert = random_certificate(rng, current, 2, 1)
            move = AddRelator(certificate_word(current, cert), cert)
        elif op == "rem_rel":
            idx = rng.randrange(len(current.relators))
            outcome = check_move(current, RemoveRelator(idx, None), budget=600)
            if not isinstance(outcome, Valid):
                continue
            move = RemoveRelator(idx, outcome.certificate)
        elif op == "add_gen":
            name = "g" + str(len(current.generators.names()))
            move = AddGenerator(name, random_word(rng, current.generators, 1))
        else:
            name, idx = rng.choice(removable)
            move = RemoveGenerator(name, idx)
        current = apply_move(current, move)
        moves.append(move)
    return moves, current


def test_criterion_11_tietze_engine():
    # round trips, verbatim
    z2 = parse_presentation("< x | x^2 >")
    xw = lambda text: parse_word(z2.generators, text)
    cert = TrivialityCertificate((CertFactor(xw(""), 0, 1), CertFactor(xw(""), 0, 1)))
    ok = apply_move(apply_move(z2, AddRelator(xw("x^4"), cert)), RemoveRelator(1, cert)) == z2
    free = parse_presentation("< x | >")
    ok = ok and apply_move(
        apply_move(free, AddGenerator("y", parse_word(free.generators, "x x"))),
        RemoveGenerator("y", 0),
    ) == free

    # 50 random valid sequences stay isomorphic to their base
    rng = random.Random(4177)
    bases = ["< x | x^2 >", "< x | >", "< x | x^3 >"]
    confirmed = 0
    for _ in range(50):
        base = parse_presentation(rng.choice(bases))
        _, variant = _random_sequence(rng, base)
        outcome = iso_search(base, variant, SEQUENCE_BUDGET)
        if isinstance(outcome, Found) and verify_iso_witness(
            base, variant, outcome.witness, 3000
        ):
            confirmed += 1
    ok = ok and confirmed == 50
    report(11, "round trips hold and 50 random move sequences stay isomorphic", ok)
