"""Layer timings for the search path, written as JSON numbers.

    PYTHONPATH=src python scripts/bench.py BENCH.json --label change

Times, each as the best of ``--repeat`` runs of ``time.perf_counter``:

  * the word kernel: ``*`` of two 4000-letter words over {s, t}, and the
    8748 reduced words of length 8, read off a fresh ``shortlex_stream`` (ms);
  * ``bs_equal`` on two 2000-letter words that differ by one inserted
    BS(2,3) relator, and the first 20 words of ``kernel_stream(1)`` (ms);
  * the first 20 words of ``kernel_stream(i)`` for i = 0..3, with each
    level's last word (ms per level and in all);
  * ``britton_reduce_counted`` against nesting depth j, with the pinches it
    counts (j each): BS(2,3) on s^-j t^(2^j) s^j for j = 4, 8, 12, 16 and
    BS(1,3) on s^-j t s^j for j = 1000, 2000, 4000 (ms per depth);
  * ``tower_oracle(level)`` for levels 0-3 over the first 20,000 words of
    ``shortlex_stream(ST)``, built once beforehand, with the words each level
    accepts (ms per level and in all);
  * cardinality recovery over every subset W of range(10) with |W| <= 3:
    ``compress_stream`` -> ``tower_oracle`` -> ``recover_cardinality(_, 4)``,
    with the subsets whose |W| it does not recover (ms);
  * ``certificate_word`` on a seeded 30-factor certificate with 20-letter
    conjugators over a 7-relator presentation on {a, b, c}, and on the
    one-factor certificate (empty, 20, +1) over the tower presentation for
    {4}, which reads 21 relators and derives v_1 (ms per case and in all,
    with the derived v_1);
  * ``smith_normal_form`` on seeded dense n x n matrices with entries in
    [-9, 9], for n = 4, 8, 12, 24, with the largest entry of U and V in bits
    (ms per size and in all);
  * the first 744 emissions of BS(2,3)'s certificate stream (emissions/s);
  * the first 20,000 emissions of the raw certificate stream ``_emissions``
    of ``< a, b | a^3, a b a^-1 b^-1 >`` and of the six-relator
    ``< a, b | a^2, b^2, a b a b, a^3 b, b^3 a, a b^-1 a b >``, whose blocks
    reach top relator indices 1 and 5 where BS(2,3)'s stay at 0 (ms per
    case and in all);
  * ``iso_search`` on the pinned BS(2,3) pair, its Tietze variant with the
    relator conjugated by t (ms, and candidate pairs/s);
  * ``iso_search`` over 5000 candidate pairs of ``< x | >`` and
    ``< y | y^2, y^-2 >``, all pruned by the abelian filter, so it exhausts
    after 0 units and decoding the candidate maps is most of its time (ms);
  * the Z2 rung of the subgroup search at 300 candidates and 300 emissions
    per side, which exhausts (ms);
  * ``semidecide_homomorphism`` for the doubling map (ms);
  * ``semidecide_trivial`` on the word of BS(2,3)'s 300th emission (ms);
  * ``semidecide_trivial`` of ``x`` over ``< x, y | x y x^-1 y^-1 >`` at
    budget 20,000: no emission has x's exponent vector, so it exhausts
    (ms, and the steps spent);
  * ``verify_iso_witness`` on the pinned pair's witness at budget 2000 (ms);
  * in-process ``fpw check-cert`` on a one-factor BS(2,3) certificate,
    ``fpw demo non-hopfian`` and ``fpw demo recover-card``, stdout
    captured (ms);
  * last, a fresh re-import of ``fpw`` and ``fpw.cli`` after dropping every
    ``fpw`` module from ``sys.modules``, as the benchmark does on each pass
    (ms), and the KB one more re-import holds under tracemalloc once its
    garbage is collected.

Each layer also records, as ``"gc": [g0, g1, g2]``, how many collections of
each generation its calls triggered, read from ``gc.get_stats()``.  What a
layer allocates sets how often the collector runs, and how often the full
collection runs sets how much dead re-imported module garbage a long run
holds at its peak.

The results go under ``--label`` in the output file, next to what other
labels it already holds, so one file can carry a parent and a change run
made on the same machine.  The script records numbers and never fails: a
layer that raises is written as null and its traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import platform
import random
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from fpw import cli
from fpw.bs import (
    BS23,
    ST,
    BSParams,
    britton_reduce_counted,
    bs_equal,
    bs_is_trivial,
    bs_presentation,
    doubling_map,
    kernel_stream,
)
from fpw.harness import (
    ExplicitFiniteSet,
    compress_stream,
    quotient_tower_presentation,
    recover_cardinality,
    tower_oracle,
)
from fpw.presentations import (
    CertFactor,
    FinitePresentation,
    IntMatrix,
    TrivialityCertificate,
    certificate_word,
    parse_presentation,
    semidecide_trivial,
    smith_normal_form,
    trivial_word_stream,
    _emissions,
)
from fpw.search import (
    SearchBudget,
    iso_search,
    semidecide_homomorphism,
    subgroup_presentation_search,
    verify_iso_witness,
)
from fpw.words import format_word, parse_word, shortlex_stream


def best_of(repeat: int, call) -> tuple[float, object]:
    """Fastest wall time of ``repeat`` calls, in seconds, with the last result."""
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def reduced_letters(seed: int, n: int, names: str = "st") -> list[str]:
    """``n`` letters over the one-letter generators ``names`` in which no
    letter follows its inverse; the first is ``names[0]``."""
    rng, letters, inverse = random.Random(seed), [names[0]], {}
    for g in names:
        inverse[g], inverse[f"{g}^-1"] = f"{g}^-1", g
    while len(letters) < n:
        letters.append(rng.choice([x for x in inverse if x != inverse[letters[-1]]]))
    return letters


def measure(repeat: int) -> dict:
    bs = bs_presentation(BS23)
    t = parse_word(ST, "t")
    variant = FinitePresentation(ST, (t * bs.relators[0] * ~t,))
    z2 = parse_presentation("< a | a^2 >")

    def concat_4000():
        u, v = (parse_word(ST, " ".join(reduced_letters(seed, 4000))) for seed in (1, 2))
        secs, uv = best_of(repeat, lambda: u * v)
        return {"ms": secs * 1e3, "letters": len(uv)}

    def shortlex_len8():
        secs, level = best_of(repeat, lambda: list(itertools.islice(shortlex_stream(ST), 4373, 13121)))
        return {"ms": secs * 1e3, "words": len(level)}

    def equal_2000():
        letters = reduced_letters(3, 2000)
        u = parse_word(ST, " ".join(letters))
        v = parse_word(ST, " ".join(letters[:1000] + [format_word(bs.relators[0])] + letters[1000:]))
        secs, equal = best_of(repeat, lambda: bs_equal(BS23, u, v))
        return {"ms": secs * 1e3, "letters": (len(u), len(v)), "equal": equal}

    def kernel1_20():
        secs, words = best_of(repeat, lambda: list(itertools.islice(kernel_stream(1), 20)))
        return {"ms": secs * 1e3, "words": len(words), "last": format_word(words[-1])}

    def kernel_by_level():
        level_ms, last = [], []
        for level in range(4):
            secs, words = best_of(repeat, lambda: list(itertools.islice(kernel_stream(level), 20)))
            level_ms.append(secs * 1e3)
            last.append(format_word(words[-1]))
        return {"ms": sum(level_ms), "level_ms": level_ms, "last": last}

    def britton_depth():
        series = {
            "bs23": (BS23, {j: f"s^-{j} t^{2 ** j} s^{j}" for j in (4, 8, 12, 16)}),
            "bs13": (BSParams(1, 3), {j: f"s^-{j} t s^{j}" for j in (1000, 2000, 4000)}),
        }
        out = {"ms": 0.0}
        for key, (params, texts) in series.items():
            depth_ms, pinches = [], []
            for text in texts.values():
                word = parse_word(ST, text)
                secs, (_, count) = best_of(repeat, lambda: britton_reduce_counted(params, word))
                depth_ms.append(secs * 1e3)
                pinches.append(count)
            out[key] = {"depth": list(texts), "ms": depth_ms, "pinches": pinches}
            out["ms"] += sum(depth_ms)
        return out

    def kernel_density_20000():
        words = list(itertools.islice(shortlex_stream(ST), 20000))
        level_ms, hits = [], []
        for level in range(4):
            oracle = tower_oracle(level)
            secs, n = best_of(repeat, lambda: sum(map(oracle, words)))
            level_ms.append(secs * 1e3)
            hits.append(n)
        return {"ms": sum(level_ms), "level_ms": level_ms, "hits": hits}

    def recover_sweep():
        subsets = [w for size in range(4) for w in itertools.combinations(range(10), size)]

        def run():
            return [w for w in subsets
                    if recover_cardinality(tower_oracle(sum(1 for _ in compress_stream(w))), 4) != len(w)]
        secs, mismatches = best_of(repeat, run)
        return {"ms": secs * 1e3, "subsets": len(subsets), "mismatches": len(mismatches)}

    def snf_by_size():
        sizes, size_ms, bits = (4, 8, 12, 24), [], []
        for n in sizes:
            rng = random.Random(n)
            a = IntMatrix(n, n, tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)))
            secs, (u, _, v) = best_of(repeat, lambda: smith_normal_form(a))
            size_ms.append(secs * 1e3)
            bits.append(max(abs(x).bit_length() for m in (u, v) for row in m.entries for x in row))
        return {"ms": sum(size_ms), "n": list(sizes), "size_ms": size_ms, "max_entry_bits": bits}

    def certificate_eval():
        abc = parse_presentation(
            "< a, b, c | a^2, b^3, c^5, a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1, a b a b >"
        )
        rng = random.Random(19)
        thirty = TrivialityCertificate(tuple(
            CertFactor(parse_word(abc.generators, " ".join(reduced_letters(k, 20, "abc"))),
                       rng.randrange(len(abc.relators)), rng.choice((1, -1)))
            for k in range(30)
        ))
        tower = quotient_tower_presentation(ExplicitFiniteSet.of([4]))
        v1 = TrivialityCertificate((CertFactor(ST.empty_word(), 20, 1),))
        secs_abc, _ = best_of(repeat, lambda: certificate_word(abc, thirty))
        secs_tower, word = best_of(repeat, lambda: certificate_word(tower, v1))
        return {"ms": (secs_abc + secs_tower) * 1e3, "case_ms": [secs_abc * 1e3, secs_tower * 1e3],
                "tower_v1": format_word(word)}

    def stream():
        secs, _ = best_of(repeat, lambda: list(itertools.islice(trivial_word_stream(bs), 744)))
        return {"emissions": 744, "ms": secs * 1e3, "emissions_per_s": 744 / secs}

    def stream_multi_relator():
        texts = ("< a, b | a^3, a b a^-1 b^-1 >", "< a, b | a^2, b^2, a b a b, a^3 b, b^3 a, a b^-1 a b >")
        case_ms, emitted = [], []
        for text in texts:
            pres = parse_presentation(text)
            secs, n = best_of(repeat, lambda: sum(1 for _ in itertools.islice(_emissions(pres), 20000)))
            case_ms.append(secs * 1e3)
            emitted.append(n)
        return {"ms": sum(case_ms), "case_ms": case_ms, "emissions": emitted}

    def iso_pinned():
        secs, found = best_of(repeat, lambda: iso_search(bs, variant, SearchBudget(400, 300)))
        pairs = found.pair_index + 1
        return {"ms": secs * 1e3, "pair_index": found.pair_index, "units": found.steps, "pairs_per_s": pairs / secs}

    def iso_filtered_5000():
        free, z2_twice = parse_presentation("< x | >"), parse_presentation("< y | y^2, y^-2 >")
        secs, outcome = best_of(repeat, lambda: iso_search(free, z2_twice, SearchBudget(5000, 100)))
        return {"ms": secs * 1e3, "pairs": 5000, "units": outcome.steps}

    def subgroup_z2():
        def run():
            return subgroup_presentation_search(
                bs, lambda w: bs_is_trivial(BS23, w), [t], z2, SearchBudget(300, 300)
            )
        secs, outcome = best_of(repeat, run)
        return {"ms": secs * 1e3, "units": outcome.steps}

    def hom_doubling():
        secs, proved = best_of(repeat, lambda: semidecide_homomorphism(doubling_map(), bs, bs, 20000))
        return {"ms": secs * 1e3, "steps": proved.steps}

    def trivial_300th():
        word, _ = next(itertools.islice(trivial_word_stream(bs), 299, None))
        secs, proved = best_of(repeat, lambda: semidecide_trivial(bs, word, 20000))
        return {"ms": secs * 1e3, "steps": proved.steps}

    def scan_unreachable():
        comm = parse_presentation("< x, y | x y x^-1 y^-1 >")
        x = parse_word(comm.generators, "x")
        secs, outcome = best_of(repeat, lambda: semidecide_trivial(comm, x, 20000))
        return {"ms": secs * 1e3, "steps": outcome.steps}

    def verify_pinned():
        witness = iso_search(bs, variant, SearchBudget(400, 300)).witness
        secs, ok = best_of(repeat, lambda: verify_iso_witness(bs, variant, witness, 2000))
        return {"ms": secs * 1e3, "verified": ok}

    def cli_call(*argv):
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            return code, out.getvalue()

        def run():
            secs, (code, out) = best_of(repeat, call)
            return {"ms": secs * 1e3, "exit": code, "last_line": out.splitlines()[-1]}
        return run

    cert = json.dumps([{"conj": "s", "rel": 0, "sign": 1}])
    check_cert = cli_call("check-cert", "-p", bs.format(), "s s^-1 t^2 s t^-3 s^-1", "--cert", cert)

    def reimport():
        def load():
            for name in [m for m in sys.modules if m == "fpw" or m.startswith("fpw.")]:
                del sys.modules[name]
            importlib.import_module("fpw")
            importlib.import_module("fpw.cli")

        secs, _ = best_of(repeat, load)
        gc.collect()
        tracemalloc.start()
        try:
            load()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return {"ms": secs * 1e3, "kb_held": held / 1024}

    layers = {}
    for name, run in [("words.concat_4000", concat_4000), ("words.shortlex_len8", shortlex_len8),
                      ("bs.equal_2000", equal_2000), ("bs.britton_depth", britton_depth),
                      ("bs.kernel1_20", kernel1_20), ("bs.kernel_by_level", kernel_by_level),
                      ("harness.kernel_density_20000", kernel_density_20000),
                      ("harness.recover_sweep", recover_sweep), ("presentations.snf_by_size", snf_by_size),
                      ("presentations.certificate_word", certificate_eval),
                      ("stream.bs23_744", stream), ("stream.multi_relator_20000", stream_multi_relator),
                      ("search.iso_pinned", iso_pinned), ("search.iso_filtered_5000", iso_filtered_5000),
                      ("search.subgroup_z2_300", subgroup_z2), ("search.hom_doubling", hom_doubling),
                      ("semidecide.trivial_300th", trivial_300th),
                      ("presentations.scan_unreachable_20000", scan_unreachable),
                      ("search.verify_pinned", verify_pinned),
                      ("cli.check_cert", check_cert), ("cli.demo_non_hopfian", cli_call("demo", "non-hopfian")),
                      ("cli.demo_recover_card", cli_call("demo", "recover-card")),
                      ("import.fpw_cli", reimport)]:  # last: it replaces the modules the others use
        before = collections()
        try:
            layers[name] = run()
            layers[name]["gc"] = [after - was for was, after in zip(before, collections())]
        except Exception:  # a broken layer is recorded as null, never a failed run
            traceback.print_exc()
            layers[name] = None
    return layers


def collections() -> list[int]:
    """Collections run so far, per generation."""
    return [gen["collections"] for gen in gc.get_stats()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path, help="JSON file to write (merged if it exists)")
    parser.add_argument("--label", default="run", help="key of this run in the output file")
    parser.add_argument("--repeat", type=int, default=15, help="runs per timing; the best is kept")
    args = parser.parse_args()
    run = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "repeat": args.repeat,
        "layers": measure(max(args.repeat, 1)),
    }
    try:
        data = json.loads(args.output.read_text())
    except (OSError, ValueError):
        data = {}
    data = data if isinstance(data, dict) else {}
    data[args.label] = run
    args.output.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
