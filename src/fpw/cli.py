"""Command-line front end.

One executable, ``fpw``, with a subcommand per operation.  Output is plain
text by default, byte-deterministic for fixed inputs; commands with
structured results accept ``--json``.

Exit codes: 0 success, 1 domain error (bad words, bad certificates, rejected
moves), 2 for searches that ran out of budget (Exhausted or Unverifiable),
64 for command-line usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from functools import partial
from pathlib import Path
from typing import Sequence

from .bs import (
    BS23,
    BSParams,
    ST,
    apply_f,
    bs_equal,
    bs_is_trivial,
    bs_presentation,
    britton_reduce_counted,
    doubling_map,
    f_preimage_witnesses,
    kernel_stream,
    w_family,
)
from .harness import (
    ExplicitFiniteSet,
    cantor_pair,
    cantor_unpair,
    compress_stream,
    recover_cardinality,
    tower_oracle,
)
from .presentations import (
    TrivialityCertificate,
    abelianization_invariants,
    certificate_word,
    is_perfect,
    parse_presentation,
    trivial_word_stream,
)
from .search import (
    Found,
    Proved,
    SearchBudget,
    SubgroupFound,
    decide_homomorphism,
    iso_search,
    semidecide_homomorphism,
    subgroup_presentation_search,
)
from .tietze import (
    Invalid,
    Valid,
    apply_sequence,
    check_move,
    parse_move,
    presentation_hash,
)
from .words import (
    Alphabet,
    GeneratorMap,
    format_word,
    parse_word,
    substitute,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; that code is taken."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _params(args) -> BSParams:
    return BSParams(args.m, args.n)


def _load_json_arg(text: str):
    """Inline JSON if it looks like it, else the contents of a file path."""
    source = text.strip()
    if not source.startswith(("[", "{")):
        source = Path(text).read_text()
    try:
        return json.loads(source)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _load_presentation(text: str):
    """Accept either presentation text or a path to a file holding one."""
    if "<" in text:
        return parse_presentation(text)
    return parse_presentation(Path(text).read_text())


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------- words


def _cmd_reduce(args) -> int:
    alpha = Alphabet.of(*(p.strip() for p in args.alphabet.split(",")))
    w = parse_word(alpha, args.word)
    print(format_word(w))
    return EXIT_OK


# ---------------------------------------------------------------- bs


def _cmd_bs_triv(args) -> int:
    w = parse_word(ST, args.word)
    print("trivial" if bs_is_trivial(_params(args), w) else "nontrivial")
    return EXIT_OK


def _cmd_bs_equal(args) -> int:
    u = parse_word(ST, args.left)
    v = parse_word(ST, args.right)
    print("equal" if bs_equal(_params(args), u, v) else "different")
    return EXIT_OK


def _cmd_bs_reduce(args) -> int:
    w = parse_word(ST, args.word)
    sw, pinches = britton_reduce_counted(_params(args), w)
    if args.json:
        _print_json({"normal_form": sw.format(), "pinches": pinches})
    else:
        print(sw.format())
        print(f"pinches: {pinches}")
    return EXIT_OK


def _cmd_apply_f(args) -> int:
    w = parse_word(ST, args.word)
    print(format_word(apply_f(w, args.iterate)))
    return EXIT_OK


def _cmd_wfam(args) -> int:
    print(format_word(w_family(args.iterate)))
    return EXIT_OK


def _cmd_kernel_enum(args) -> int:
    if args.count < 0:
        raise ValueError("count must be >= 0")
    for w in itertools.islice(kernel_stream(args.iterate), args.count):
        print(format_word(w))
    return EXIT_OK


# ---------------------------------------------------------------- presentations


def _cmd_enum_trivial(args) -> int:
    if args.count < 0:
        raise ValueError("count must be >= 0")
    pres = _load_presentation(args.presentation)
    emitted = list(itertools.islice(trivial_word_stream(pres), args.count))
    if args.json:
        _print_json([{"word": format_word(w), "cert": c.to_json()} for w, c in emitted])
    else:
        for w, _ in emitted:
            print(format_word(w))
    return EXIT_OK


def _cmd_check_cert(args) -> int:
    pres = _load_presentation(args.presentation)
    w = parse_word(pres.generators, args.word)
    cert = TrivialityCertificate.from_json(pres.generators, _load_json_arg(args.cert))
    derived = certificate_word(pres, cert)
    if derived == w:
        print("valid")
        return EXIT_OK
    print(f"invalid: certificate derives '{format_word(derived)}'")
    return EXIT_DOMAIN


def _cmd_abelian(args) -> int:
    pres = _load_presentation(args.presentation)
    rank, torsion = abelianization_invariants(pres)
    if args.json:
        _print_json({"free_rank": rank, "torsion": list(torsion)})
    else:
        print(f"free rank: {rank}")
        print("torsion: " + (", ".join(str(d) for d in torsion) if torsion else "none"))
    return EXIT_OK


def _cmd_perfect(args) -> int:
    pres = _load_presentation(args.presentation)
    print("perfect" if is_perfect(pres) else "not perfect")
    return EXIT_OK


# ---------------------------------------------------------------- search


def _cmd_hom_check(args) -> int:
    dom = _load_presentation(args.presentation)
    cod = _load_presentation(args.codomain)
    phi = GeneratorMap.parse(dom.generators, cod.generators, args.map)
    outcome = semidecide_homomorphism(phi, dom, cod, args.budget)
    if isinstance(outcome, Proved):
        print(f"proved in {outcome.steps} steps")
        return EXIT_OK
    print(f"exhausted after {outcome.steps} steps")
    return EXIT_BUDGET


def _cmd_hom_decide(args) -> int:
    dom = _load_presentation(args.presentation)
    phi = GeneratorMap.parse(dom.generators, ST, args.map)
    params = _params(args)
    ok = decide_homomorphism(phi, dom, lambda w: bs_is_trivial(params, w))
    print("homomorphism" if ok else "not a homomorphism")
    return EXIT_OK


def _cmd_iso_search(args) -> int:
    left = _load_presentation(args.presentation)
    right = _load_presentation(args.codomain)
    budget = SearchBudget(args.candidates, args.budget)
    outcome = iso_search(left, right, budget)
    if isinstance(outcome, Found):
        if args.json:
            _print_json(
                {
                    "pair": outcome.pair_index,
                    "steps": outcome.steps,
                    "witness": outcome.witness.to_json(),
                }
            )
        else:
            print(f"found: pair {outcome.pair_index} after {outcome.steps} steps")
            print(f"forward: {outcome.witness.forward.format()}")
            print(f"backward: {outcome.witness.backward.format()}")
        return EXIT_OK
    print(f"exhausted after {outcome.steps} units")
    return EXIT_BUDGET


def _cmd_subgrp(args) -> int:
    params = _params(args)
    parent = bs_presentation(params)
    gens = [parse_word(ST, text.strip()) for text in args.gens.split(",")]
    target = _load_presentation(args.codomain)
    budget = SearchBudget(args.candidates, args.budget)
    outcome = subgroup_presentation_search(
        parent, lambda w: bs_is_trivial(params, w), gens, target, budget
    )
    if isinstance(outcome, SubgroupFound):
        if args.json:
            _print_json(
                {
                    "k": outcome.k,
                    "steps": outcome.steps,
                    "presentation": outcome.presentation.format(),
                    "witness": outcome.witness.to_json(),
                }
            )
        else:
            print(f"found: k={outcome.k} after {outcome.steps} units")
            print(f"presentation: {outcome.presentation.format()}")
            print(f"to-subgroup: {outcome.witness.forward.format()}")
            print(f"from-subgroup: {outcome.witness.backward.format()}")
        return EXIT_OK
    print(f"exhausted after {outcome.steps} units")
    return EXIT_BUDGET


# ---------------------------------------------------------------- tietze


def _cmd_tietze_apply(args) -> int:
    pres = _load_presentation(args.presentation)
    moves_data = _load_json_arg(args.moves)
    if not isinstance(moves_data, list):
        raise ValueError("moves must be a JSON list")
    result, log = apply_sequence(pres, moves_data)
    if args.json:
        _print_json(
            {
                "presentation": result.format(),
                "hash": presentation_hash(result),
                "log": log.to_json(),
            }
        )
    else:
        print(result.format())
        print(f"hash: {presentation_hash(result)}")
    return EXIT_OK


def _cmd_tietze_check(args) -> int:
    pres = _load_presentation(args.presentation)
    move = parse_move(pres, _load_json_arg(args.move))
    outcome = check_move(pres, move, args.budget)
    if isinstance(outcome, Valid):
        if args.json:
            cert = None if outcome.certificate is None else outcome.certificate.to_json()
            _print_json({"verdict": "valid", "cert": cert})
        else:
            print("valid")
        return EXIT_OK
    if isinstance(outcome, Invalid):
        print(f"invalid: {outcome.reason}")
        return EXIT_DOMAIN
    print(f"unverifiable at budget {outcome.budget}")
    return EXIT_BUDGET


# ---------------------------------------------------------------- harness


def _cmd_pair(args) -> int:
    print(cantor_pair(args.x, args.y))
    return EXIT_OK


def _cmd_unpair(args) -> int:
    x, y = cantor_unpair(args.z)
    print(f"{x} {y}")
    return EXIT_OK


def _cmd_compress(args) -> int:
    values = [int(p) for p in args.values.split(",")] if args.values else []
    print(",".join(str(v) for v in compress_stream(values)))
    return EXIT_OK


# ---------------------------------------------------------------- demos


def _cmd_demo_non_hopfian(args) -> int:
    params = BS23
    pres = bs_presentation(params)
    f = doubling_map()

    hom = semidecide_homomorphism(f, pres, pres, args.budget)
    checks = [("the doubling map is a homomorphism", isinstance(hom, Proved))]

    pre = f_preimage_witnesses()
    surjective = all(
        bs_equal(params, substitute(pre.image(g), f), ST.gen_word(g))
        for g in ST
    )
    checks.append(("every generator has a preimage, so it is surjective", surjective))

    w1 = w_family(1)
    checks.append(("w1 is nontrivial", not bs_is_trivial(params, w1)))
    checks.append(("f(w1) is trivial", bs_is_trivial(params, substitute(w1, f))))

    failed = False
    for label, ok in checks:
        print(f"{'ok' if ok else 'FAIL'}: {label}")
        failed = failed or not ok
    if failed:
        return EXIT_DOMAIN
    print("conclusion: a surjective endomorphism with nontrivial kernel")
    return EXIT_OK


def _cmd_demo_recover_card(args) -> int:
    w_set = ExplicitFiniteSet.parse(args.set)
    oracle = tower_oracle(len(w_set))
    k = recover_cardinality(oracle, args.kmax)
    if k > args.kmax:
        # past its bound the recovery only knows that v_0 .. v_{kmax+1} all die
        print(f"|W| >= {args.kmax + 1} (raise --kmax to recover it)")
        return EXIT_BUDGET
    print(f"|W| = {k}")
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _arg(*flags, **kw):
    """One argument spec: the flags and keywords of an add_argument call."""
    return flags, kw


_P = partial(_arg, "-p", "--presentation", required=True)
_Q = partial(_arg, "-q", "--codomain", required=True)
_I = partial(_arg, "-i", "--iterate", type=int)
_BUDGET = partial(_arg, "--budget", type=int, default=20000)
_CANDIDATES = partial(_arg, "--candidates", type=int, default=2000)
_JSON = _arg("--json", action="store_true")
_WORD = _arg("word")
_MN = (
    _arg("-m", type=int, default=2, help="left exponent (default 2)"),
    _arg("-n", type=int, default=3, help="right exponent (default 3)"),
)

# One row per subcommand: name, help, handler, arguments in help order.  A row
# without a handler is a group; "group leaf" rows register under it.
_COMMANDS = (
    ("reduce", "freely reduce a word", _cmd_reduce,
     (_WORD, _arg("--alphabet", default="s,t", help="comma-separated generator names"))),
    ("bs-triv", "decide triviality in BS(m,n)", _cmd_bs_triv, (_WORD, *_MN)),
    ("bs-equal", "decide equality in BS(m,n)", _cmd_bs_equal, (_arg("left"), _arg("right"), *_MN)),
    ("bs-reduce", "Britton normal form and pinch count", _cmd_bs_reduce, (_WORD, *_MN, _JSON)),
    ("apply-f", "apply the doubling endomorphism i times", _cmd_apply_f, (_WORD, _I(default=1))),
    ("wfam", "print the i-th witness word w_i", _cmd_wfam, (_I(required=True),)),
    ("kernel-enum", "enumerate kernel words of the i-th iterate", _cmd_kernel_enum,
     (_I(required=True), _arg("--count", type=int, default=5))),
    ("enum-trivial", "enumerate provably trivial words", _cmd_enum_trivial,
     (_P(), _arg("--count", type=int, default=10), _JSON)),
    ("check-cert", "verify a triviality certificate", _cmd_check_cert,
     (_P(), _WORD, _arg("--cert", required=True, help="certificate JSON (inline or a file path)"))),
    ("abelian", "abelianization invariants", _cmd_abelian, (_P(), _JSON)),
    ("perfect", "is the abelianization trivial?", _cmd_perfect, (_P(),)),
    ("hom-check", "semi-decide that a map is a homomorphism", _cmd_hom_check,
     (_P(help="domain presentation"), _Q(help="codomain presentation"),
      _arg("--map", required=True, help='e.g. "s=s,t=t^2"'), _BUDGET())),
    ("hom-decide", "decide a map into BS(m,n)", _cmd_hom_decide,
     (_P(help="domain presentation"), _arg("--map", required=True, help="images over s,t"), *_MN)),
    ("iso-search", "search for an isomorphism witness", _cmd_iso_search,
     (_P(), _Q(), _CANDIDATES(help="map pairs to try"), _BUDGET(help="stream emissions per side"),
      _JSON)),
    ("subgrp-presentation", "search for a subgroup presentation in BS(m,n)", _cmd_subgrp,
     (_arg("--gens", required=True, help="comma-separated generating words over s,t"),
      _Q(help="conjectured presentation"), *_MN, _CANDIDATES(), _BUDGET(), _JSON)),
    ("tietze-apply", "apply a JSON list of moves", _cmd_tietze_apply,
     (_P(), _arg("--moves", required=True, help="moves JSON (inline or a file path)"), _JSON)),
    ("tietze-check", "validate one move, searching if needed", _cmd_tietze_check,
     (_P(), _arg("--move", required=True, help="move JSON (inline or a file path)"), _BUDGET(),
      _JSON)),
    ("pair", "Cantor pairing", _cmd_pair, (_arg("x", type=int), _arg("y", type=int))),
    ("unpair", "Cantor unpairing", _cmd_unpair, (_arg("z", type=int),)),
    ("compress", "deduplicate a finite int stream", _cmd_compress,
     (_arg("values", help="comma-separated non-negative integers"),)),
    ("demo", "worked demonstrations", None, ()),
    ("demo non-hopfian", "machine-checked non-Hopf argument", _cmd_demo_non_hopfian, (_BUDGET(),)),
    ("demo recover-card", "recover |W| from the tower oracle", _cmd_demo_recover_card,
     (_arg("--set", default="4,7", help="comma-separated finite set W"),
      _arg("--kmax", type=int, default=5))),
)


# a partial tree's usage line names every command, as the full tree's does;
# the full tree sets none, since a metavar renames the argument in its errors
_METAVARS = {
    group: "{" + ",".join(n.rpartition(" ")[2] for n, *_ in _COMMANDS if n.rpartition(" ")[0] == group) + "}"
    for group in ("", "demo")
}


def build_parser(rows=_COMMANDS) -> _Parser:
    """The parser for ``rows`` of the command table; by default the full tree."""
    parser = _Parser(prog="fpw", description="finitely presented group workbench")
    metavars = {} if rows is _COMMANDS else _METAVARS
    groups = {"": parser.add_subparsers(dest="command", required=True, metavar=metavars.get(""))}
    for name, summary, func, arguments in rows:
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=summary)
        for flags, kw in arguments:
            p.add_argument(*flags, **kw)
        if func is None:
            groups[name] = p.add_subparsers(dest=f"{leaf}_command", required=True, metavar=metavars.get(name))
        else:
            p.set_defaults(func=func)
    return parser


def _own_rows(argv: list[str]) -> list[tuple]:
    """The rows on the path to the leaf command ``argv`` names, group first;
    empty when it names no leaf."""
    rows = [row for row in _COMMANDS if row[0].split() == argv[: row[0].count(" ") + 1]]
    return rows if rows and rows[-1][2] is not None else []


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse once, with only the rows ``argv`` names when it names a leaf:
    building the other subparsers costs far more than parsing.  Help with no
    leaf and unknown names go through the full tree.  No parser outlives the
    call."""
    return build_parser(_own_rows(argv) or _COMMANDS).parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    # every rejected input is a ValueError: syntax errors, bad JSON, rejected moves
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
