import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fpw import cli
from fpw.cli import _COMMANDS, EXIT_BUDGET, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, build_parser, main

BS_TEXT = "< s, t | s^-1 t^2 s = t^3 >"
W1_TEXT = "s^-1 t s t s^-1 t^-1 s t^-1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- words and bs


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "s s^-1 t")
    assert (code, out) == (EXIT_OK, "t\n")


def test_reduce_custom_alphabet(capsys):
    code, out, _ = run(capsys, "reduce", "a b b^-1", "--alphabet", "a,b")
    assert (code, out) == (EXIT_OK, "a\n")


def test_reduce_rejects_bad_word(capsys):
    code, _, err = run(capsys, "reduce", "s q")
    assert code == EXIT_DOMAIN
    assert err.startswith("error:")


def test_bs_triv(capsys):
    code, out, _ = run(capsys, "bs-triv", "s^-1 t^2 s t^-3")
    assert (code, out) == (EXIT_OK, "trivial\n")
    code, out, _ = run(capsys, "bs-triv", "t")
    assert (code, out) == (EXIT_OK, "nontrivial\n")


def test_bs_triv_other_params(capsys):
    code, out, _ = run(capsys, "bs-triv", "s^-1 t^2 s t^-5", "-m", "2", "-n", "5")
    assert (code, out) == (EXIT_OK, "trivial\n")


def test_bs_equal(capsys):
    code, out, _ = run(capsys, "bs-equal", "s^-1 t^2 s", "t^3")
    assert (code, out) == (EXIT_OK, "equal\n")
    code, out, _ = run(capsys, "bs-equal", "t", "t^2")
    assert (code, out) == (EXIT_OK, "different\n")


def test_bs_reduce(capsys):
    code, out, _ = run(capsys, "bs-reduce", "s t^3 s^-1")
    assert (code, out) == (EXIT_OK, "t^2\npinches: 1\n")


def test_bs_reduce_json(capsys):
    code, out, _ = run(capsys, "bs-reduce", "s t^3 s^-1", "--json")
    assert code == EXIT_OK
    assert json.loads(out) == {"normal_form": "t^2", "pinches": 1}


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_bs_reduce_past_the_int_to_str_digit_limit(capsys, mode):
    # in BS(1,3) the normal form is t^(3^10000), which has 4772 digits
    code, out, err = run(capsys, "bs-reduce", "-m", "1", "-n", "3", "s^-10000 t s^10000", *mode)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"error: normal form has a t-exponent of more than {sys.get_int_max_str_digits()} digits\n"
    assert "set_int_max_str_digits" not in err


def test_apply_f(capsys):
    code, out, _ = run(capsys, "apply-f", "t", "-i", "3")
    assert (code, out) == (EXIT_OK, "t^8\n")


def test_wfam(capsys):
    code, out, _ = run(capsys, "wfam", "-i", "1")
    assert (code, out) == (EXIT_OK, W1_TEXT + "\n")


def test_kernel_enum(capsys):
    code, out, _ = run(capsys, "kernel-enum", "-i", "0", "--count", "3")
    assert code == EXIT_OK
    assert out == "\ns t^3 s^-1 t^-2\ns t^-3 s^-1 t^2\n"


# ---------------------------------------------------------------- presentations


def test_enum_trivial(capsys):
    code, out, _ = run(capsys, "enum-trivial", "-p", "< x | x^2 >", "--count", "4")
    assert code == EXIT_OK
    assert out == "\nx^2\nx^-2\nx^2\n"


def test_enum_trivial_json_certs_verify(capsys):
    code, out, _ = run(
        capsys, "enum-trivial", "-p", "< x | x^2 >", "--count", "5", "--json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 5
    assert {"word", "cert"} <= set(rows[1])


def test_check_cert(capsys):
    cert = json.dumps([{"conj": "", "rel": 0, "sign": 1}])
    code, out, _ = run(capsys, "check-cert", "-p", "< x | x^2 >", "x x", "--cert", cert)
    assert (code, out) == (EXIT_OK, "valid\n")


def test_check_cert_mismatch(capsys):
    cert = json.dumps([{"conj": "", "rel": 0, "sign": 1}])
    code, out, _ = run(capsys, "check-cert", "-p", "< x | x^2 >", "x^4", "--cert", cert)
    assert code == EXIT_DOMAIN
    assert out.startswith("invalid: certificate derives")


def test_abelian(capsys):
    code, out, _ = run(capsys, "abelian", "-p", BS_TEXT)
    assert (code, out) == (EXIT_OK, "free rank: 1\ntorsion: none\n")
    code, out, _ = run(capsys, "abelian", "-p", "< x | x^2 >")
    assert (code, out) == (EXIT_OK, "free rank: 0\ntorsion: 2\n")


def test_abelian_json(capsys):
    code, out, _ = run(capsys, "abelian", "-p", "< x | x^2 >", "--json")
    assert json.loads(out) == {"free_rank": 0, "torsion": [2]}


def test_perfect(capsys):
    code, out, _ = run(capsys, "perfect", "-p", "< x | x >")
    assert (code, out) == (EXIT_OK, "perfect\n")
    code, out, _ = run(capsys, "perfect", "-p", "< x | x^2 >")
    assert (code, out) == (EXIT_OK, "not perfect\n")


def test_presentation_from_file(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("< x | x^2 >\n")
    code, out, _ = run(capsys, "abelian", "-p", str(path))
    assert (code, out) == (EXIT_OK, "free rank: 0\ntorsion: 2\n")


def test_presentation_file_missing(tmp_path, capsys):
    code, _, err = run(capsys, "abelian", "-p", str(tmp_path / "nope.txt"))
    assert code == EXIT_DOMAIN
    assert err.startswith("error:")


# ---------------------------------------------------------------- search


def test_hom_check_proved(capsys):
    code, out, _ = run(
        capsys, "hom-check", "-p", BS_TEXT, "-q", BS_TEXT, "--map", "s=s,t=t^2"
    )
    assert (code, out) == (EXIT_OK, "proved in 744 steps\n")


def test_hom_check_exhausted(capsys):
    code, out, _ = run(
        capsys,
        "hom-check", "-p", "< x | x^2 >", "-q", "< y | y^3 >",
        "--map", "x=y", "--budget", "50",
    )
    assert (code, out) == (EXIT_BUDGET, "exhausted after 50 steps\n")


def test_hom_decide(capsys):
    code, out, _ = run(capsys, "hom-decide", "-p", BS_TEXT, "--map", "s=s,t=t^2")
    assert (code, out) == (EXIT_OK, "homomorphism\n")
    code, out, _ = run(capsys, "hom-decide", "-p", "< x | x^2 >", "--map", "x=s")
    assert (code, out) == (EXIT_OK, "not a homomorphism\n")


def test_iso_search_found(capsys):
    code, out, _ = run(capsys, "iso-search", "-p", "< x | x^2 >", "-q", "< y | y^2 >")
    assert code == EXIT_OK
    assert out == "found: pair 4 after 4 steps\nforward: x=y\nbackward: y=x\n"


def test_iso_search_json(capsys):
    code, out, _ = run(
        capsys, "iso-search", "-p", "< x | x^2 >", "-q", "< y | y^2 >", "--json"
    )
    payload = json.loads(out)
    assert payload["pair"] == 4
    assert payload["witness"] == {"forward": "x=y", "backward": "y=x"}


def test_iso_search_exhausted(capsys):
    code, out, _ = run(
        capsys,
        "iso-search", "-p", "< x | x^2 >", "-q", "< y | y^3 >", "--candidates", "100",
    )
    assert (code, out) == (EXIT_BUDGET, "exhausted after 0 units\n")


def test_subgrp_presentation(capsys):
    code, out, _ = run(
        capsys,
        "subgrp-presentation", "--gens", "t", "-q", "< a | >",
        "--candidates", "400", "--budget", "60",
    )
    assert code == EXIT_OK
    assert out == (
        "found: k=0 after 7 units\n"
        "presentation: < W1 | >\n"
        "to-subgroup: a=W1\n"
        "from-subgroup: W1=a\n"
    )


def test_subgrp_presentation_json(capsys):
    code, out, _ = run(
        capsys,
        "subgrp-presentation", "--gens", "t", "-q", "< a | >",
        "--candidates", "400", "--budget", "60", "--json",
    )
    assert code == EXIT_OK
    assert json.loads(out) == {
        "k": 0, "presentation": "< W1 | >", "steps": 7, "witness": {"backward": "W1=a", "forward": "a=W1"},
    }


def test_subgrp_presentation_exhausted(capsys):
    code, out, _ = run(
        capsys,
        "subgrp-presentation", "--gens", "s", "-q", "< a | a^2 >",
        "--candidates", "60", "--budget", "30",
    )
    assert code == EXIT_BUDGET
    assert out.startswith("exhausted after")


# ---------------------------------------------------------------- tietze


def test_tietze_apply(capsys):
    moves = json.dumps([{"op": "add_gen", "name": "y", "definition": "x x"}])
    code, out, _ = run(capsys, "tietze-apply", "-p", "< x | x^2 >", "--moves", moves)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "< x, y | x^2, y x^-2 >"
    assert lines[1].startswith("hash: ")
    assert len(lines[1]) == len("hash: ") + 64


def test_tietze_apply_empty_list(capsys):
    code, out, _ = run(capsys, "tietze-apply", "-p", "< x | x^2 >", "--moves", "[]")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "< x | x^2 >"


def test_tietze_apply_moves_from_file(tmp_path, capsys):
    path = tmp_path / "moves.json"
    path.write_text(json.dumps([{"op": "add_gen", "name": "y", "definition": "x"}]))
    code, out, _ = run(capsys, "tietze-apply", "-p", "< x | >", "--moves", str(path))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "< x, y | y x^-1 >"


def test_tietze_apply_rejects_bad_move(capsys):
    moves = json.dumps([{"op": "rem_gen", "name": "z", "index": 0}])
    code, _, err = run(capsys, "tietze-apply", "-p", "< x | >", "--moves", moves)
    assert code == EXIT_DOMAIN
    assert "move 0" in err


def test_tietze_check_valid(capsys):
    move = json.dumps({"op": "rem_rel", "index": 1})
    code, out, _ = run(
        capsys, "tietze-check", "-p", "< x | x^2, x^4 >", "--move", move
    )
    assert (code, out) == (EXIT_OK, "valid\n")


@pytest.mark.parametrize(
    "text, move, cert",
    [
        ("< x | x^2, x^4 >", {"op": "rem_rel", "index": 1}, [{"conj": "", "rel": 0, "sign": 1}] * 2),
        ("< x | >", {"op": "add_gen", "name": "y", "definition": "x"}, None),
    ],
    ids=["searched-certificate", "generator-move"],
)
def test_tietze_check_valid_json(capsys, text, move, cert):
    code, out, _ = run(capsys, "tietze-check", "-p", text, "--move", json.dumps(move), "--json")
    assert code == EXIT_OK
    assert json.loads(out) == {"verdict": "valid", "cert": cert}


def test_tietze_check_unverifiable(capsys):
    move = json.dumps({"op": "rem_rel", "index": 1})
    code, out, _ = run(
        capsys,
        "tietze-check", "-p", "< x | x^2, x^4 >", "--move", move, "--budget", "1",
    )
    assert (code, out) == (EXIT_BUDGET, "unverifiable at budget 1\n")


def test_tietze_check_invalid(capsys):
    move = json.dumps({"op": "add_gen", "name": "x", "definition": "x"})
    code, out, _ = run(capsys, "tietze-check", "-p", "< x | >", "--move", move)
    assert code == EXIT_DOMAIN
    assert out.startswith("invalid:")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("check-cert", "-p", "< x | x^2 >", "x", "--cert", "[" * 5000), "JSON nested too deeply"),
        (("kernel-enum", "-i", "0", "--count", "-1"), "count must be >= 0"),
        (("enum-trivial", "-p", "< x | x^2 >", "--count", "-1"), "count must be >= 0"),
        (("check-cert", "-p", "< x | x^2 >", "x^2", "--cert", '[{"conj": "x", "rel": -1, "sign": 1}]'),
         "negative relator index: -1"),
        (("tietze-check", "-p", "< x | x^2 >", "--move",
          '{"op": "add_rel", "word": "x^2", "cert": [{"conj": "", "rel": -1, "sign": 1}]}'),
         "negative relator index: -1"),
        (("tietze-apply", "-p", "< x | x^2 >", "--moves", '{"op": "add_gen", "name": "y", "definition": "x"}'),
         "moves must be a JSON list"),
    ],
    ids=["cert-nested", "kernel-enum-count", "enum-trivial-count", "cert-empty-relator", "move-empty-relator",
         "moves-not-a-list"],
)
def test_rejected_input_in_process(capsys, argv, message):
    assert run(capsys, *argv) == (EXIT_DOMAIN, "", f"error: {message}\n")


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv,field",
    [
        (("check-cert", "-p", "< x | x^2 >", "x^2", "--cert", "[{}]"), "conj"),
        (("check-cert", "-p", "< x | x^2 >", "x^2", "--cert", "[1]"), "factor 0"),
        (("check-cert", "-p", "< x | x^2 >", "x^2", "--cert", '{"a":1}'), "list"),
        (("tietze-check", "-p", "< x | x^2 >", "--move", '{"op":"add_rel"}'), "word"),
        (("tietze-check", "-p", "< x, y | y x^-1 >", "--move", '{"op":"rem_gen","name":"y"}'), "index"),
        (("check-cert", "-p", "< x | x^2 >", "--cert", "[" * 100000, "x"), "JSON nested too deeply"),
        (("tietze-check", "-p", "< x | x^2 >", "--move", "nested.json"), "JSON nested too deeply"),
    ],
    ids=["cert-factor-missing-conj", "cert-factor-not-object", "cert-not-list",
         "add-rel-missing-word", "rem-gen-missing-index", "cert-nested-inline", "move-nested-file"],
)
def test_malformed_json_is_a_domain_error_not_a_traceback(argv, field, tmp_path):
    (tmp_path / "nested.json").write_text("[" * 100000)
    _assert_domain_error(argv, field, cwd=tmp_path)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("hom-check", "-p", "< x | x^2 >", "-q", "< x | x^2 >", "--map", "x=x", "--budget", "-1"),
         "budget must be >= 0"),
        (("tietze-check", "-p", "< x | x^2, x^4 >", "--move", '{"op":"rem_rel","index":1}',
          "--budget", "-1"), "budget must be >= 0"),
        (("demo", "non-hopfian", "--budget", "-1"), "budget must be >= 0"),
        (("apply-f", "t", "-i", "64"), "more than 1048576 letters"),
        (("bs-triv", "t^100000000000000000000"), "longer than 1048576 letters at position 0"),
        (("reduce", "x^-100000000000000000000", "--alphabet", "x"), "longer than 1048576 letters"),
        (("enum-trivial", "-p", "< x | x^2 >", "--count", "-1"), "count must be >= 0"),
        (("kernel-enum", "-i", "1", "--count", "-3"), "count must be >= 0"),
        (("check-cert", "-p", BS_TEXT, "t", "--cert", '[{"conj": "s^600000", "rel": 0, "sign": 1}]'),
         "certificate spells more than 1048576 letters"),
        (("hom-check", "-p", "< a | a^65536 >", "-q", "< t | >", "--map", "a=t^65536"),
         "substitution spells more than 1048576 letters"),
        (("subgrp-presentation", "--gens", "t^600000", "-q", "< y | >", "--candidates", "10", "--budget", "5"),
         "substitution spells more than 1048576 letters"),
        (("tietze-apply", "-p", "< x, y | x y^-600000, x^2 >", "--moves", '[{"op": "rem_gen", "name": "x", "index": 0}]'),
         "substitution spells more than 1048576 letters"),
    ],
    ids=["hom-check-budget", "tietze-check-budget", "demo-budget", "apply-f-huge-iterate",
         "bs-triv-huge-exponent", "reduce-huge-exponent", "enum-trivial-count", "kernel-enum-count",
         "check-cert-spelled", "hom-check-spelled", "subgrp-spelled", "tietze-rem-gen-spelled"],
)
def test_out_of_range_input_is_a_domain_error_not_a_traceback(argv, message):
    # the word-length cap must reject these before allocating anything
    _assert_domain_error(argv, message)


@pytest.mark.parametrize(
    "argv", [("wfam", "-i", "40"), ("wfam", "-i", str(10**18))], ids=["wfam", "wfam-huge"]
)
def test_witness_family_past_the_length_cap_is_a_domain_error(argv):
    # w_i has 3 * 2^i + 2i letters; w_19 is the first past the cap
    _assert_domain_error(argv, "would have more than 1048576 letters", timeout=30)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))


def test_check_cert_with_huge_conjugators_is_a_bounded_domain_error():
    # 40 conjugators of a million letters each: refused while decoding, not after
    # spelling 80 million letters (which ran out of memory under this limit)
    cert = json.dumps([{"conj": "s^1000000", "rel": 0, "sign": 1}] * 40)
    start = time.perf_counter()
    argv = ["check-cert", "-p", BS_TEXT, "t", "--cert", cert]
    proc = _run_cli_process(argv, 30, preexec_fn=_limit_address_space)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == EXIT_DOMAIN
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: certificate factor 1: conjugators pass 1048576 letters in all\n"


def test_check_cert_spelling_cancelling_conjugators_is_a_bounded_domain_error():
    # each conjugator reduces to nothing, but spelling all 40 would write 40 * 2^20
    # letters; the cap counts them as written, so factor 1 is refused at once
    cert = json.dumps([{"conj": "s^524288 s^-524288", "rel": 0, "sign": 1}] * 40)
    start = time.perf_counter()
    proc = _run_cli_process(["check-cert", "-p", BS_TEXT, "t", "--cert", cert], 30)
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (EXIT_DOMAIN, "")
    assert proc.stderr == "error: certificate factor 1: conjugators pass 1048576 letters in all\n"


def test_substitution_past_the_letter_cap_is_a_bounded_domain_error():
    # a^65536 under a -> t^65536 would spell 2^32 letters (under this limit it ended
    # in a MemoryError traceback); the lengths are summed before any image is copied
    argv = ["hom-decide", "-p", "< a | a^65536 >", "--map", "a=t^65536"]
    start = time.perf_counter()
    proc = _run_cli_process(argv, 30, preexec_fn=_limit_address_space)
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (EXIT_DOMAIN, "")
    assert proc.stderr == "error: substitution spells more than 1048576 letters\n"


@pytest.mark.parametrize("kmax", [40, 10**8])
def test_recover_card_reads_levels_past_the_witness_family_cap(kmax):
    # the linear witnesses v_j stay short and the scan stops at the first
    # survivor, so no k_max is too large
    proc = _run_cli_process(["demo", "recover-card", "--kmax", str(kmax)], timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "|W| = 2\n", "")


def _run_cli_process(argv, timeout=60, cwd=None, preexec_fn=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "fpw.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout,
        cwd=cwd, preexec_fn=preexec_fn,
    )


def _assert_domain_error(argv, message, timeout=60, cwd=None):
    proc = _run_cli_process(argv, timeout, cwd)
    assert proc.returncode == EXIT_DOMAIN
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr


DENSE_8X8 = [
    [-5, 7, 8, 1, -4, -4, -1, -4],
    [-8, 5, 7, -6, -3, 1, 9, -5],
    [-6, 7, -7, 2, 3, 7, -7, 7],
    [-4, -9, -2, 3, 1, -9, 9, 3],
    [9, 6, 5, 4, 1, 4, -1, -9],
    [3, 1, -6, -2, 1, -8, -3, -9],
    [3, -6, -7, 2, -9, 4, 5, -9],
    [1, 3, 9, -3, -7, 6, 5, -9],
]


def test_abelian_dense_8x8_exponent_matrix():
    # no zero exponent; invariant factors 1^5, 2, 2, 10673720 by the gcds of minors
    gens = [f"x{i}" for i in range(8)]
    relators = (" ".join(f"{g}^{e}" for g, e in zip(gens, row)) for row in DENSE_8X8)
    text = f"< {', '.join(gens)} | {', '.join(relators)} >"
    proc = _run_cli_process(["abelian", "-p", text], timeout=30)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "free rank: 0\ntorsion: 2, 2, 10673720\n"
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------- harness and demos


def test_pair_unpair(capsys):
    code, out, _ = run(capsys, "pair", "3", "5")
    assert (code, out) == (EXIT_OK, "41\n")
    code, out, _ = run(capsys, "unpair", "41")
    assert (code, out) == (EXIT_OK, "3 5\n")


def test_compress(capsys):
    code, out, _ = run(capsys, "compress", "5,3,5,9")
    assert (code, out) == (EXIT_OK, "0,1,2\n")


def test_demo_non_hopfian(capsys):
    code, out, _ = run(capsys, "demo", "non-hopfian")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("ok: ") for line in lines[:4])
    assert lines[-1] == "conclusion: a surjective endomorphism with nontrivial kernel"


def test_demo_recover_card(capsys):
    code, out, _ = run(capsys, "demo", "recover-card", "--set", "4,7", "--kmax", "4")
    assert (code, out) == (EXIT_OK, "|W| = 2\n")
    code, out, _ = run(capsys, "demo", "recover-card", "--set", "", "--kmax", "3")
    assert (code, out) == (EXIT_OK, "|W| = 0\n")


@pytest.mark.parametrize("argv", [["--set", "1,2,3,4,5,6,7,8", "--kmax", "5"], ["--set", "1,2,3,4,5,6,7"]])
def test_demo_recover_card_past_kmax_refuses_to_name_a_cardinality(capsys, argv):
    # the level-|W| oracle kills every witness up to v_{kmax+1}, so only a lower bound is known
    code, out, _ = run(capsys, "demo", "recover-card", *argv)
    assert (code, out) == (EXIT_BUDGET, "|W| >= 6 (raise --kmax to recover it)\n")


# ---------------------------------------------------------------- exit codes and determinism


def test_usage_error_exit_code(capsys):
    # the full tree names its subcommand argument by dest, not by a metavar
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == EXIT_USAGE
    assert "the following arguments are required: command" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == EXIT_USAGE
    assert "argument command: invalid choice: 'no-such-command'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["wfam"])  # missing required -i
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


def test_outputs_are_byte_deterministic(capsys):
    for argv in [
        ("wfam", "-i", "2"),
        ("iso-search", "-p", "< x | x^2 >", "-q", "< y | y^2 >", "--json"),
        ("enum-trivial", "-p", BS_TEXT, "--count", "8"),
        ("tietze-apply", "-p", "< x | x^2 >", "--moves", "[]", "--json"),
    ]:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


_REM_REL = json.dumps({"op": "rem_rel", "index": 1})
_ADD_Y = json.dumps({"op": "add_gen", "name": "y", "definition": "x"})
_ADD_X = json.dumps({"op": "add_gen", "name": "x", "definition": "x"})
_TWO_MOVES = json.dumps([{"op": "add_gen", "name": "y", "definition": "x x"},
                         {"op": "add_rel", "word": "x^4", "cert": [{"conj": "", "rel": 0, "sign": 1}] * 2}])
_BAD_MOVE = json.dumps([{"op": "rem_gen", "name": "z", "index": 0}])

# (argv, exit code, stdout, stderr) of every --json command in both modes, every
# budget exit and a two-move Tietze chain, recorded before the handlers shared
# one renderer: the CLI's output contract, byte for byte
_GOLDEN = (
    (("bs-reduce", "s t^3 s^-1"), EXIT_OK, "t^2\npinches: 1\n", ""),
    (("bs-reduce", "s^-1 t^2 s t^-3"), EXIT_OK, "t^0\npinches: 1\n", ""),
    (("enum-trivial", "-p", "< x | x^2 >", "--count", "3"), EXIT_OK, "\nx^2\nx^-2\n", ""),
    (("enum-trivial", "-p", "< x | x^2 >", "--count", "0"), EXIT_OK, "", ""),
    (("abelian", "-p", BS_TEXT), EXIT_OK, "free rank: 1\ntorsion: none\n", ""),
    (("abelian", "-p", "< a, b | a^2, b^4 >"), EXIT_OK, "free rank: 0\ntorsion: 2, 4\n", ""),
    (("iso-search", "-p", "< x | x^2 >", "-q", "< y | y^2 >"), EXIT_OK,
     "found: pair 4 after 4 steps\nforward: x=y\nbackward: y=x\n", ""),
    (("iso-search", "-p", "< x | x^2 >", "-q", "< y | y^3 >", "--candidates", "100"), EXIT_BUDGET,
     "exhausted after 0 units\n", ""),
    (("subgrp-presentation", "--gens", "t", "-q", "< a | >", "--candidates", "400", "--budget", "60"), EXIT_OK,
     "found: k=0 after 7 units\npresentation: < W1 | >\nto-subgroup: a=W1\nfrom-subgroup: W1=a\n", ""),
    (("subgrp-presentation", "--gens", "s", "-q", "< a | a^2 >", "--candidates", "60", "--budget", "30"), EXIT_BUDGET,
     "exhausted after 30 units\n", ""),
    (("tietze-apply", "-p", "< x | x^2 >", "--moves", "[]"), EXIT_OK,
     "< x | x^2 >\nhash: e7f0ecc6bd971d5d55c7edf02e936c1b031134b404e93c80477a83221c70456d\n", ""),
    (("tietze-apply", "-p", "< x | x^2 >", "--moves", _TWO_MOVES), EXIT_OK,
     "< x, y | x^2, y x^-2, x^4 >\n"
     "hash: 71bb33db48a18afcabc880f9ae26f09d7b082eab6356f823097927f3bc1a10f5\n", ""),
    (("tietze-check", "-p", "< x | x^2, x^4 >", "--move", _REM_REL), EXIT_OK, "valid\n", ""),
    (("tietze-check", "-p", "< x | >", "--move", _ADD_Y), EXIT_OK, "valid\n", ""),
    (("tietze-check", "-p", "< x | >", "--move", _ADD_X), EXIT_DOMAIN,
     "invalid: generator 'x' already present\n", ""),
    (("tietze-check", "-p", "< x | x^2, x^4 >", "--move", _REM_REL, "--budget", "1"), EXIT_BUDGET,
     "unverifiable at budget 1\n", ""),
    (("bs-reduce", "s t^3 s^-1", "--json"), EXIT_OK, '{"normal_form": "t^2", "pinches": 1}\n', ""),
    (("bs-reduce", "s^-1 t^2 s t^-3", "--json"), EXIT_OK, '{"normal_form": "t^0", "pinches": 1}\n', ""),
    (("enum-trivial", "-p", "< x | x^2 >", "--count", "3", "--json"), EXIT_OK,
     '[{"cert": [], "word": ""}, {"cert": [{"conj": "", "rel": 0, "sign": 1}], "word": "x^2"}, '
     '{"cert": [{"conj": "", "rel": 0, "sign": -1}], "word": "x^-2"}]\n', ""),
    (("enum-trivial", "-p", "< x | x^2 >", "--count", "0", "--json"), EXIT_OK, "[]\n", ""),
    (("abelian", "-p", BS_TEXT, "--json"), EXIT_OK, '{"free_rank": 1, "torsion": []}\n', ""),
    (("abelian", "-p", "< a, b | a^2, b^4 >", "--json"), EXIT_OK, '{"free_rank": 0, "torsion": [2, 4]}\n', ""),
    (("iso-search", "-p", "< x | x^2 >", "-q", "< y | y^2 >", "--json"), EXIT_OK,
     '{"pair": 4, "steps": 4, "witness": {"backward": "y=x", "forward": "x=y"}}\n', ""),
    (("iso-search", "-p", "< x | x^2 >", "-q", "< y | y^3 >", "--candidates", "100", "--json"), EXIT_BUDGET,
     "exhausted after 0 units\n", ""),
    (("subgrp-presentation", "--gens", "t", "-q", "< a | >", "--candidates", "400", "--budget", "60",
      "--json"), EXIT_OK,
     '{"k": 0, "presentation": "< W1 | >", "steps": 7, "witness": {"backward": "W1=a", '
     '"forward": "a=W1"}}\n', ""),
    (("subgrp-presentation", "--gens", "s", "-q", "< a | a^2 >", "--candidates", "60", "--budget", "30",
      "--json"), EXIT_BUDGET, "exhausted after 30 units\n", ""),
    (("tietze-apply", "-p", "< x | x^2 >", "--moves", "[]", "--json"), EXIT_OK,
     '{"hash": "e7f0ecc6bd971d5d55c7edf02e936c1b031134b404e93c80477a83221c70456d", '
     '"log": {"entries": []}, "presentation": "< x | x^2 >"}\n', ""),
    (("tietze-apply", "-p", "< x | x^2 >", "--moves", _TWO_MOVES, "--json"), EXIT_OK,
     '{"hash": "71bb33db48a18afcabc880f9ae26f09d7b082eab6356f823097927f3bc1a10f5", '
     '"log": {"entries": [{"after": "ad67a740d2b0f4d19acdbfd390620956dca9c5ca0e5ba314984d649493748e3c", '
     '"before": "e7f0ecc6bd971d5d55c7edf02e936c1b031134b404e93c80477a83221c70456d", '
     '"move": {"definition": "x^2", "name": "y", "op": "add_gen"}}, '
     '{"after": "71bb33db48a18afcabc880f9ae26f09d7b082eab6356f823097927f3bc1a10f5", '
     '"before": "ad67a740d2b0f4d19acdbfd390620956dca9c5ca0e5ba314984d649493748e3c", '
     '"move": {"cert": [{"conj": "", "rel": 0, "sign": 1}, {"conj": "", "rel": 0, "sign": 1}], '
     '"op": "add_rel", "word": "x^4"}}]}, "presentation": "< x, y | x^2, y x^-2, x^4 >"}\n', ""),
    (("tietze-check", "-p", "< x | x^2, x^4 >", "--move", _REM_REL, "--json"), EXIT_OK,
     '{"cert": [{"conj": "", "rel": 0, "sign": 1}, {"conj": "", "rel": 0, "sign": 1}], '
     '"verdict": "valid"}\n', ""),
    (("tietze-check", "-p", "< x | >", "--move", _ADD_Y, "--json"), EXIT_OK,
     '{"cert": null, "verdict": "valid"}\n', ""),
    (("tietze-check", "-p", "< x | >", "--move", _ADD_X, "--json"), EXIT_DOMAIN,
     "invalid: generator 'x' already present\n", ""),
    (("tietze-check", "-p", "< x | x^2, x^4 >", "--move", _REM_REL, "--budget", "1", "--json"), EXIT_BUDGET,
     "unverifiable at budget 1\n", ""),
    (("hom-check", "-p", "< x | x^2 >", "-q", "< y | y^3 >", "--map", "x=y", "--budget", "50"), EXIT_BUDGET,
     "exhausted after 50 steps\n", ""),
    (("hom-check", "-p", "< x | x^2 >", "-q", "< y | y^2 >", "--map", "x=y"), EXIT_OK, "proved in 2 steps\n", ""),
    (("tietze-apply", "-p", "< x | >", "--moves", _BAD_MOVE, "--json"), EXIT_DOMAIN,
     "", "error: move 0: presentation has no generator 'z'\n"),
)


@pytest.mark.parametrize(
    "argv, code, out, err", _GOLDEN,
    ids=[f"{k}-{argv[0]}{'-json' * ('--json' in argv)}" for k, (argv, *_) in enumerate(_GOLDEN)],
)
def test_output_matches_the_recorded_table(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


def test_installed_entry_point():
    exe = shutil.which("fpw")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "wfam", "-i", "1"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == W1_TEXT + "\n"


# ---------------------------------------------------------------- help text and argv fuzzing

# SHA-256 over `fpw --help`, `fpw demo --help` and every subcommand's --help in
# parser order at COLUMNS=80; any changed flag, default, help string or option
# order changes it
HELP_SHA256 = "b44316b9ed76b949142bba1d4ff3325cabf7759f0abe9ddf147239b8843f7f2b"


def _command_prefixes(parser, prefix=()):
    yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_prefixes(sub, (*prefix, name))


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse formats help differently across Python minor versions"
)
def test_help_text_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for prefix in _command_prefixes(build_parser()):
        with pytest.raises(SystemExit) as err:
            main([*prefix, "--help"])
        assert err.value.code == EXIT_OK
        digest.update(" ".join(prefix).encode() + b"\0" + capsys.readouterr().out.encode() + b"\0")
    assert digest.hexdigest() == HELP_SHA256


_FUZZ_WORDS = ["", "s", "t", "x x", "x^4", "s t^-1", "s^-1 t^2 s t^-3", W1_TEXT, "s q", "t^", "s^-",
               "t^99999999999", "(", "a b"]
_FUZZ_PRESENTATIONS = ["< x | x^2 >", "< y | y^3 >", "< x | x >", "< a | >", BS_TEXT,
                       "< a, b | a^3, a b a^-1 b^-1 >", "<>", "< x, x | >", "< x | y >",
                       "no-such-presentation.txt", "."]
_FUZZ_JSON = ["[", "]", "null", "[]", "{}", "[{}]", "[1]", "1e999", '[{"conj": "", "rel": 0, "sign": 1}]',
              '[{"conj": 5, "rel": "0", "sign": null}]', '[{"conj": "x", "rel": 9, "sign": 2}]',
              '{"op": "rem_rel", "index": 1}', '{"op": "add_gen", "name": "y", "definition": "x x"}',
              '{"op": 3}', '{"op": "rem_gen", "name": [], "index": "0"}', '[{"op": "add_rel", "word": 7}]',
              "[" * 5000 + "]" * 5000, '{"a": ' * 5000 + "1" + "}" * 5000]
_FUZZ_MAPS = ["x=y", "y=x", "x=s", "s=s,t=t^2", "s=t,t=s", "a=b,b=a", "x=", "=", "x=y,x=y", "q",
              "x=t^99999999999"]
_FUZZ_NATURALS = ["", "4,7", "0,1,2", "3,3", "-1", "1,,2", "a"]
_FUZZ_TEXT = {
    "word": _FUZZ_WORDS, "left": _FUZZ_WORDS, "right": _FUZZ_WORDS,
    "gens": _FUZZ_WORDS + ["t,s", "t^2, s t s^-1", "s,"],
    "presentation": _FUZZ_PRESENTATIONS, "codomain": _FUZZ_PRESENTATIONS,
    "cert": _FUZZ_JSON, "move": _FUZZ_JSON, "moves": _FUZZ_JSON,
    "map": _FUZZ_MAPS, "alphabet": ["s,t", "a,b", "x", "", "a,a", ","],
    "set": _FUZZ_NATURALS, "values": _FUZZ_NATURALS,
}
# at their defaults one search takes seconds, so the fuzz always sets them
_ALWAYS_DRAWN = {"budget", "candidates"}
# w_i doubles in length per step; rejecting w_19 and up takes most of a second
_INT_RANGES = {("wfam", "iterate"): (-3, 12)}


@st.composite
def _fuzz_argv(draw):
    name, _, _, arguments = draw(st.sampled_from([row for row in _COMMANDS if row[2] is not None]))
    argv = name.split()
    for flags, kw in arguments:
        dest = flags[-1].lstrip("-")
        positional = not flags[0].startswith("-")
        if dest not in _ALWAYS_DRAWN:
            odds = 9 if positional or kw.get("required") else 1
            if draw(st.integers(0, odds)) == 0:
                continue
        if kw.get("action") == "store_true":
            value = []
        elif kw.get("type") is int:
            value = [str(draw(st.integers(*_INT_RANGES.get((name, dest), (-3, 40)))))]
        else:
            value = [draw(st.sampled_from(_FUZZ_TEXT[dest]))]
        argv += value if positional else [flags[0], *value]
    return argv


@settings(max_examples=250, deadline=2000)
@given(_fuzz_argv())
def test_fuzzed_argv_ends_in_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as err:
            code = err.code
    assert code in {EXIT_OK, EXIT_DOMAIN, EXIT_BUDGET, EXIT_USAGE}


def _parse_outcome(parse, argv):
    """What parsing ``argv`` leaves: its Namespace, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exit_:
            return exit_.code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=2000)
@given(_fuzz_argv(), st.sampled_from([[], [], ["-h"], ["--json"], ["--no-such-flag"], ["extra"], ["-i", "x"]]))
# argvs that name no leaf parse with the full tree; the rest with their rows
@example([], [])
@example(["-h"], [])
@example(["bogus"], [])
@example(["--no-such-flag"], [])
@example(["demo"], [])
@example(["demo", "-h"], [])
@example(["demo", "bogus"], [])
@example(["demo", "--no-such-flag"], [])
@example(["demo", "recover-card"], ["--no-such-flag"])
def test_one_row_parse_matches_the_full_tree(argv, tail):
    # the full tree is the oracle: the same Namespace, or the same usage error
    # (or help) byte for byte
    argv = argv + tail
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(build_parser().parse_args, argv)


def test_a_call_builds_only_the_subparsers_it_names(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    cert = json.dumps([{"conj": "", "rel": 0, "sign": 1}])
    assert main(["check-cert", "-p", BS_TEXT, "s^-1 t^2 s t^-3", "--cert", cert]) == EXIT_OK
    assert built == ["check-cert"]
    built.clear()
    assert main(["demo", "non-hopfian"]) == EXIT_OK
    assert built == ["demo", "non-hopfian"]
    built.clear()
    # a usage error parses once, with the rows it names
    with pytest.raises(SystemExit) as err:
        main(["check-cert"])
    assert err.value.code == EXIT_USAGE
    assert built == ["check-cert"]
    capsys.readouterr()
