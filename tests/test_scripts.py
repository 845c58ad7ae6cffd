"""Smoke test: every script in scripts/ runs with its smallest arguments and
prints the lines pinned for them."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,expected",
    [
        ("stream_budget_census.py", ["--max-len", "2", "--stream-cap", "200"], []),
        (
            "stream_budget_census.py",
            ["--max-len", "8", "--stream-cap", "200"],
            ["trivial words of reduced length <= 8: 15", "max position: 151"],
        ),
    ],
)
def test_script_runs(script, args, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for line in expected:  # a pinned line may go on, after a word boundary, with a timing
        assert re.search(rf"^{re.escape(line)}\b", proc.stdout, re.M), line


def test_bench_writes_layer_numbers(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for label in ("parent", "change"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench.py"), str(out), "--label", label, "--repeat", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert set(data) == {"parent", "change"}
    run = data["change"]
    assert run["cores"] >= 1 and run["python"]
    assert run["layers"]["words.concat_4000"]["letters"] == 8000
    assert run["layers"]["words.shortlex_len8"]["words"] == 8748
    assert run["layers"]["bs.equal_2000"]["letters"] == [2000, 2005]
    assert run["layers"]["bs.equal_2000"]["equal"] is True
    depth = run["layers"]["bs.britton_depth"]
    assert depth["bs23"]["depth"] == [4, 8, 12, 16] and depth["bs13"]["depth"] == [1000, 2000, 4000]
    for series in (depth["bs23"], depth["bs13"]):
        assert series["pinches"] == series["depth"]  # one pinch per nesting level
        assert len(series["ms"]) == len(series["depth"]) and all(ms > 0 for ms in series["ms"])
    assert run["layers"]["bs.kernel1_20"]["words"] == 20
    assert run["layers"]["bs.kernel1_20"]["last"] == "s^-1 t s t s^-1 t^-1 s t^-1"
    by_level = run["layers"]["bs.kernel_by_level"]
    assert by_level["last"] == ["s t^2 s t^-3 s^-2"] + ["s^-1 t s t s^-1 t^-1 s t^-1"] * 3
    assert len(by_level["level_ms"]) == 4 and all(ms > 0 for ms in by_level["level_ms"])
    snf = run["layers"]["presentations.snf_by_size"]
    assert snf["n"] == [4, 8, 12, 24] and len(snf["size_ms"]) == 4 and all(ms > 0 for ms in snf["size_ms"])
    assert len(snf["max_entry_bits"]) == 4 and all(bits >= 1 for bits in snf["max_entry_bits"])
    cert_eval = run["layers"]["presentations.certificate_word"]
    assert len(cert_eval["case_ms"]) == 2 and all(ms > 0 for ms in cert_eval["case_ms"])
    assert cert_eval["tower_v1"] == "s^-1 t s t s^-1 t^-1 s t^-1"  # v_1, relator 20 of the tower for {4}
    assert run["layers"]["harness.kernel_density_20000"]["hits"] == [25, 45, 45, 45]
    assert run["layers"]["harness.recover_sweep"]["subsets"] == 176
    assert run["layers"]["harness.recover_sweep"]["mismatches"] == 0
    for layer in ("words.concat_4000", "words.shortlex_len8", "bs.equal_2000", "bs.britton_depth", "bs.kernel1_20",
                  "bs.kernel_by_level", "harness.kernel_density_20000", "harness.recover_sweep",
                  "presentations.snf_by_size", "presentations.certificate_word"):
        assert run["layers"][layer]["ms"] > 0
    assert run["layers"]["search.iso_pinned"]["pair_index"] == 364
    assert run["layers"]["search.iso_pinned"]["units"] == 6018
    assert run["layers"]["search.hom_doubling"]["steps"] == 744
    assert run["layers"]["stream.bs23_744"]["emissions_per_s"] > 0
    multi = run["layers"]["stream.multi_relator_20000"]
    assert multi["emissions"] == [20000, 20000]
    assert len(multi["case_ms"]) == 2 and all(ms > 0 for ms in multi["case_ms"])
    assert run["layers"]["semidecide.trivial_300th"]["steps"] == 300  # first emitted there
    assert run["layers"]["search.verify_pinned"]["verified"] is True
    assert run["layers"]["search.verify_pinned"]["ms"] > 0
    assert run["layers"]["cli.check_cert"]["exit"] == 0
    assert run["layers"]["cli.check_cert"]["last_line"] == "valid"
    assert run["layers"]["cli.check_cert"]["ms"] > 0
    assert run["layers"]["cli.demo_non_hopfian"]["exit"] == 0
    assert run["layers"]["cli.demo_non_hopfian"]["last_line"].startswith("conclusion: ")
    assert run["layers"]["cli.demo_non_hopfian"]["ms"] > 0
    assert run["layers"]["cli.demo_recover_card"]["exit"] == 0
    assert run["layers"]["cli.demo_recover_card"]["last_line"] == "|W| = 2"
    assert run["layers"]["cli.demo_recover_card"]["ms"] > 0
    assert run["layers"]["import.fpw_cli"]["ms"] > 0
    assert 0 < run["layers"]["import.fpw_cli"]["kb_held"] < 2000
    for name, layer in run["layers"].items():
        assert len(layer["gc"]) == 3 and all(isinstance(n, int) and n >= 0 for n in layer["gc"]), name
    assert run["layers"]["import.fpw_cli"]["gc"][2] >= 2  # its own two gc.collect() calls
