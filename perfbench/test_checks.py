"""Self-test of the benchmark: every output check can fail, and the tracer
forwards calls unchanged and counts deterministically.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from arclab import groups, hahn, valuations  # noqa: E402
from arclab.errors import RootError  # noqa: E402
from tracing import Tracer, read_spans  # noqa: E402


def test_report_check_catches_a_flipped_golden_byte():
    got = wl.run_example("c0", wl.GOLDEN_SEED)
    golden = (wl.GOLDEN_DIR / "c0.json").read_text()
    assert wl.check_report(got, golden).failed == 0
    i = len(golden) // 2
    flipped = golden[:i] + chr(ord(golden[i]) ^ 1) + golden[i + 1 :]
    assert wl.check_report(got, flipped).failed == 1
    assert wl.check_report((1, got[1]), golden).failed == 1


def test_root_check_catches_the_wrong_series():
    G = groups.parse_group("lex(Z, Q)")
    y, exists, r = wl.positive_root(G, 3, 7)
    assert wl.check_positive((y, exists, r), 3).failed == 0
    other = hahn.sample_series(G, 8)
    assert wl.check_positive((other, exists, r), 3).failed == 1
    assert wl.check_positive((y, False, r), 3).failed == 1


def test_obstructed_root_checks():
    G = groups.parse_group("lex(Z, Q)")
    shift = wl.exponent_shift(G, 2)
    assert wl.check_obstructed(wl.obstructed_root(G, 2, 5, None)).failed == 0
    assert wl.check_obstructed(wl.obstructed_root(G, 2, 5, shift)).failed == 0
    assert wl.check_obstructed((True, True)).failed == 1
    assert wl.check_obstructed((False, False)).failed == 1
    assert wl.exponent_shift(groups.parse_group("lex(Q)"), 2) is None
    assert wl.exponent_shift(groups.parse_group("lex(Zloc(2), Q)"), 3) is None


def test_differential_check_sees_a_cross_prime_run():
    G = groups.parse_group("lex(Zloc(2), Q)")
    found = valuations.differential_cross(G, 2, 3)
    assert found, "the two rings differ on this group"
    v = wl.check_differential({"checked": 100, "mismatches": found})
    assert v.failed == len({m["x"] for m in found}) > 0
    assert wl.check_differential({"checked": 100, "mismatches": []}).failed == 0


def test_schematic_check_flags_undecided_cuts_and_fails_contradictions():
    flagged = valuations.classification_report(groups.parse_group("lex(Q, poly_module(Zloc(5), pi))"))
    v = wl.check_classification(flagged)
    assert (v.attempted, v.failed, v.flagged) == (1, 0, 1)
    clean = valuations.classification_report(groups.parse_group("lex(omega_tower(start=0))"))
    v = wl.check_classification(clean)
    assert (v.failed, v.flagged) == (0, 0)
    forged = dict(clean, cuts=[dict(clean["cuts"][0], status="red-flag")])
    v = wl.check_classification(forged)
    assert (v.failed, v.flagged) == (1, 0)


def test_every_generated_word_is_schematic():
    import random

    rng = random.Random(0)
    for towers in wl.word_shapes(200):
        assert not groups.parse_group(wl.random_word(rng, towers)).is_effective()


def test_tracer_forwards_counts_and_restores(tmp_path):
    original = hahn.pth_root
    G = groups.parse_group("lex(Z, Z)")
    a = hahn.series_pow(hahn.sample_series(G, 3), 2)

    def traced_pass():
        tracer = Tracer()
        tracer.install()
        try:
            assert hahn.pth_root is not original
            root = hahn.pth_root(a, 2)
            with pytest.raises(RootError):
                hahn.pth_root(hahn.series_neg(a), 2)
        finally:
            tracer.uninstall()
        return tracer, root

    t1, root = traced_pass()
    t2, _ = traced_pass()
    assert hahn.pth_root is original
    assert hahn.series_eq(root, hahn.pth_root(a, 2))
    m1, m2 = t1.metrics(1.0), t2.metrics(1.0)
    assert m1["hahn.pth_root.calls"] == 2
    assert m1["groups.elem_cmp.calls"] > 0  # bound in hahn by a from-import
    assert {k: v for k, v in m1.items() if k.endswith(".calls")} == {
        k: v for k, v in m2.items() if k.endswith(".calls")
    }
    assert all(s >= 0 for s in t1.self_times())
    assert sum(m1[f"{layer}.self_s"] for layer in ("hahn", "groups")) <= 1.0

    path = tmp_path / "spans.bin"
    t1.write(path)
    header, fields = read_spans(path)
    assert header["names"] == t1.names and list(fields["parent"]) == list(t1.parent)
    assert fields["end"][0] >= fields["start"][0]


def test_tail_percentile_keeps_ten_calls_beyond_it():
    assert run.tail([float(i) for i in range(1000)]) == (99.0, 989.0)
    assert run.tail([float(i) for i in range(100)])[0] == 90.0
    assert run.tail([float(i) for i in range(30)]) is None


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roots", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
