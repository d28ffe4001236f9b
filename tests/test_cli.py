"""End-to-end tests of the command-line interface."""

import csv
import gc
import hashlib
import json
import math
import os
import re
import runpy
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subspace_money import cli
from subspace_money.cli import main
from subspace_money.codes import enumerate_errors, save_code
from subspace_money.experiments import ATTACK_KINDS
from subspace_money.gf2 import random_bitvec
from subspace_money.scheme import (
    OracleRegistry,
    load_banknote,
    load_record,
    mint_conjugate,
    mint_direct,
    save_banknote_dump,
)
from subspace_money.states import dump_state

from conftest import certified_codes, fresh_python, stdout_under_one_and_two_blas_threads
from reference import uniform_state


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_gencode_writes_certified_code(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc = run_cli("--seed", 7, "--out", out, "gencode", "--n", 6, "--q", 1)
    assert rc == 0
    text = capsys.readouterr().out
    assert "found C in W: d=" in text
    from subspace_money.codes import certify, load_code

    assert certify(load_code(out)).passed


# SHA-256 of the file written by `gencode --seed s --n N --q 2`, taken with
# the search that walked both minimum distances of every candidate: the
# syndrome test must accept the same codes from the same draws.  (0, 22) is
# a [22, 11] code with d = 5/5, 254 accepted cosets of 2^11 strings, which
# the (22, 2) pins below mint from.
GENCODE_Q2_DIGESTS = {
    (0, 22): "a60b203b186fb3f5295761f697db4922d76ae564b416b3909a32257e49ce80c7",
    (1, 24): "1973f2a6eec489e1ba5660e452f9447c1fe967216130a7cffe2dff551246bf85",
    (1, 28): "57ebc99a4341525406ff1adddff1f554f0d79f5b2d9b853bee209cb8b98495aa",
    (1, 30): "0735358f11ff674d659e74f2dfe6b2ab3a5b16c6a9776751695fa330125ecc52",
    (2, 24): "e29a8105ef6cd5979a7b846f38b1599fdd0c510fe3088a0a5f93040dcd8d463c",
    (2, 28): "486756e6ca375540c51577ef07118053039dd37824a4813f3b17746a96c2ba20",
    (2, 30): "e813126e4fc0491db0a1ce94e3c4e28d251ea109b932bea3b4a745c3972f9933",
    (3, 24): "3ab4f917076ef33a240211a174d7e4cdd80a055955e8d5a95b4875b2a7a4953d",
    (3, 28): "c4aa21fcb524ff6b7aea2ff2b1462218c94a79c892f0c7cb25377ea1a9556045",
    (3, 30): "fde0cc9e29fc14aec31c921632f629be848c773f299b0a75ba6906c4bf15ff5f",
    (4, 24): "e765063d5b6984d3d9aa8fb264f6f1e496523fe860ae7ff3d71d7e84242dc641",
    (4, 28): "09616353a535e727dd28fd3bf11dc2be2dd96a11059bea163cf5797077795ba4",
    (4, 30): "6b319500db9d8922d9a709f386eed563ab7b21548deed74ec94b25ddfae34517",
    (5, 24): "1040c6a5e4a375731f08cc2d262681ed9ea823bd1b51aef011d136fc02bb2aa6",
    (5, 28): "2251c45efcad757e6b1e89997c74bdb32f2f323bfcb654416b2a8822d5b08a54",
    (5, 30): "29520cae80eb0f7033dcdc578886233d0584270a71b05fa59c811c1f0d38e2a2",
}


@pytest.mark.parametrize("seed, n", sorted(GENCODE_Q2_DIGESTS))
def test_gencode_q2_files_are_pinned(tmp_path, capsys, seed, n):
    out = tmp_path / "code.json"
    assert run_cli("--seed", seed, "--out", out, "gencode", "--n", n, "--q", 2) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENCODE_Q2_DIGESTS[seed, n]


# SHA-256 of the file written by `gencode --seed s --n N --q 1`, taken with
# the search that drew one candidate per generator call; batched draws must
# accept the same codes.
GENCODE_Q1_DIGESTS = {
    (1, 6): "c336d5ea333505a4514fd0c84a1b5eea92aae5448ae94f4d2d8aea0dc6bfbc8f",
    (1, 8): "9386268f3bcab68b7e47719c9e5cb3aa240b7e94617fe08b8bc3295a6a4f8316",
    (1, 10): "4e599b6546543a261434ac4b551304d8efc14d18bb302e9b52c188f8430a1347",
    (2, 6): "3df37f11882ceaffd67600018f886ef6572fe8d442cefe8e91c6fb6033ad0d26",
    (2, 8): "4948cb3735bdc7d743e956db5a9c6e34b3d745635537662a2d23daee35494be2",
    (2, 10): "11470baff5ebf5326820dc383e5ca002551aed72aac7703711017fb9b8f34f0a",
    (3, 6): "aa076649ba323c6bbdeb9f17c097316b1e2e7a1bb0311d60369ff735c835dcfe",
    (3, 8): "28a992d9931b7eff81cc10b261fa83835b69ec0ecabeb2adbf203cbdbff46cf6",
    (3, 10): "5f366014b36e7119dddd124c20c850918061d0fffb775f7ab050af64e2a327b2",
}


@pytest.mark.parametrize("seed, n", sorted(GENCODE_Q1_DIGESTS))
def test_gencode_q1_files_are_pinned(tmp_path, capsys, seed, n):
    out = tmp_path / "code.json"
    assert run_cli("--seed", seed, "--out", out, "gencode", "--n", n, "--q", 1) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENCODE_Q1_DIGESTS[seed, n]


# SHA-256 of the CSV written by `attack --seed 3 --strategy s --n N --q 1
# --trials t`, keyed (s, N, t), taken with the search that drew one candidate
# per generator call.  passthrough-mixed's was taken again once a pure
# register's probability ran Ver's own kernel: the note scores 1.0, not
# 1 - 2^-53, where k = n/2 is odd.
ATTACK_CSV_DIGESTS = {
    ("passthrough-mixed", 6, 2000): "aec93b670db868ff66980d13a5e98fb15a8f443de6e5b7da17fa1f38b6234a10",
    ("measure-and-copy", 6, 2000): "efe186193d4f375709dc4fae083f6bb307d0aad3fa2c56949ea74270fd00dc40",
    ("random-state", 6, 2000): "bd9840453c6f6c9ad26bd7dccdda3d32447569fb1dc1f03fdf681e42a7f584a4",
    # Trial counts that leave a partial last block of random-state trials.
    ("random-state", 6, 1001): "21ba9ba9619c5e8f958925faf5fc60a3ec327adf2e5f4672af619b2f58752d2e",
    ("random-state", 8, 1001): "05eaa1b561267670130896287766dbfcdee4b155428a08ab0c67282272eb4600",
    ("random-state", 6, 37): "7960238ae4bc730df49cc1ffebb88205cea66d92d58ec5dba82182b421439874",
    # 1025 trials leave a last block of one trial for the closed-form
    # strategies, whose one probability per block is widened to the block's trials.
    ("passthrough-mixed", 6, 1025): "93be9eb21ebfd4c7bd74cd9c695c074ee0ec1b12b2f881907ddda71ab1037ba7",
    ("measure-and-copy", 6, 1025): "f178c09d45a4221b0dbab62fc0558cd7d5610122d7f3c67291fcdc98ae68dd96",
}


@pytest.mark.parametrize(
    "strategy, n, trials",
    sorted(ATTACK_CSV_DIGESTS),
    ids=[s if (n, t) == (6, 2000) else f"{s}-n{n}-{t}" for s, n, t in sorted(ATTACK_CSV_DIGESTS)],
)
def test_attack_csvs_are_pinned(tmp_path, capsys, strategy, n, trials):
    # A rerun writes the same bytes.
    runs = []
    for name in ("a.csv", "b.csv"):
        argv = ["--seed", 3, "--out", tmp_path / name, "attack", "--strategy", strategy]
        assert run_cli(*argv, "--trials", trials, "--n", n, "--q", 1) == 0
        runs.append((tmp_path / name).read_bytes())
    assert runs[0] == runs[1]
    assert hashlib.sha256(runs[0]).hexdigest() == ATTACK_CSV_DIGESTS[strategy, n, trials]


@pytest.mark.parametrize("strategy", ["passthrough-mixed", "measure-and-copy"])
def test_closed_form_attacks_at_n14_score_their_analytic_rate(tmp_path, capsys, strategy):
    # Neither builds a register: a 2^14 x 2^14 maximally mixed one would be 4 GiB.
    out = tmp_path / "a.csv"
    argv = ["--seed", 3, "--out", out, "attack", "--strategy", strategy]
    assert run_cli(*argv, "--n", 14, "--trials", 2000) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert float(row["mean_probability"]) == float(row["analytic_rate"])


@pytest.mark.parametrize("route", ["direct", "conjugate"])
def test_mint_above_the_allocation_budget_refuses_on_both_routes(tmp_path, capsys, route):
    # A 2^26-amplitude note is 1 GiB: refused, within 20 s, before either file is written.
    out = tmp_path / "big.json"
    start = time.perf_counter()
    rc = run_cli("--seed", 5, "--out", out, "mint", "--n", 26, "--q", 1, "--route", route)
    assert time.perf_counter() - start < 20
    assert rc == 1
    assert "1073741824 bytes exceed the budget of 268435456 bytes" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".bank.json").exists()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _printed(capsys, key, *argv) -> str:
    """A key of a CLI run's --format json summary as print() writes it; the run exits 0."""
    capsys.readouterr()
    assert run_cli("--format", "json", *argv) == 0
    return str(json.loads(capsys.readouterr().out)[key])


def _accept(capsys, note) -> str:
    """verify's accept probability of note against note.bank.json, printed: "1.0" is exactly 1."""
    argv = ["--seed", 0, "verify", note, "--bank", "note.bank.json"]
    return _printed(capsys, "accept_probability", *argv)


def _coset_queries(capsys, note) -> str:
    """correct's coset-query count, printed; the corrected note goes to fixed.json."""
    argv = ["--seed", 0, "--out", "fixed.json", "correct", note, "--bank", "note.bank.json"]
    return _printed(capsys, "coset_queries", *argv)


# SHA-256 of the n = 20 files.  The closed-form mint writes the bytes the
# dense note dumped; a corrupted note has negative and zero parts, which a
# fresh note's pin never writes.
N20_DIGESTS = {
    "note.json": "85bedfcaca9da2067d556438cb553e04b18ab609dafb6fd275e47da678d5fab3",
    "note.bank.json": "8249212504b11144dba1d78279b377eb4773fa32937dacadb0a7631e619e6b8d",
    "bad.json": "3d74e318be2248bd95297859bb19d13aada8b5a5e9f55f130de6b3d07aaf6df6",
}


def test_verify_and_correct_at_the_benchmarks_size_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("--seed", 20, "--out", "note.json", "mint", "--n", 20, "--q", 1) == 0
    e, ez, over = "1" + "0" * 19, "0" * 19 + "1", "11" + "0" * 18
    assert run_cli("--seed", 0, "--out", "bad.json", "corrupt", "note.json", "--e", e) == 0
    assert run_cli("--seed", 0, "--out", "bad.json", "corrupt", "bad.json", "--ez", ez) == 0
    assert {name: _sha256(name) for name in N20_DIGESTS} == N20_DIGESTS
    assert _accept(capsys, "bad.json") == "1.0"
    assert run_cli("--seed", 0, "--out", "over.json", "corrupt", "note.json", "--e", over) == 0
    assert _accept(capsys, "over.json") == "0.0"
    assert _coset_queries(capsys, "bad.json") == "23"
    assert _accept(capsys, "fixed.json") == "1.0"
    assert Path("fixed.json").read_bytes() == Path("note.json").read_bytes()
    # diagnose refuses a note outside the tolerated cosets on either side, and
    # correct writes no note for it.
    assert run_cli("--seed", 0, "--out", "zz.json", "corrupt", "note.json", "--ez", over) == 0
    for note, side in (("over.json", "bit-flip"), ("zz.json", "phase-flip")):
        capsys.readouterr()
        argv = ["--seed", 0, "--out", "refused.json", "correct", note, "--bank", "note.bank.json"]
        assert run_cli(*argv) == 1
        assert f"state lies in no tolerated {side} coset" in capsys.readouterr().err
        assert not Path("refused.json").exists()


# Six corrupted notes in distinct accepted cosets, as (e, e'), superposed with
# unequal complex weights: 12,288 occupied entries, above the 10,000 from which
# OpenBLAS splits a dot across threads.  A weight-3 phase flip on one coset
# puts the probability below 1.
MIXED_PARTS = [
    ("0000000000000000000000", "1000000000000000000000"),
    ("1000000000000000000000", "0000000000000000000001"),
    ("0100000000000000000010", "0010000000000000000000"),
    ("0000000000100000000000", "0000000000000000000000"),
    ("0000000000000000000011", "0000000001000000000100"),
    ("0000010000000000000000", "0000000000000000000111"),
]
MIXED_WEIGHTS = (1.0, 0.5j, -0.7 + 0.2j, 0.3, -0.4j, 0.25 + 0.25j)

# Runs the CLI on its arguments and prints the run's traced peak in bytes; the
# modules the cli module imports are loaded before tracing starts.
_TRACED_CLI = """
import contextlib, io, sys, tracemalloc
from subspace_money.cli import main
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(tracemalloc.get_traced_memory()[1])
sys.exit(status)
"""

# Runs the CLI on its arguments, as the console script does.
_CLI = "import sys; from subspace_money.cli import main; sys.exit(main(sys.argv[1:]))"


def test_verify_and_correct_at_q2_n22_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # The code of GENCODE_Q2_DIGESTS[0, 22]; its notes are 64 MiB dense.
    assert run_cli("--seed", 0, "--out", "c22.json", "gencode", "--n", 22, "--q", 2) == 0
    mint = ["--seed", 22, "--out", "note.json", "mint", "--n", 22, "--q", 2, "--code", "c22.json"]
    assert run_cli(*mint) == 0
    e, ez = "0000100000000000100000", "0100000000000000000010"
    corrupt = ["corrupt", "note.json", "--e", e, "--ez", ez]
    assert run_cli("--seed", 0, "--out", "bad.json", *corrupt) == 0
    assert _accept(capsys, "bad.json") == "1.0"
    # verify places the note's lines by coset leader, so it builds no coset
    # index (4.16 MB here).  In a fresh interpreter, where no cache is warm,
    # its traced peak stays below 1 MB.
    verify = ["--seed", 0, "verify", "bad.json", "--bank", "note.bank.json"]
    proc = fresh_python("-c", _TRACED_CLI, *verify, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 1_000_000
    assert _coset_queries(capsys, "bad.json") == "375"
    assert _accept(capsys, "fixed.json") == "1.0"
    assert Path("fixed.json").read_bytes() == Path("note.json").read_bytes()
    # The mixed note's verdict must not depend on the BLAS thread count.
    scale = math.sqrt(sum(abs(w) ** 2 for w in MIXED_WEIGHTS))
    lines = []
    for i, ((e, ez), w) in enumerate(zip(MIXED_PARTS, MIXED_WEIGHTS)):
        part = f"part{i}.json"
        corrupt = ["corrupt", "note.json", "--e", e, "--ez", ez]
        assert run_cli("--seed", 0, "--out", part, *corrupt) == 0
        note = json.loads(Path(part).read_text())
        for line in note["state"]["dump"].splitlines():
            bits, real, imag = line.split()
            a = w / scale * complex(float(real), float(imag))
            lines.append("%s %.17g %.17g\n" % (bits, a.real, a.imag))
    note["state"]["dump"] = "".join(lines)
    Path("mix.json").write_text(json.dumps(note))
    verify = ["--seed", 0, "--format", "json", "verify", "mix.json", "--bank", "note.bank.json"]
    runs = stdout_under_one_and_two_blas_threads(_CLI, *verify)
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["accept_probability"] < 1


# The conjugate-route n = 14 note, and the note under X on its last bit and Z
# on its first.
CONJUGATE_N14 = [
    ["--seed", 14, "--out", "note.json", "mint", "--n", 14, "--q", 1, "--route", "conjugate"],
    ["--seed", 0, "--out", "bad.json", "corrupt", "note.json", "--e", "0" * 13 + "1"]
    + ["--ez", "1" + "0" * 13],
]
CONJUGATE_N14_DIGESTS = {
    "note.json": "b3304c1880b276bb6c7c63a9020edf2476f575cca1e0209e99229117b0297572",
    "note.bank.json": "6e6a7f33d505470300395c6b86dae189fbf57251bd9d0b5e2b2f367fc466751d",
    "bad.json": "8ba68578b72d49ee4dc450dcb3a00aceb01f2fefe794abc7c0dec469ebef0441",
}


def test_conjugate_route_round_trip_is_pinned(tmp_path, monkeypatch, capsys):
    # LIMITED_WRITES["correct-conjugate-in-place"] cuts a correct of this bad.json short.
    monkeypatch.chdir(tmp_path)
    for argv in CONJUGATE_N14:
        assert run_cli(*argv) == 0
    assert {name: _sha256(name) for name in CONJUGATE_N14_DIGESTS} == CONJUGATE_N14_DIGESTS
    assert abs(float(_accept(capsys, "bad.json")) - 1.0) < 1e-9
    assert _coset_queries(capsys, "bad.json") == "17"
    assert abs(float(_accept(capsys, "fixed.json")) - 1.0) < 1e-9
    assert Path("fixed.json").read_bytes() == Path("note.json").read_bytes()


def test_gencode_infeasible_is_domain_error(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc = run_cli("--seed", 3, "--out", out, "gencode", "--n", 6, "--q", 2, "--max-attempts", 500)
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_mint_verify_round_trip(tmp_path, capsys):
    note = tmp_path / "note.json"
    rc = run_cli("--seed", 11, "--out", note, "mint", "--n", 6, "--q", 1)
    assert rc == 0
    bank = note.with_suffix(".bank.json")
    assert bank.exists()

    rc = run_cli("--seed", 1, "verify", note, "--bank", bank)
    assert rc == 0
    out = capsys.readouterr().out
    assert "accept probability 1.000000" in out


def test_mint_conjugate_route(tmp_path, capsys):
    note = tmp_path / "note.json"
    rc = run_cli("--seed", 13, "--out", note, "mint", "--n", 6, "--q", 1, "--route", "conjugate")
    assert rc == 0
    bank = note.with_suffix(".bank.json")
    record = load_record(bank)
    assert record.route == "conjugate"
    rc = run_cli("--seed", 1, "verify", note, "--bank", bank)
    assert rc == 0


def test_corrupt_then_verify_and_correct(tmp_path, capsys):
    note = tmp_path / "note.json"
    run_cli("--seed", 17, "--out", note, "mint", "--n", 6, "--q", 1)
    bank = note.with_suffix(".bank.json")
    bad = tmp_path / "bad.json"
    rc = run_cli("--seed", 0, "--out", bad, "corrupt", note, "--e", "100000", "--ez", "010000")
    assert rc == 0

    rc = run_cli("--seed", 1, "verify", bad, "--bank", bank)
    assert rc == 0
    assert "accept probability 1.000000" in capsys.readouterr().out

    fixed = tmp_path / "fixed.json"
    rc = run_cli("--seed", 1, "--out", fixed, "correct", bad, "--bank", bank)
    assert rc == 0
    assert "corrected" in capsys.readouterr().out

    original = load_banknote(note)
    repaired = load_banknote(fixed)
    from subspace_money.states import max_deviation

    assert max_deviation(original.state, repaired.state) < 1e-12


def test_corrupt_rand_weight(tmp_path, capsys):
    note = tmp_path / "note.json"
    run_cli("--seed", 23, "--out", note, "mint", "--n", 6, "--q", 1)
    rc = run_cli("--seed", 5, "corrupt", note, "--rand-weight", 1)
    assert rc == 0
    assert "applied X^" in capsys.readouterr().out


def test_verify_unknown_serial_exit_code(tmp_path, capsys):
    note_a = tmp_path / "a.json"
    note_b = tmp_path / "b.json"
    run_cli("--seed", 29, "--out", note_a, "mint", "--n", 6, "--q", 1)
    run_cli("--seed", 31, "--out", note_b, "mint", "--n", 6, "--q", 1)
    # Verify note B against bank key A: the serial is unknown to that bank.
    rc = run_cli("--seed", 1, "verify", note_b, "--bank", note_a.with_suffix(".bank.json"))
    assert rc == 1
    assert "unknown serial" in capsys.readouterr().out


def test_correct_names_a_serial_the_bank_never_issued(tmp_path, capsys):
    # Another bank's note, of the same n or another, is refused with the serial
    # written as its bits, not quoted as a repr.
    notes = {name: tmp_path / f"{name}.json" for name in ("a", "f", "big")}
    for (name, path), (seed, n) in zip(notes.items(), [(1, 6), (9, 6), (1, 8)]):
        assert run_cli("--seed", seed, "--out", path, "mint", "--n", n, "--q", 1) == 0
    capsys.readouterr()
    bank = notes["f"].with_suffix(".bank.json")
    for name in ("a", "big"):
        assert run_cli("--seed", 0, "correct", notes[name], "--bank", bank) == 1
        serial = json.loads(notes[name].read_text())["serial"]
        assert capsys.readouterr().err == f"error: unknown serial {serial}\n"
    assert run_cli("--seed", 0, "verify", notes["a"], "--bank", bank) == 1
    assert capsys.readouterr().out == "reject: unknown serial\n"


@pytest.mark.parametrize("missing", ["--out", "--bank-out"])
def test_a_failed_mint_writes_neither_file(tmp_path, capsys, missing):
    # A note without its bank key could never verify, so a mint that cannot
    # write both files leaves neither.
    paths = {"--out": tmp_path / "e.json", "--bank-out": tmp_path / "e.bank.json"}
    paths[missing] = tmp_path / "missing" / paths[missing].name
    argv = ["--seed", 5, "--out", paths["--out"], "mint", "--n", 6, "--q", 1]
    assert run_cli(*argv, "--bank-out", paths["--bank-out"]) == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bank_out", ["note.json", "./sub/../note.json"])
def test_mint_refuses_a_bank_key_file_that_is_its_note_file(tmp_path, capsys, monkeypatch, bank_out):
    # The bank key written over the note would leave a file that verify refuses
    # as a note ('bankkey-v1'), so the mint is refused before either is written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    argv = ["--seed", 3, "--out", "note.json", "mint", "--n", 6, "--q", 1, "--bank-out", bank_out]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    shown = Path(bank_out)  # as argparse gives it, './' dropped
    assert err == f"error: --bank-out {shown} is the note file note.json; the bank key would overwrite it\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_undecodable_correct_exit_code(tmp_path, capsys):
    # 000111 is undecodable for the worked code specifically (syndrome 111
    # is not in its table), so mint against that code rather than a random one.
    from subspace_money.codes import save_code
    from subspace_money.demo import worked_spec

    code = tmp_path / "code.json"
    save_code(worked_spec(), code)
    note = tmp_path / "note.json"
    run_cli("--seed", 37, "--out", note, "mint", "--n", 6, "--q", 1, "--code", code)
    bank = note.with_suffix(".bank.json")
    run_cli("--seed", 0, "corrupt", note, "--e", "000111")
    rc = run_cli("--seed", 1, "correct", note, "--bank", bank)
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_verify_refuses_a_wrongly_sized_dump(tmp_path, capsys):
    from subspace_money.states import dump_state

    note = tmp_path / "note.json"
    run_cli("--seed", 43, "--out", note, "mint", "--n", 6, "--q", 1)
    data = json.loads(note.read_text())
    data["state"]["dump"] = dump_state(uniform_state(8))
    note.write_text(json.dumps(data))
    capsys.readouterr()
    rc = run_cli("--seed", 1, "verify", note, "--bank", note.with_suffix(".bank.json"))
    assert rc == 1
    streams = capsys.readouterr()
    assert "accept probability" not in streams.out
    assert "error: the note's state acts on 8 qubits" in streams.err


def test_corrupt_refuses_a_note_whose_serial_is_not_3n_bits(tmp_path, capsys):
    # A 19-bit serial floors to n = 6, as 18 bits do; corrupt must not write a note verify refuses.
    note, out = tmp_path / "note.json", tmp_path / "bad.json"
    run_cli("--seed", 43, "--out", note, "mint", "--n", 6, "--q", 1)
    data = json.loads(note.read_text())
    note.write_text(json.dumps({**data, "serial": data["serial"] + "0"}))
    capsys.readouterr()
    assert run_cli("--seed", 0, "--out", out, "corrupt", note, "--e", "100000") == 1
    assert "so its serial needs 3n=18 bits, not 19" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_a_conjugate_bank_key_with_a_long_theta(tmp_path, capsys):
    note = tmp_path / "note.json"
    bank = note.with_suffix(".bank.json")
    run_cli("--seed", 44, "--out", note, "mint", "--n", 6, "--q", 1, "--route", "conjugate")
    data = json.loads(bank.read_text())
    bank.write_text(json.dumps({**data, "theta": data["theta"] + "0"}))
    capsys.readouterr()
    assert run_cli("--seed", 0, "verify", note, "--bank", bank) == 1
    streams = capsys.readouterr()
    assert "accept probability" not in streams.out
    assert "error: theta has 7 bits, not n=6" in streams.err


def without(data, key):
    return {k: v for k, v in data.items() if k != key}


# Each rewrites one file that mint or gencode wrote: (which file, damaged JSON).
MALFORMED_FILES = {
    "note-without-state-kind": ("note", lambda d: {**d, "state": without(d["state"], "kind")}),
    "note-without-serial": ("note", lambda d: without(d, "serial")),
    "note-with-int-serial": ("note", lambda d: {**d, "serial": int(d["serial"], 2)}),
    "note-not-an-object": ("note", lambda d: [d]),
    # A symbolic coset label is no state kind: a note file holds a state dump.
    "note-with-coset-kind": (
        "note",
        lambda d: {**d, "state": {"kind": "coset", "e": "0" * 6, "e_prime": "0" * 6, "sign": 1}},
    ),
    "bank-key-without-route": ("bank", lambda d: without(d, "route")),
    "code-without-dual-rows": ("code", lambda d: without(d, "dual_rows")),
    "code-with-object-row": ("code", lambda d: {**d, "code_rows": [{}, *d["code_rows"][1:]]}),
    # JSON true is no int, though Python's bool subclasses int.
    "code-with-bool-q": ("code", lambda d: {**d, "q": True}),
    "bank-key-with-bool-q": ("bank", lambda d: {**d, "spec": {**d["spec"], "q": True}}),
    "bank-key-with-int-row": (
        "bank",
        lambda d: {
            **d,
            "spec": {**d["spec"], "code_rows": [int(r, 2) for r in d["spec"]["code_rows"]]},
        },
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_files_are_refused_without_a_traceback(tmp_path, case):
    which, damage = MALFORMED_FILES[case]
    note, code = tmp_path / "note.json", tmp_path / "code.json"
    bank = note.with_suffix(".bank.json")
    run_cli("--seed", 41, "--out", code, "gencode", "--n", 6, "--q", 1)
    run_cli("--seed", 41, "--out", note, "mint", "--n", 6, "--q", 1)
    path = {"note": note, "bank": bank, "code": code}[which]
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    if which == "code":
        argv = ["mint", "--n", "6", "--q", "1", "--code", code]
    else:
        argv = ["correct", note, "--bank", bank]
    _assert_refused_without_a_traceback(tmp_path, argv)


# Each names an input file that cannot be read: (subcommand and its arguments, message).
UNREADABLE_FILES = {
    "missing-note": (["verify", "{tmp}/none.json", "--bank", "{bank}"], "No such file"),
    "missing-bank-key": (["correct", "{note}", "--bank", "{tmp}/none.json"], "No such file"),
    "missing-code": (
        ["mint", "--n", "6", "--q", "1", "--code", "{tmp}/none.json"],
        "No such file",
    ),
    "note-is-a-directory": (["corrupt", "{tmp}", "--e", "100000"], "Is a directory"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_unreadable_files_are_refused_without_a_traceback(tmp_path, case):
    argv, message = UNREADABLE_FILES[case]
    note = tmp_path / "note.json"
    run_cli("--seed", 41, "--out", note, "mint", "--n", 6, "--q", 1)
    names = {"tmp": tmp_path, "note": note, "bank": note.with_suffix(".bank.json")}
    stderr = _assert_refused_without_a_traceback(tmp_path, [a.format(**names) for a in argv])
    assert message in stderr


def _assert_refused_without_a_traceback(tmp_path, argv) -> str:
    """Run the CLI in a fresh interpreter: exit 1, one error line, nothing written."""
    out = tmp_path / "out.json"
    proc = fresh_python("-m", "subspace_money.cli", "--seed", 1, "--out", out, *argv, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not out.exists() and not out.with_suffix(".bank.json").exists()
    return proc.stderr


def test_verify_refuses_an_overflowing_note_with_one_error_line(tmp_path):
    # Parts near 1e300 overflow the squared norm; numpy's overflow warning
    # must not print before the error.
    note = tmp_path / "note.json"
    run_cli("--seed", 41, "--out", note, "mint", "--n", 6, "--q", 1)
    data = json.loads(note.read_text())
    data["state"]["dump"] = "000000 1e300 1e300\n000001 1e300 0\n"
    note.write_text(json.dumps(data))
    argv = ["verify", note, "--bank", note.with_suffix(".bank.json")]
    stderr = _assert_refused_without_a_traceback(tmp_path, argv)
    assert stderr.splitlines() == ["error: state is not a finite unit vector: |psi| = inf"]


# SHA-256 of the bank key written by `mint --seed 13 --n 10 --q 1 --route
# conjugate`: theta, the code's mixing matrix and the outside basis columns
# are all drawn from the record's basis stream.
CONJUGATE_BANK_KEY_DIGEST = "051612eee087ca037241e612dcce6a0a3423e2ccaffa74f50e25d3b2a657e1e4"


@pytest.mark.parametrize("route", ["direct", "conjugate"])
@pytest.mark.parametrize("n", [6, 10, 14])
def test_mint_writes_the_dense_notes_bytes(tmp_path, capsys, route, n):
    # The closed-form lines are the bytes the dense note dumps: the codewords
    # at 1/sqrt(2^k) directly, and at (1/sqrt(2))^(n/2) by conjugate coding.
    for seed in range(3):
        note = tmp_path / f"{route}-{seed}.json"
        argv = ["--seed", seed, "--out", note, "mint", "--n", n, "--q", 1, "--route", route]
        assert run_cli(*argv) == 0
        registry = OracleRegistry(n, 1, master_seed=seed, route=route)
        dense = (mint_direct if route == "direct" else mint_conjugate)(
            registry, random_bitvec(n, seed)
        )
        save_banknote_dump(dense.serial, dump_state(dense.state), tmp_path / "dense.json")
        assert note.read_bytes() == (tmp_path / "dense.json").read_bytes()
        assert load_record(note.with_suffix(".bank.json")) == registry.generate(
            random_bitvec(n, seed)
        )


def test_mint_conjugate_bank_key_is_pinned(tmp_path, capsys):
    note = tmp_path / "note.json"
    rc = run_cli("--seed", 13, "--out", note, "mint", "--n", 10, "--q", 1, "--route", "conjugate")
    assert rc == 0
    digest = hashlib.sha256(note.with_suffix(".bank.json").read_bytes()).hexdigest()
    assert digest == CONJUGATE_BANK_KEY_DIGEST


@pytest.mark.parametrize("n", [6, 14])
def test_corrected_note_file_equals_the_fresh_one(tmp_path, capsys, n):
    # Correction restores the amplitudes exactly, and the file writes no -0
    # parts, so mint -> corrupt (X and Z) -> correct gives back the same bytes.
    note, bad, fixed = tmp_path / "note.json", tmp_path / "bad.json", tmp_path / "fixed.json"
    assert run_cli("--seed", 20, "--out", note, "mint", "--n", n, "--q", 1) == 0
    e, ez = "1" + "0" * (n - 1), "0" * (n - 1) + "1"
    assert run_cli("--seed", 0, "--out", bad, "corrupt", note, "--e", e, "--ez", ez) == 0
    bank = note.with_suffix(".bank.json")
    assert run_cli("--seed", 0, "--out", fixed, "correct", bad, "--bank", bank) == 0
    assert fixed.read_bytes() == note.read_bytes()


# The n = 14 note every case but one starts from.
MINT_N14 = ["--seed", 14, "--out", "note.json", "mint", "--n", 14, "--q", 1]

# Each write that outgrows the limit, as (the runs that make its files, the
# run, the limit in bytes): the n = 14 note (5134 bytes) under 2 KiB, beside a
# bank key of 1017 bytes that fits; a code and a CSV under 128 bytes.
LIMITED_WRITES = {
    "mint-fresh": ([MINT_N14], ["--out", "new.json", "mint", "--n", 14, "--q", 1], 2048),
    "mint-over-a-pair": ([MINT_N14], ["--out", "note.json", "mint", "--n", 14, "--q", 1], 2048),
    "corrupt-in-place": ([MINT_N14], ["corrupt", "note.json", "--e", "1" + "0" * 13], 2048),
    "correct-in-place": (
        [
            MINT_N14,
            ["--seed", 0, "--out", "bad.json", "corrupt", "note.json", "--ez", "1" + "0" * 13],
        ],
        ["correct", "bad.json", "--bank", "note.bank.json"],
        2048,
    ),
    "correct-conjugate-in-place": (
        CONJUGATE_N14, ["correct", "bad.json", "--bank", "note.bank.json"], 2048
    ),
    "gencode": (
        [MINT_N14, ["--seed", 2, "--out", "c.json", "gencode", "--n", 6, "--q", 1]],
        ["--out", "c.json", "gencode", "--n", 6, "--q", 1],
        128,
    ),
    "attack": (
        [
            MINT_N14,
            ["--seed", 2, "--out", "a.csv", "attack", "--strategy", "passthrough-mixed", "--trials", 5],
        ],
        ["--out", "a.csv", "attack", "--strategy", "random-state", "--trials", 5],
        128,
    ),
}


@pytest.mark.parametrize("case", sorted(LIMITED_WRITES))
def test_a_failed_write_leaves_every_file_as_it_was(tmp_path, capsys, monkeypatch, case):
    # Each file is written beside its path and then moved into place, so a
    # write cut short (here by RLIMIT_FSIZE, set in the child only) leaves the
    # old bytes, or no file, and no temporary file.
    import resource

    made, argv, limit = LIMITED_WRITES[case]
    monkeypatch.chdir(tmp_path)
    for step in made:
        assert run_cli(*step) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    proc = fresh_python(
        "-m", "subspace_money.cli", "--seed", 15, *argv,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: [Errno 27] File too large\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("case", sorted(LIMITED_WRITES))
def test_a_stale_temporary_file_does_not_block_a_write(tmp_path, capsys, monkeypatch, case):
    # A write killed before its cleanup leaves its temporary behind.  One named
    # <path>.<pid>.tmp with this process's id, as a run of a container's first
    # process always has, blocks no later write, which leaves no temporary of
    # its own.
    made, argv, _ = LIMITED_WRITES[case]
    monkeypatch.chdir(tmp_path)
    for step in made:
        assert run_cli(*step) == 0
    written = ("new.json", "new.bank.json", "note.json", "note.bank.json", "bad.json", "c.json")
    written += ("a.csv",)
    stale = {f"{name}.{os.getpid()}.tmp" for name in written}
    for name in stale:
        Path(name).write_text("stale")
    assert run_cli("--seed", 15, *argv) == 0
    temporaries = {p.name: p.read_text() for p in tmp_path.glob("*.tmp")}
    assert temporaries == dict.fromkeys(stale, "stale")


def test_corrupt_refuses_an_error_pattern_of_another_length(tmp_path, capsys):
    note, out = tmp_path / "note.json", tmp_path / "bad.json"
    run_cli("--seed", 43, "--out", note, "mint", "--n", 6, "--q", 1)
    capsys.readouterr()
    for flag in ("--e", "--ez"):
        assert run_cli("--seed", 0, "--out", out, "corrupt", note, flag, "1000000") == 1
        assert "error: error vector length differs from the state size" in capsys.readouterr().err
        assert not out.exists()


def _lifecycle_steps(tmp_path, n):
    """corrupt -> verify -> correct on a freshly minted n-qubit note, as CLI argument lists."""
    note, bad, fixed = (tmp_path / f"{name}{n}.json" for name in ("note", "bad", "fixed"))
    bank = note.with_suffix(".bank.json")
    assert run_cli("--seed", 20, "--out", note, "mint", "--n", n, "--q", 1) == 0
    e, ez = "1" + "0" * (n - 1), "0" * (n - 1) + "1"
    return [
        ("corrupt", ["--seed", 0, "--out", bad, "corrupt", note, "--e", e, "--ez", ez]),
        ("verify", ["--seed", 0, "verify", bad, "--bank", bank]),
        ("correct", ["--seed", 0, "--out", fixed, "correct", bad, "--bank", bank]),
    ]


def test_corrupt_and_correct_on_files_hold_at_most_one_note(tmp_path, capsys):
    # corrupt rewrites the file's lines and correct scores them in the
    # verifier frame and writes the fix from them, so neither builds a note;
    # one note would read about 1, two, the note and its Pauli image, about 2.
    for _, argv in _lifecycle_steps(tmp_path, 6):  # numpy's lazy imports, the parser
        assert run_cli(*argv) == 0
    n = 16
    note_bytes = 16 << n
    for step, argv in _lifecycle_steps(tmp_path, n):
        if step == "verify":
            continue
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * note_bytes, (step, peak / note_bytes)
    assert (tmp_path / f"fixed{n}.json").read_bytes() == (tmp_path / f"note{n}.json").read_bytes()


def test_mint_verify_and_correct_on_files_build_no_note(tmp_path, capsys):
    # mint writes the note's lines in closed form, and verify and correct score
    # the file's lines in the verifier frame: each holds the code's frame,
    # the lines and their text, a small part of one 2^16-amplitude note.
    for _, argv in _lifecycle_steps(tmp_path, 6):  # numpy's lazy imports, the parser
        assert run_cli(*argv) == 0
    n = 16
    note_bytes = 16 << n
    steps = _lifecycle_steps(tmp_path, n)
    assert run_cli(*steps[0][1]) == 0  # corrupt, untraced
    fresh = tmp_path / "fresh.json"
    steps[0] = ("mint", ["--seed", 20, "--out", fresh, "mint", "--n", n, "--q", 1])
    for step, argv in steps:
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * note_bytes, (step, peak / note_bytes)
    for name in ("fresh", f"fixed{n}"):
        assert (tmp_path / f"{name}.json").read_bytes() == (tmp_path / f"note{n}.json").read_bytes()


def test_no_subcommand_leaves_reference_cycle_garbage(tmp_path, capsys):
    # Garbage that only the cyclic collector frees lingers in a run's peak
    # memory; json's indenting encoder left 33 objects a file written.
    note, bad, fixed = (tmp_path / f"{name}.json" for name in ("note", "bad", "fixed"))
    bank = note.with_suffix(".bank.json")
    runs = {
        "gencode": ["--out", tmp_path / "code.json", "gencode", "--n", 6, "--q", 1],
        "mint-direct": ["--out", note, "mint", "--n", 6, "--q", 1],
        "mint-conjugate": [
            "--out", tmp_path / "conjugate.json", "mint", "--n", 6, "--q", 1, "--route", "conjugate"
        ],
        "corrupt": ["--out", bad, "corrupt", note, "--e", "100000", "--ez", "000001"],
        "verify": ["verify", bad, "--bank", bank],
        "correct": ["--out", fixed, "correct", bad, "--bank", bank],
        **{
            f"attack-{kind}": [
                "--out", tmp_path / f"{kind}.csv", "attack", "--strategy", kind, "--trials", 20
            ]
            for kind in ATTACK_KINDS
        },
        "bounds": ["--out", tmp_path / "gv.csv", "bounds", "--gv", "--n-max", 12],
        "demo": ["--out", tmp_path / "demo", "demo"],
    }
    garbage = {}
    gc.disable()
    try:
        for name, argv in runs.items():
            assert run_cli("--seed", 3, *argv) == 0, name  # lazy imports and caches
            gc.collect()
            assert run_cli("--seed", 3, *argv) == 0, name
            garbage[name] = gc.collect()
    finally:
        gc.enable()
    assert garbage == dict.fromkeys(runs, 0)


# Runs the CLI on its arguments, then fails if the run imported numpy.ma.
_NO_NUMPY_MA = """
import sys
from subspace_money.cli import main
assert main(sys.argv[1:]) == 0
assert "numpy.ma" not in sys.modules
"""


def test_cold_verify_and_correct_do_not_import_numpy_ma(tmp_path, capsys):
    # np.unique imports numpy.ma, about 14 ms of a cold run; the verifier frame
    # dedupes its accepted syndromes without it.
    steps = dict(_lifecycle_steps(tmp_path, 6))
    assert run_cli(*steps["corrupt"]) == 0
    for step in ("verify", "correct"):
        proc = fresh_python("-c", _NO_NUMPY_MA, *steps[step], timeout=60)
        assert proc.returncode == 0, (step, proc.stderr)


def test_cli_python_calls_grow_with_the_support_not_with_2_to_the_n(tmp_path, capsys):
    # The cost target: work on a 2^n note is numpy work, never 2^n Python
    # calls.  From n = 10 to 14 a tolerated note's lines grow 4 times and its
    # amplitudes 16 times, so Python calls per amplitude would break the bound.
    for _, argv in _lifecycle_steps(tmp_path, 6):  # numpy's lazy imports, the parser
        assert run_cli(*argv) == 0
    calls = {}
    for n in (10, 14):
        steps = _lifecycle_steps(tmp_path, n)
        counts = Counter()

        def count(frame, event, arg):
            if event == "call":
                counts[frame.f_code.co_name] += 1

        sys.setprofile(count)
        try:
            codes = [run_cli(*argv) for _, argv in steps]
        finally:
            sys.setprofile(None)
        assert codes == [0, 0, 0]
        calls[n] = counts.total()
    assert calls[14] <= 4 * calls[10], calls


@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(spec=certified_codes(), route=st.sampled_from(["direct", "conjugate"]), data=st.data())
def test_mint_corrupt_verify_correct_round_trip(tmp_path_factory, capsys, spec, route, data):
    # Any tolerated X^e Z^e' verifies with probability one, and correction
    # writes back the fresh note's bytes.  The conjugate route refuses --code,
    # so it mints by its own search at the spec's (n, q).
    tmp = tmp_path_factory.mktemp("round-trip")
    code, note, bad, fixed = (tmp / f"{name}.json" for name in ("code", "note", "bad", "fixed"))
    bank = note.with_suffix(".bank.json")
    n, q = spec.n, spec.q
    mint = ["--seed", 3, "--out", note, "mint", "--n", n, "--q", q, "--route", route]
    if route == "direct":
        save_code(spec, code)
        mint += ["--code", code]
    assert run_cli(*mint) == 0
    errors = enumerate_errors(n, q)
    e, ez = (data.draw(st.sampled_from(errors), label=label) for label in ("e", "e_prime"))
    assert run_cli("--seed", 0, "--out", bad, "corrupt", note, "--e", e, "--ez", ez) == 0
    capsys.readouterr()
    assert run_cli("--seed", 0, "--format", "json", "verify", bad, "--bank", bank) == 0
    assert json.loads(capsys.readouterr().out)["accept_probability"] == pytest.approx(1, abs=1e-9)
    assert run_cli("--seed", 0, "--out", fixed, "correct", bad, "--bank", bank) == 0
    assert fixed.read_bytes() == note.read_bytes()


def test_attack_writes_csv(tmp_path, capsys):
    out = tmp_path / "attack.csv"
    rc = run_cli(
        "--seed", 41, "--out", out, "attack", "--strategy", "passthrough-mixed", "--trials", 300
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("strategy,")
    assert len(lines) == 2


def test_bounds_tables(tmp_path):
    gv_out = tmp_path / "gv.csv"
    rc = run_cli(
        "--seed", 1, "--out", gv_out, "bounds", "--gv", "--n-min", 2, "--n-max", 20, "--q", "1,2"
    )
    assert rc == 0
    assert gv_out.read_text().startswith("n,q,margin")

    s_out = tmp_path / "s.csv"
    rc = run_cli(
        "--seed", 1, "--out", s_out,
        "bounds", "--soundness", "--n-min", 4, "--n-max", 20, "--q", "0,1",
    )
    assert rc == 0
    assert s_out.read_text().startswith("n,q,error_pairs")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--soundness", "--n-min", 3, "--n-max", 3], "the n range holds no even n"),
        (["--soundness", "--n-min", 41, "--n-max", 40], "the n range holds no even n"),
        (["--gv", "--n-min", 5, "--n-max", 4], "the n range holds no n"),
        (["--soundness", "--q", ","], "the q list is empty"),
    ],
    ids=["no-even-n", "reversed-range", "gv-reversed-range", "empty-q-list"],
)
def test_bounds_refuses_an_empty_grid(tmp_path, capsys, flags, message):
    out = tmp_path / "b.csv"
    assert run_cli("--seed", 1, "--out", out, "bounds", *flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_json_format_output(tmp_path, capsys):
    note = tmp_path / "note.json"
    rc = run_cli("--seed", 43, "--out", note, "--format", "json", "mint", "--n", 6, "--q", 1)
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"serial", "note", "bank", "r"}
    assert len(data["serial"]) == 18


def test_json_output_schema_stable_across_runs(tmp_path, capsys):
    note = tmp_path / "note.json"
    run_cli("--seed", 47, "--out", note, "--format", "json", "mint", "--n", 6, "--q", 1)
    first = capsys.readouterr().out
    note2 = tmp_path / "note2.json"
    run_cli("--seed", 47, "--out", note2, "--format", "json", "mint", "--n", 6, "--q", 1)
    second = capsys.readouterr().out
    assert json.loads(first)["serial"] == json.loads(second)["serial"]


# SHA-256 of `demo --seed 0`'s standard output and of each file it writes; the
# completeness sweep lists the tolerated errors in order.
DEMO_DIGESTS = {
    "stdout": "b0731e02eccd14c0f6ac21876b978e389c63e499b8849c0e67632861b5fbfbda",
    "completeness-6-1-none.csv": "39a49a59ca92e2b54eb6c7134a39d387ce661c291b025e6ab0de230a7c03837d",
    "worked-code.json": "6774ada24918828c1963679f0692a85df96f7bf3a95d4be27ba8cb38e9e65899",
}


def test_demo_passes(tmp_path, capsys):
    # A rerun prints and writes the same bytes.
    runs = []
    for name in ("a", "b"):
        rc = run_cli("--seed", 0, "--out", tmp_path / name, "demo")
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "ok  completeness_sweep" in out
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        runs.append({"stdout": out.encode(), **files})
    assert runs[0] == runs[1]
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in runs[0].items()}
    assert digests == DEMO_DIGESTS


# SHA-256 of each demo script's standard output.  Demo 02 prints one float
# deviation (5.55e-17), as platform-bound as the attack CSVs.
DEMO_SCRIPT_DIGESTS = {
    "01_worked_code": "b3dbac48d2aee9ae88b4187d8d5994c16a5a5e679d56e9dbd0166c8ba45fdf1b",
    "02_mint_corrupt_verify": "2a326025bf38497badc732348ce6f554480b06174677858aa5575930f5661255",
    "03_attacks_and_bounds": "413efd93f38af3164230b344be717fcf989921a78e5964e9fb798b11f5187951",
}
DEMOS = Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(DEMOS.glob("0*.py")), ids=lambda path: path.stem)
def test_demo_scripts_print_the_pinned_text_on_a_rerun(capsys, script):
    for _ in range(2):
        runpy.run_path(str(script), run_name="__main__")
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == DEMO_SCRIPT_DIGESTS[script.stem]


def test_the_ci_workflow_holds_no_digest():
    # Every pin lives in the tests above, which CI runs; a digest checked only
    # in the workflow's shell steps would go unchecked wherever the tests run.
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    assert re.findall(r"\b[0-9a-fA-F]{64}\b", workflow.read_text()) == []


def test_demo_json_format(capsys):
    rc = run_cli("--seed", 0, "--format", "json", "demo")
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert all(entry["ok"] for entry in data.values())


def test_mint_against_code_file(tmp_path, capsys):
    code = tmp_path / "code.json"
    run_cli("--seed", 7, "--out", code, "gencode", "--n", 6, "--q", 1)
    capsys.readouterr()
    note = tmp_path / "note.json"
    rc = run_cli("--seed", 53, "--out", note, "mint", "--n", 6, "--q", 1, "--code", code)
    assert rc == 0
    bank = load_record(note.with_suffix(".bank.json"))
    from subspace_money.codes import load_code

    assert bank.spec == load_code(code)


def test_mint_refuses_uncertified_code_file(tmp_path, capsys):
    from subspace_money.codes import CodeSpec, save_code
    from subspace_money.gf2 import SubspaceBasis

    code = tmp_path / "code.json"
    weak = SubspaceBasis.from_strings(["110000", "001100", "000011"])  # d = 2
    save_code(CodeSpec.build(weak, q=1), code)
    note = tmp_path / "note.json"
    rc = run_cli("--seed", 53, "--out", note, "mint", "--n", 6, "--q", 1, "--code", code)
    assert rc == 1
    assert "fails certification" in capsys.readouterr().err
    assert not note.with_suffix(".bank.json").exists()
    assert not note.exists()


def test_mint_uncertified_code_names_the_failed_check(tmp_path, capsys):
    from subspace_money.codes import CodeSpec, save_code
    from subspace_money.gf2 import SubspaceBasis

    # An [8, 4, 3] code whose dual has d = 2: only the dual distance check fails.
    rows = ["10000111", "01010101", "00100101", "00001011"]
    code = tmp_path / "code.json"
    save_code(CodeSpec.build(SubspaceBasis.from_strings(rows), q=1), code)
    rc = run_cli("--seed", 53, "--out", tmp_path / "note.json", "mint", "--n", 8, "--q", 1,
                 "--code", code)
    assert rc == 1
    err = capsys.readouterr().err
    assert "fails certification" in err
    assert "distance_dual: d=2, need >= 3 for q=1" in err
    assert "distance_primal" not in err
    assert "require_applicable" not in err


@pytest.mark.parametrize("n, q", [(8, 2), (6, 1)])
def test_mint_refuses_a_code_file_of_other_parameters(tmp_path, capsys, n, q):
    # An (8, 1) code file: under --q 2 the bank key would hold a q = 1 code.
    code = tmp_path / "c8.json"
    assert run_cli("--seed", 1, "--out", code, "gencode", "--n", 8, "--q", 1) == 0
    capsys.readouterr()
    note = tmp_path / "note.json"
    rc = run_cli("--seed", 2, "--out", note, "mint", "--n", n, "--q", q, "--code", code)
    assert rc == 1
    want = f"the code has (n, q) = (8, 1), but this registry mints (n, q) = ({n}, {q})"
    assert want in capsys.readouterr().err
    assert not note.exists() and not note.with_suffix(".bank.json").exists()


def test_mint_code_skips_code_search(tmp_path, capsys):
    from subspace_money.codes import CodeSpec, certify, save_code
    from subspace_money.gf2 import SubspaceBasis

    # The extended quadratic-residue code [18, 9, 6]: certified for q=2, although
    # a random search at (18, 2) gives up after its 10000 attempts.
    residues = {0, 1, 2, 4, 8, 9, 13, 15, 16}
    rows = []
    for shift in range(17):
        bits = [int((i - shift) % 17 in residues) for i in range(17)]
        rows.append("".join(map(str, bits + [sum(bits) % 2])))
    spec = CodeSpec.build(SubspaceBasis.from_strings(rows), q=2)
    assert spec.code.dim == 9 and certify(spec).passed
    code = tmp_path / "qr18.json"
    save_code(spec, code)
    note = tmp_path / "note.json"
    rc = run_cli("--seed", 5, "--out", note, "mint", "--n", 18, "--q", 2, "--code", code)
    assert rc == 0
    capsys.readouterr()
    bank = note.with_suffix(".bank.json")
    assert load_record(bank).spec == spec
    rc = run_cli("--seed", 1, "--format", "json", "verify", note, "--bank", bank)
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["accept_probability"] == 1.0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli("gencode", "--n", 6)  # missing --q
    assert exc.value.code == 2
    removed = [
        ["verify", "note.json", "--bank", "note.bank.json", "--approach", "subset"],
        ["--format", "csv", "gencode", "--n", 6, "--q", 1],
        ["mint", "--n", 6, "--q", 1, "--route", "conjugate", "--x", "100000"],
        ["mint", "--n", 6, "--q", 1, "--route", "conjugate", "--test-mode"],
    ]
    for argv in removed:
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


def test_reused_parser_matches_fresh_parsers(tmp_path, monkeypatch, capsys):
    steps = [
        ["--seed", 5, "--out", "note.json", "mint", "--n", 6, "--q", 1],
        ["--seed", 5, "mint", "--n", 6],  # missing --q: usage error
        ["--seed", 5, "corrupt", "note.json", "--e", "100000", "--ez", "000010"],
        ["--seed", 5, "--format", "json", "verify", "note.json", "--bank", "note.bank.json"],
        ["--seed", 5, "correct", "note.json", "--bank", "note.bank.json"],
        ["--seed", 5, "--out", "code.json", "gencode", "--n", 6, "--q", 1],
    ]

    def run_all(name, fresh_parsers):
        # Relative paths keep stdout free of the directory name.
        monkeypatch.chdir(tmp_path.joinpath(name))
        cli.build_parser.cache_clear()
        codes = []
        for argv in steps:
            if fresh_parsers:
                cli.build_parser.cache_clear()
            try:
                codes.append(run_cli(*argv))
            except SystemExit as exc:
                codes.append(exc.code)
        files = {p.name: p.read_bytes() for p in sorted(Path.cwd().iterdir())}
        return codes, capsys.readouterr(), files, cli.build_parser.cache_info()

    tmp_path.joinpath("reused").mkdir()
    tmp_path.joinpath("fresh").mkdir()
    codes, streams, files, info = run_all("reused", fresh_parsers=False)
    assert codes == [0, 2, 0, 0, 0, 0]
    assert (info.misses, info.hits) == (1, len(steps) - 1)
    assert sorted(files) == ["code.json", "note.bank.json", "note.json"]
    assert run_all("fresh", fresh_parsers=True)[:3] == (codes, streams, files)
