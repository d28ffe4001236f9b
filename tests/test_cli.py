"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import pytest

from subspace_money import cli
from subspace_money.cli import main
from subspace_money.scheme import load_banknote, load_record


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


def test_demo_passes(tmp_path, capsys):
    rc = run_cli("--seed", 0, "--out", tmp_path / "demo", "demo")
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "ok  completeness_sweep" in out
    assert (tmp_path / "demo" / "worked-code.json").exists()


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
