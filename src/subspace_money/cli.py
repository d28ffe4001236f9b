"""Command-line front door.

Subcommands: gencode, mint, corrupt, verify, correct, attack, bounds, demo.
Every run is reproducible from its full flag set; when no --seed is given
one is drawn and printed so the run can be replayed.  Exit codes: 0 success,
1 domain failures (no code found, unknown serial, undecodable note, an
allocation refused as over the budget, an input file that is missing,
unreadable, malformed or wrongly sized, a file that cannot be written),
2 usage errors.  No subcommand builds a 2^n note: mint writes its lines in
closed form, verify and correct score a file's parsed lines in the verifier
frame, corrupt and correct rewrite them under a Pauli.  Each file is written
to a new temporary beside it, under a random name, and then moved into place,
so a failed command leaves every file it would write as it was and a
temporary left by a killed run blocks no later one (see codes._write_files);
a mint whose bank key file is its note file writes neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import demo as demo_module
from .codes import (
    DEFAULT_MAX_ATTEMPTS,
    _write_files,
    certify,
    load_code,
    save_code,
    search_applicable_code,
)
from .errors import (
    BudgetExceededError,
    CodeSearchError,
    SerialCollisionError,
    SyndromeCollisionError,
    UndecodableError,
    UnknownSerialError,
)
from .experiments import ATTACK_KINDS, gv_table, run_attack, soundness_table
from .gf2 import BitVec, random_bitvec
from .scheme import (
    OracleRegistry,
    banknote_text,
    correct,
    corrupt,
    load_banknote_dump,
    load_record,
    mint_dump,
    random_corruption,
    record_text,
    registry_for_record,
    save_banknote_dump,
    verify,
)
from .states import _dump_lines

DOMAIN_ERRORS = (
    BudgetExceededError,
    CodeSearchError,
    SerialCollisionError,
    SyndromeCollisionError,
    UndecodableError,
    UnknownSerialError,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later main() call."""
    parser = argparse.ArgumentParser(
        prog="subspace-money",
        description="Noise-tolerant public-key quantum money, exactly simulated at desk scale.",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="master seed; drawn and printed if absent"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="output file (or directory for demo)"
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="text", help="summary format on stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gencode", help="search for an applicable CSS code and write it as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)

    p = sub.add_parser("mint", help="mint a banknote; writes the note and a bank key file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=str, default=None, help="bank randomness bits (length n)")
    p.add_argument("--route", choices=("direct", "conjugate"), default="direct")
    p.add_argument(
        "--bank-out", type=Path, default=None, help="bank key file (default: <out>.bank.json)"
    )
    p.add_argument(
        "--code",
        type=Path,
        default=None,
        help="mint against this CodeSpec file instead of searching",
    )

    p = sub.add_parser("corrupt", help="apply Pauli noise to a banknote file")
    p.add_argument("note", type=Path)
    p.add_argument("--e", type=str, default=None, help="bit-flip pattern")
    p.add_argument("--ez", type=str, default=None, help="phase-flip pattern")
    p.add_argument(
        "--rand-weight", type=int, default=None, help="draw both patterns at this weight"
    )

    p = sub.add_parser("verify", help="verify a banknote file against a bank key file")
    p.add_argument("note", type=Path)
    p.add_argument("--bank", type=Path, required=True)

    p = sub.add_parser("correct", help="identify and undo the note's Pauli error")
    p.add_argument("note", type=Path)
    p.add_argument("--bank", type=Path, required=True)

    p = sub.add_parser("attack", help="run a counterfeiting baseline against the double verifier")
    p.add_argument("--strategy", choices=ATTACK_KINDS, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--q", type=int, default=1)

    p = sub.add_parser("bounds", help="emit existence-margin or soundness tables as CSV")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--gv", action="store_true")
    kind.add_argument("--soundness", action="store_true")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--q", type=str, default="1", help="comma-separated tolerance list")

    sub.add_parser("demo", help="re-run the worked single-error example end to end")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None:
        args.seed = int(np.random.SeedSequence().entropy % (1 << 62))
        print(f"seed: {args.seed} (drawn; pass --seed {args.seed} to reproduce)")
    try:
        return _HANDLERS[args.command](args)
    except (*DOMAIN_ERRORS, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _emit(args, summary: dict, text_line: str) -> None:
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True))
    else:
        print(text_line)


def _cmd_gencode(args) -> int:
    spec = search_applicable_code(args.n, args.q, args.seed, args.max_attempts)
    report = certify(spec)
    out = args.out or Path(f"code-{args.n}-{args.q}-{args.seed}.json")
    save_code(spec, out)
    _emit(
        args,
        {
            "n": args.n,
            "q": args.q,
            "d_primal": spec.d_primal,
            "d_dual": spec.d_dual,
            "certified": report.passed,
            "file": str(out),
        },
        f"found C in W: d={spec.d_primal}/{spec.d_dual}, certified={report.passed}, wrote {out}",
    )
    return 0


def _cmd_mint(args) -> int:
    out = args.out or Path("note.json")
    bank_out = args.bank_out or out.with_suffix(".bank.json")
    if bank_out.resolve() == out.resolve():
        raise ValueError(f"--bank-out {bank_out} is the note file {out}; the bank key would overwrite it")
    registry = OracleRegistry(args.n, args.q, master_seed=args.seed, route=args.route)
    r = random_bitvec(args.n, args.seed) if args.r is None else BitVec.from_string(args.r)
    if args.code is not None:
        if args.route == "conjugate":
            raise ValueError("--code supports only the direct route")
        registry.generate(r, load_code(args.code))
    record, text = mint_dump(registry, r)
    # The bank key first: a note with no bank key could never verify.
    _write_files((bank_out, record_text(record)), (out, banknote_text(record.serial, text)))
    _emit(
        args,
        {"serial": str(record.serial), "note": str(out), "bank": str(bank_out), "r": str(r)},
        f"minted serial {record.serial} (r={r}); note -> {out}, bank key -> {bank_out}",
    )
    return 0


def _cmd_corrupt(args) -> int:
    note = load_banknote_dump(args.note)
    n = note.n
    if args.rand_weight is not None:
        if args.e is not None or args.ez is not None:
            raise ValueError("--rand-weight excludes --e/--ez")
        e, ep = random_corruption(n, args.rand_weight, args.seed)
    else:
        e = BitVec.from_string(args.e) if args.e else BitVec.zeros(n)
        ep = BitVec.from_string(args.ez) if args.ez else BitVec.zeros(n)
    out = args.out or args.note
    save_banknote_dump(note.serial, _dump_lines(*corrupt(note, e, ep).state), out)
    _emit(
        args,
        {"serial": str(note.serial), "e": str(e), "e_prime": str(ep), "file": str(out)},
        f"applied X^{e} Z^{ep}; wrote {out}",
    )
    return 0


def _cmd_verify(args) -> int:
    registry = registry_for_record(load_record(args.bank))
    note = load_banknote_dump(args.note)
    outcome = verify(registry, note, rng=args.seed)
    summary = {
        "serial": str(note.serial),
        "accept_probability": outcome.accept_probability,
        "accepted": outcome.accepted,
        "reason": outcome.reason,
    }
    if outcome.reason is not None:
        _emit(args, summary, f"reject: {outcome.reason}")
        return 1
    _emit(
        args,
        summary,
        f"accept probability {outcome.accept_probability:.6f}; sampled "
        f"{'accept' if outcome.accepted else 'reject'}",
    )
    return 0


def _cmd_correct(args) -> int:
    registry = registry_for_record(load_record(args.bank))
    note = load_banknote_dump(args.note)
    session = registry.session(note.serial)
    fixed = correct(registry, note, session=session)
    out = args.out or args.note
    save_banknote_dump(note.serial, _dump_lines(*fixed.state), out)
    _emit(
        args,
        {
            "serial": str(note.serial),
            "coset_queries": session.counters["coset"],
            "file": str(out),
        },
        f"corrected; {session.counters['coset']} coset queries; wrote {out}",
    )
    return 0


def _cmd_attack(args) -> int:
    registry = OracleRegistry(args.n, args.q, master_seed=args.seed)
    report = run_attack(registry, args.strategy, args.trials, args.seed)
    out = args.out or Path(report.default_filename())
    report.save(out)
    row = dict(zip(report.columns, report.rows[0]))
    _emit(
        args,
        {**row, "file": str(out)},
        f"{args.strategy}: empirical {row['empirical_rate']:.4f} "
        f"(wilson [{row['wilson_low']:.4f}, {row['wilson_high']:.4f}], "
        f"analytic {row['analytic_rate']:.4f}); wrote {out}",
    )
    return 0


def _cmd_bounds(args) -> int:
    q_list = [int(tok) for tok in args.q.split(",") if tok]
    n_range = range(args.n_min, args.n_max + 1)
    report = gv_table(n_range, q_list) if args.gv else soundness_table(n_range, q_list)
    out = args.out or Path(report.default_filename())
    report.save(out)
    _emit(
        args,
        {"rows": len(report.rows), "file": str(out)},
        f"{report.name}: {len(report.rows)} rows; wrote {out}",
    )
    return 0


def _cmd_demo(args) -> int:
    return demo_module.run(out_dir=args.out, seed=args.seed, as_json=(args.format == "json"))


_HANDLERS = {
    "gencode": _cmd_gencode,
    "mint": _cmd_mint,
    "corrupt": _cmd_corrupt,
    "verify": _cmd_verify,
    "correct": _cmd_correct,
    "attack": _cmd_attack,
    "bounds": _cmd_bounds,
    "demo": _cmd_demo,
}


if __name__ == "__main__":
    sys.exit(main())
