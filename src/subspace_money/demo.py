"""The worked single-error example, end to end, against golden constants.

A 6-qubit code tolerating one bit flip and one phase flip: the generator
and parity-check matrices below are the published worked example, and every
derived quantity here (distances, the eight codewords, completeness of all
49 tolerated corruptions, rejection and correction behavior) is checked
against what they imply.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .codes import CodeSpec, build_syndrome_table, certify, save_code
from .errors import UndecodableError
from .experiments import completeness_sweep
from .gf2 import BitVec, Gf2Matrix, SubspaceBasis, random_bitvec
from .scheme import (
    MintRecord,
    OracleRegistry,
    correct,
    corrupt,
    mint_direct,
    verify,
)
from .states import max_deviation, subspace_state

# Generator matrix (6x3): column j spans the code; read columns top to bottom.
GENERATOR_COLUMNS = ("100011", "010110", "001101")

# Parity check matrix of the code (3x6 rows) and of its dual.
PARITY_ROWS = ("011100", "110010", "101001")
DUAL_PARITY_ROWS = GENERATOR_COLUMNS  # H for the dual is the generator transposed

CODEWORDS = (
    "000000",
    "100011",
    "010110",
    "001101",
    "110101",
    "101110",
    "011011",
    "111000",
)

DISTANCE = 3
TOLERANCE_Q = 1

UNDECODABLE_FLIP = "000111"  # weight 2: syndrome has no table entry
CORRECTABLE = ("100000", "010000")


def worked_spec() -> CodeSpec:
    """The example code as a CodeSpec with q = 1."""
    return CodeSpec.build(SubspaceBasis.from_strings(GENERATOR_COLUMNS), q=TOLERANCE_Q)


def run(out_dir: Path | None = None, seed: int | None = 0, as_json: bool = False) -> int:
    """Execute every golden check; one line per check; exit 0 iff all hold."""
    seed = 0 if seed is None else seed
    results: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, bool(ok), detail))

    # -- the code itself ------------------------------------------------------
    spec = worked_spec()
    check("distance_primal", spec.d_primal == DISTANCE, f"d(C) = {spec.d_primal}")
    check("distance_dual", spec.d_dual == DISTANCE, f"d(C dual) = {spec.d_dual}")
    check("certified", certify(spec).passed, "full recomputation")

    h_c = Gf2Matrix.from_strings(PARITY_ROWS)
    g_c = Gf2Matrix.from_strings(GENERATOR_COLUMNS).transpose()  # 6x3, columns generate
    product = h_c @ g_c
    check("parity_times_generator", product.is_zero(), "H_C . G_C = 0 over GF(2)")
    check(
        "parity_row_space",
        SubspaceBasis(6, list(h_c)) == spec.dual_code,
        "printed H_C spans the dual",
    )
    check(
        "dual_generator",
        SubspaceBasis.from_strings(DUAL_PARITY_ROWS) == spec.code,
        "printed H for the dual spans the code",
    )

    # -- the codeword state ----------------------------------------------------
    state = subspace_state(spec.code)
    support = {str(b) for b in state.support()}
    check("codeword_support", support == set(CODEWORDS), f"{len(support)} strings")
    amp = 1.0 / math.sqrt(8.0)
    worst = max(abs(state.amplitude(BitVec.from_string(w)) - amp) for w in CODEWORDS)
    check("codeword_amplitudes", worst < 1e-12, f"max deviation {worst:.2e} from 1/sqrt(8)")

    # -- syndromes ---------------------------------------------------------------
    table = build_syndrome_table(h_c, q=TOLERANCE_Q)
    columns = {h_c.column(j) for j in range(6)}
    check(
        "syndrome_table",
        len(table) == 7 and set(table.entries) == columns | {BitVec.from_string("000")},
        "zero plus the six parity columns",
    )
    check(
        "undecodable_syndrome",
        table.decode(h_c.mul_vec(BitVec.from_string(UNDECODABLE_FLIP))) is None,
        f"{UNDECODABLE_FLIP} has no table entry",
    )

    # -- mint, verify, corrupt, correct -----------------------------------------
    registry = OracleRegistry(6, TOLERANCE_Q, master_seed=seed)
    r = BitVec.zeros(6)
    serial = random_bitvec(18, seed)
    registry.install_record(MintRecord(r, serial, spec, "direct"))
    note = mint_direct(registry, r)
    check(
        "fresh_note_verifies",
        abs(verify(registry, note, rng=seed).accept_probability - 1.0) < 1e-9,
        "probability 1",
    )

    sweep = completeness_sweep(spec)
    worst_row = min(row[2] for row in sweep.rows)
    check(
        "completeness_sweep",
        len(sweep.rows) == 49 and worst_row > 1.0 - 1e-9,
        f"49 corruptions, min probability {worst_row:.12f}",
    )

    heavy = corrupt(note, BitVec.from_string(UNDECODABLE_FLIP), BitVec.zeros(6))
    heavy_outcome = verify(registry, heavy, rng=seed)
    check("undecodable_rejected", heavy_outcome.accept_probability == 0.0, "probability 0")
    try:
        correct(registry, heavy)
        check("undecodable_correction_fails", False, "unexpectedly corrected")
    except UndecodableError:
        check("undecodable_correction_fails", True, "explicit failure")

    e, ep = (BitVec.from_string(s) for s in CORRECTABLE)
    bad = corrupt(note, e, ep)
    session = registry.session(serial)
    fixed = correct(registry, bad, session=session)
    dev = max_deviation(fixed.state, note.state)
    check(
        "correction_round_trip",
        dev < 1e-12,
        f"deviation {dev:.2e}, {session.counters['coset']} coset queries",
    )

    # -- report -------------------------------------------------------------------
    if as_json:
        print(
            json.dumps(
                {name: {"ok": ok, "detail": detail} for name, ok, detail in results},
                sort_keys=True,
            )
        )
    else:
        for name, ok, detail in results:
            mark = "ok " if ok else "FAIL"
            print(f"{mark} {name}: {detail}")
    failed = [name for name, ok, _ in results if not ok]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        sweep.save(out_dir)
        save_code(spec, out_dir / "worked-code.json")
    if failed and not as_json:
        print(f"FAILED: {', '.join(failed)}")
    return 1 if failed else 0
