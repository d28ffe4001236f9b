#!/usr/bin/env python3
"""Mint banknotes both ways, corrupt them, verify them, correct them.

Shows the conjugate-coding route agreeing with direct minting, perfect
completeness under every tolerated corruption, rejection of an undecodable
one, and the per-coset correction procedure with its query bill.
"""

from subspace_money import (
    BitVec,
    OracleRegistry,
    completeness_sweep,
    correct,
    corrupt,
    enumerate_errors,
    max_deviation,
    mint_conjugate,
    mint_direct,
    random_bitvec,
    verify,
)
from subspace_money.errors import UndecodableError

SEED = 7

print("== minting, two routes ==")
registry = OracleRegistry(n=6, q=1, master_seed=SEED, route="conjugate")
r = random_bitvec(6, SEED)
record = registry.generate(r)
print(f"bank randomness r = {r}")
print(f"serial            = {record.serial}")
print(f"theta             = {record.theta} (Hadamard positions)")

direct = mint_direct(registry, r)
conjugate = mint_conjugate(registry, r)
print(f"direct vs conjugate mint deviation: {max_deviation(direct.state, conjugate.state):.2e}")

print()
print("== verification of tolerated corruptions ==")
note = direct
outcome = verify(registry, note, rng=SEED)
print(f"fresh note accepts with probability {outcome.accept_probability:.12f}")

sweep = completeness_sweep(record.spec)
probs = [row[2] for row in sweep.rows]
print(f"all {len(probs)} tolerated (bit-flip, phase-flip) pairs accept: "
      f"min probability {min(probs):.12f}")

print()
print("== an intolerable corruption ==")
errors = enumerate_errors(6, 2)
heavy = next(e for e in errors if e.weight == 2
             and not any((e ^ d).weight <= 1 for d in record.spec.code.vectors()))
bad = corrupt(note, heavy, BitVec.zeros(6))
outcome = verify(registry, bad, rng=SEED)
print(f"X^{heavy} corruption accepts with probability {outcome.accept_probability:.1f}")

print()
print("== correction round trip ==")
e, ep = BitVec.from_string("010000"), BitVec.from_string("000100")
damaged = corrupt(note, e, ep)
session = registry.session(note.serial)
fixed = correct(registry, damaged, session=session)
print(f"corrupted with X^{e} Z^{ep}")
print(f"recovered note deviation from fresh: {max_deviation(fixed.state, note.state):.2e}")
print(f"coset oracle queries spent: {session.counters['coset']}"
      f" (combined-equivalent {session.combined_equivalent})")

print()
print("== the undecodable case fails loudly ==")
try:
    correct(registry, bad)
except UndecodableError as exc:
    print(f"UndecodableError: {exc}")
