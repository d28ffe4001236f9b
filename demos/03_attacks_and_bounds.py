#!/usr/bin/env python3
"""Counterfeiting baselines against the double verifier, and the bound tables.

At desk scale the soundness bound is vacuous and the baselines already hit
it; the tables show how growing n restores security for a fixed tolerance.
"""

from subspace_money import (
    OracleRegistry,
    amplification_cost,
    gv_table,
    run_attack,
    smallest_sound_n,
    soundness_table,
)

SEED = 99

print("== attack baselines at n=6, q=1 ==")
registry = OracleRegistry(n=6, q=1, master_seed=SEED)
for kind in ("passthrough-mixed", "measure-and-copy", "random-state"):
    report = run_attack(registry, kind, trials=4000, seed=SEED)
    row = dict(zip(report.columns, report.rows[0]))
    print(f"{kind:18s} empirical {row['empirical_rate']:.4f}  "
          f"wilson [{row['wilson_low']:.4f}, {row['wilson_high']:.4f}]  "
          f"analytic {row['analytic_rate']:.4f}")

print()
print("== existence margins (positive = applicable code exists, asymptotically) ==")
table = gv_table(range(2, 21), [1, 2])
for n, q, margin in table.rows:
    if q == 1 and n <= 12:
        bar = "#" * int(10 * abs(margin))
        sign = "-" if margin < 0 else "+"
        print(f"  n={n:2d} q={q}  {margin:+.4f} {sign}{bar}")

print()
print("== soundness bound |E_q|^2 * 2^(-n/2) ==")
s = soundness_table(range(4, 41), [1])
for n, q, pairs, value, log2v in s.rows:
    if n % 8 == 4:
        print(f"  n={n:2d}: {pairs:6d} tolerated pairs, bound {value:.3e} (log2 {log2v:+.1f})")
for q in (1, 2, 3):
    print(f"  bound first drops below 1 at n = {smallest_sound_n(q)} for q = {q}")

print()
print("== amplification cost calculator ==")
for eps in (0.5, 0.1, 0.01):
    print(f"  success {eps:4.2f} -> about {amplification_cost(eps, 1e-5):8.1f} "
          f"verifier/counterfeiter calls to reach fidelity 1 - 1e-5")
