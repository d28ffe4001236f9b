"""Experiment harness: completeness sweeps, attack baselines, bound tables.

Every experiment returns an ExperimentReport whose rows are fully
deterministic given (parameters, seed) and which serializes to CSV with a
stable column order, so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .codes import (
    CodeSpec,
    count_error_pairs,
    enumerate_errors,
    error_count,
    gv_margin,
    soundness_log2,
    soundness_tradeoff,
)
from .gf2 import BitVec, random_bitvec
from .oracles import subset_predicate
from .rng import Seed, as_generator
from .scheme import OracleRegistry, apply_verifier, double_verify, mint_direct
from .states import DenseState, MixedState, coset_state

WILSON_Z95 = 1.959963984540054


@dataclass(frozen=True)
class ExperimentReport:
    """Named, parameterized, seeded tabular results."""

    name: str
    parameters: Mapping[str, Any]
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    seed: int | None = None

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def default_filename(self) -> str:
        n = self.parameters.get("n", "x")
        q = self.parameters.get("q", "x")
        seed = "none" if self.seed is None else self.seed
        return f"{self.name}-{n}-{q}-{seed}.csv"

    def save(self, directory: str | Path) -> Path:
        directory = Path(directory)
        path = directory / self.default_filename() if directory.is_dir() else directory
        path.write_text(self.to_csv_text())
        return path


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval; well-behaved at rates near 0 and 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# completeness


def completeness_sweep(spec: CodeSpec, *, probe_undecodable: bool = False) -> ExperimentReport:
    """Exact acceptance probability of every tolerated corruption of the code state.

    For a certified code all rows report probability one.  With
    probe_undecodable an extra row applies a weight-(q+1) bit-flip pattern
    whose syndrome is not in the table; its probability is zero.
    """
    primal = subset_predicate(spec, "primal")
    dual = subset_predicate(spec, "dual")
    errors = enumerate_errors(spec.n, spec.q)
    rows = []
    for e in errors:
        for ep in errors:
            state = coset_state(spec.code, e, ep)
            prob, _ = apply_verifier(state, primal, dual)
            rows.append((str(e), str(ep), prob))
    if probe_undecodable:
        probe = _undecodable_probe(spec)
        state = coset_state(spec.code, probe, BitVec.zeros(spec.n))
        prob, _ = apply_verifier(state, primal, dual)
        rows.append((str(probe), "0" * spec.n, prob))
    return ExperimentReport(
        name="completeness",
        parameters={"n": spec.n, "q": spec.q},
        columns=("bit_flip", "phase_flip", "accept_probability"),
        rows=tuple(rows),
    )


def _undecodable_probe(spec: CodeSpec) -> BitVec:
    """A weight-(q+1) bit-flip pattern whose syndrome decodes to nothing."""
    import itertools

    from .codes import build_syndrome_table

    table = build_syndrome_table(spec.parity_primal, spec.q)
    for positions in itertools.combinations(range(spec.n), spec.q + 1):
        e = BitVec.from_support(spec.n, positions)
        if table.decode(spec.parity_primal.mul_vec(e)) is None:
            return e
    raise ValueError("every weight-(q+1) error is decodable; the code is perfect for q")


# ---------------------------------------------------------------------------
# attacks


@dataclass(frozen=True)
class AttackStrategy:
    """A named counterfeiting baseline plus free-form parameters.

    Strategies only see the banknote and a charge-counting oracle session,
    never the code itself.
    """

    kind: str
    parameters: Mapping[str, Any] = field(default_factory=dict)


def _attack_passthrough_mixed(note, session, rng):
    """Keep the real note in register one, attach a maximally mixed register."""
    return (note.state, MixedState.maximally_mixed(session.n))


def _attack_measure_and_copy(note, session, rng):
    """Measure the note in the computational basis and emit the string twice."""
    probs = note.state.probabilities()
    v = int(rng.choice(len(probs), p=probs))
    copy = DenseState.basis_state(session.n, v)
    return (copy, copy)


def _attack_random_state(note, session, rng):
    """Two independent Haar-ish random pure registers; ignores the note."""

    def haar(n):
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        return DenseState(n, amps / np.linalg.norm(amps))

    return (haar(session.n), haar(session.n))


_STRATEGIES = {
    "passthrough-mixed": _attack_passthrough_mixed,
    "measure-and-copy": _attack_measure_and_copy,
    "random-state": _attack_random_state,
}

ATTACK_KINDS = tuple(_STRATEGIES)


def analytic_attack_rate(kind: str, n: int, q: int) -> float | None:
    """Exact double-verification acceptance rate of a baseline, where known.

    passthrough-mixed: register one always passes, register two contributes
    the projector rank over the space dimension.  measure-and-copy: each
    classical copy of a codeword overlaps only the zero bit-flip cosets,
    one phase pattern each.  random-state: the value is the expectation, not
    an exact per-trial rate.
    """
    eq = count_error_pairs(n, q)
    if kind == "passthrough-mixed":
        return eq / 2**n
    if kind == "measure-and-copy":
        return (error_count(n, q) / 2 ** (n // 2)) ** 2
    if kind == "random-state":
        return (eq / 2**n) ** 2
    return None


def run_attack(
    registry: OracleRegistry,
    strategy: AttackStrategy | str,
    trials: int,
    seed: Seed,
) -> ExperimentReport:
    """Empirical double-verify acceptance of a baseline counterfeiter.

    Reports the sampled rate with its Wilson 95% interval, the analytic rate
    where available, the mean exact per-trial probability, and the session's
    total oracle charges.
    """
    if isinstance(strategy, str):
        strategy = AttackStrategy(strategy)
    attack = _STRATEGIES.get(strategy.kind)
    if attack is None:
        raise ValueError(f"unknown strategy {strategy.kind!r}; known: {sorted(_STRATEGIES)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    rng = as_generator(seed)
    note = mint_direct(registry, random_bitvec(registry.n, rng))
    session = registry.session(note.serial)

    successes = 0
    prob_sum = 0.0
    for _ in range(trials):
        joint = attack(note, session, rng)
        prob, sampled = double_verify(registry, note.serial, joint, rng=rng, session=session)
        successes += int(sampled)
        prob_sum += prob

    empirical = successes / trials
    low, high = wilson_interval(successes, trials)
    analytic = analytic_attack_rate(strategy.kind, registry.n, registry.q)
    row = (
        strategy.kind,
        registry.n,
        registry.q,
        trials,
        successes,
        empirical,
        low,
        high,
        math.nan if analytic is None else analytic,
        prob_sum / trials,
        session.ledger.counters["primal"],
        session.ledger.counters["dual"],
        session.ledger.combined_equivalent,
    )
    return ExperimentReport(
        name=f"attack-{strategy.kind}",
        parameters={"n": registry.n, "q": registry.q, "trials": trials},
        columns=(
            "strategy",
            "n",
            "q",
            "trials",
            "successes",
            "empirical_rate",
            "wilson_low",
            "wilson_high",
            "analytic_rate",
            "mean_probability",
            "queries_primal",
            "queries_dual",
            "combined_equivalent",
        ),
        rows=(row,),
        seed=_seed_label(seed),
    )


def _seed_label(seed: Seed) -> int | None:
    return int(seed) if isinstance(seed, (int, np.integer)) else None


# ---------------------------------------------------------------------------
# bound tables


def gv_table(n_range: Iterable[int], q_list: Sequence[int]) -> ExperimentReport:
    """Existence margins 1 - 2 H(2q/n) over a parameter grid.

    For fixed q the margin starts at +1 when n = 2q, decreases through zero
    to -1 at n = 4q, then increases monotonically; the positive stretch for
    large n is where applicable codes exist (asymptotically).
    """
    n_values = list(n_range)
    rows = []
    for q in q_list:
        for n in n_values:
            if 2 * q > n:
                continue
            rows.append((n, q, gv_margin(n, q)))
    return ExperimentReport(
        name="gv-margin",
        parameters={"n": f"{min(n_values)}..{max(n_values)}", "q": "-".join(map(str, q_list))},
        columns=("n", "q", "margin"),
        rows=tuple(rows),
    )


def soundness_table(
    n_range: Iterable[int], q_list: Sequence[int], eps: float | None = None
) -> ExperimentReport:
    """The soundness bound |E_q|^2 eps over a grid of even n, default eps = 2^(-n/2)."""
    n_values = [n for n in n_range if n % 2 == 0]
    rows = []
    for q in q_list:
        for n in n_values:
            rows.append(
                (
                    n,
                    q,
                    count_error_pairs(n, q),
                    soundness_tradeoff(n, q, eps),
                    soundness_log2(n, q, eps),
                )
            )
    return ExperimentReport(
        name="soundness",
        parameters={"n": f"{min(n_values)}..{max(n_values)}", "q": "-".join(map(str, q_list))},
        columns=("n", "q", "error_pairs", "soundness_bound", "log2_soundness_bound"),
        rows=tuple(rows),
    )


def smallest_sound_n(q: int, n_max: int = 200, eps: float | None = None) -> int | None:
    """Smallest even n whose soundness bound drops below one, by scanning."""
    for n in range(2, n_max + 1, 2):
        if soundness_tradeoff(n, q, eps) < 1.0:
            return n
    return None


def amplification_cost(epsilon: float, delta: float) -> float:
    """Query-count bound log(1/delta) / (sqrt(eps) (sqrt(eps) + delta^2)).

    This evaluates the asymptotic amplification bound's argument with
    constant factor one; it is a calculator, not a simulated procedure.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    root = math.sqrt(epsilon)
    return math.log(1.0 / delta) / (root * (root + delta * delta))
