"""Experiment harness: completeness sweeps, attack baselines, bound tables.

Every experiment returns an ExperimentReport whose rows are fully
deterministic given (parameters, seed) and which serializes to CSV with a
stable column order, so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .codes import (
    CodeSpec,
    _write_files,
    count_error_pairs,
    enumerate_errors,
    error_count,
    gv_margin,
    soundness_log2,
    soundness_tradeoff,
)
from .errors import reserve
from .gf2 import random_bitvec
from .oracles import VerifierFrame
from .rng import Seed, as_generator
from .scheme import OracleRegistry, mint_direct

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
        _write_files((path, self.to_csv_text()))
        return path


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval; well-behaved at rates near 0 and 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    z = WILSON_Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# completeness


def completeness_sweep(spec: CodeSpec) -> ExperimentReport:
    """Exact acceptance probability of every tolerated corruption of the code state.

    For a certified code all rows report probability one.  Each state is
    built as its one row of the code's verifier frame (see
    VerifierFrame.coset_probability), not as a 2^n vector.
    """
    frame = VerifierFrame.of(spec)
    errors = enumerate_errors(spec.n, spec.q)
    return ExperimentReport(
        name="completeness",
        parameters={"n": spec.n, "q": spec.q},
        columns=("bit_flip", "phase_flip", "accept_probability"),
        rows=tuple(
            (str(e), str(ep), frame.coset_probability(e, ep)) for e in errors for ep in errors
        ),
    )


# ---------------------------------------------------------------------------
# attacks


# A strategy(note, frame, rng, trials) sees only the banknote and the verifier
# frame's scoring kernels, never the code.  It yields blocks of consecutive
# trials as (Ver2's probability per trial or one for all, uniforms): trial t
# is accepted when uniforms[t] falls below its probability.  A block's arrays
# may be refilled for the next block, so they are read before it is asked for.

# Live float64 entries in one block of random-state registers: sixteen trials
# (four 2^n-entry normal vectors each) at n = 6, one trial from n = 10 on.
# Beside the block, its kernel holds the gathered cosets and their kept Walsh
# rows, under twice the block, as walsh_butterflies keeps numpy's operand
# buffers out, so random-state sets the attack's peak (see _trial_blocks).
_BLOCK_ENTRIES = 4096


def _trial_blocks(trials):
    """The sizes of consecutive blocks of trials, of at most _BLOCK_ENTRIES / 4 each.

    The closed-form strategies hold the note (and its CDF) and draw and score
    one block at a time, so their trial-sized arrays (a trial's two draws,
    its probability and its running sum) stay under _BLOCK_ENTRIES float64
    entries whatever the trial count.  Successive draws give the same doubles
    as one draw for every trial.
    """
    size = _BLOCK_ENTRIES // 4
    for start in range(0, trials, size):
        yield min(size, trials - start)


def _attack_passthrough_mixed(note, frame, rng, trials):
    """Keep the real note in register one, attach a maximally mixed register."""
    prob = frame.apply(note.state)[0] * frame.mixed_probability()
    for size in _trial_blocks(trials):
        yield prob, rng.random(size)


def _attack_measure_and_copy(note, frame, rng, trials):
    """Measure the note in the computational basis and emit the string twice."""
    cdf = note.state.probabilities()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    for size in _trial_blocks(trials):
        # A trial draws the measurement, one uniform through the CDF as
        # Generator.choice(p=...) does, then the decision uniform.
        draws = rng.random((size, 2))
        p = frame.basis_probabilities(cdf.searchsorted(draws[:, 0], side="right"))
        yield p * p, draws[:, 1]
        del draws, p  # before the next block is drawn


def _attack_random_state(note, frame, rng, trials):
    """Two independent Haar-ish random pure registers; ignores the note."""
    dim = 1 << frame.n
    shape = (min(trials, max(1, _BLOCK_ENTRIES // (4 * dim))), 2, 2, dim)
    reserve(shape, np.float64)
    # One block, refilled in place: the caller is done with a block when it asks for the next.
    block, uniforms = np.empty(shape), np.empty(shape[0])
    for start in range(0, trials, shape[0]):
        # parts[t, register, real or imaginary]: a trial draws its four normal
        # vectors in that order, then its decision uniform.
        parts = block[: trials - start]
        for t, row in enumerate(parts):
            rng.standard_normal(out=row)
            uniforms[t] = rng.random()
        yield frame.block_probabilities(parts).prod(axis=-1), uniforms[: len(parts)]


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
    strategy: str,
    trials: int,
    seed: Seed,
) -> ExperimentReport:
    """Empirical double-verify acceptance of a baseline counterfeiter.

    Reports the sampled rate with its Wilson 95% interval, the analytic rate
    where available, the mean exact per-trial probability, and the session's
    total oracle charges.

    Each strategy scores its blocks of trials with the record's verifier
    frame, taken once and charged as two passes per trial.  After the minting
    draws, the stream is per trial: random-state's four normal vectors, or
    measure-and-copy's measurement uniform, then the decision uniform; the
    per-trial probabilities are summed in trial order, so the report does
    not depend on the block size.
    """
    attack = _STRATEGIES.get(strategy)
    if attack is None:
        raise ValueError(f"unknown strategy {strategy!r}; known: {sorted(_STRATEGIES)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    rng = as_generator(seed)
    note = mint_direct(registry, random_bitvec(registry.n, rng))
    session = registry.session(note.serial)
    frame = session.verifier_frame(passes=2 * trials)

    successes = 0
    prob_sum = 0.0
    for probs, uniforms in attack(note, frame, rng, trials):
        # The method, not np.clip, whose wrapper leaves its keyword dicts in the interpreter's
        # free lists, traced-heap memory that only a full gc collection releases.
        probs = np.broadcast_to(np.asarray(probs).clip(0.0, 1.0), uniforms.shape)
        successes += int(np.count_nonzero(uniforms < probs))
        prob_sum = float(np.add.accumulate(np.concatenate(([prob_sum], probs)))[-1])
        # The block goes before the next one is drawn.
        del uniforms, probs

    low, high = wilson_interval(successes, trials)
    analytic = analytic_attack_rate(strategy, registry.n, registry.q)
    row = {
        "strategy": strategy,
        "n": registry.n,
        "q": registry.q,
        "trials": trials,
        "successes": successes,
        "empirical_rate": successes / trials,
        "wilson_low": low,
        "wilson_high": high,
        "analytic_rate": math.nan if analytic is None else analytic,
        "mean_probability": prob_sum / trials,
        "queries_primal": session.counters["primal"],
        "queries_dual": session.counters["dual"],
        "combined_equivalent": session.combined_equivalent,
    }
    return ExperimentReport(
        name=f"attack-{strategy}",
        parameters={"n": registry.n, "q": registry.q, "trials": trials},
        columns=tuple(row),
        rows=(tuple(row.values()),),
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
    if not n_values or not q_list:
        raise ValueError("the q list is empty" if n_values else "the n range holds no n")
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
    """Soundness bound |E_q|^2 eps (|E_q|: error_count^2 pairs) on even n, default eps 2^(-n/2)."""
    n_values = [n for n in n_range if n % 2 == 0]
    if not n_values or not q_list:
        raise ValueError("the q list is empty" if n_values else "the n range holds no even n")
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


def smallest_sound_n(q: int, eps: float | None = None) -> int | None:
    """Smallest even n up to 200 whose soundness bound drops below one, by scanning."""
    for n in range(2, 201, 2):
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
