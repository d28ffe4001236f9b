"""The four benchmark workloads.

Each is a closed loop with one client.  A workload draws every input from
its seed (``make_input``), performs one timed operation on it (``op``) and
checks the result untimed (``check``).  ``setup`` is everything a client
pays before its first operation; the harness times it.  ``cycle`` is the
number of consecutive inputs that together hold the workload's fixed mix,
and the harness stops only at a cycle boundary so every run keeps that mix.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

STRATEGIES = ("passthrough-mixed", "measure-and-copy", "random-state")


def tolerated_errors(n: int, q: int) -> list[int]:
    """All error patterns of weight <= q as ints, ascending (the order diagnose tests)."""
    values = []
    for w in range(q + 1):
        for positions in itertools.combinations(range(n), w):
            values.append(sum(1 << (n - 1 - p) for p in positions))
    return sorted(values)


def random_weight(rng: np.random.Generator, n: int, w: int) -> int:
    positions = rng.choice(n, size=w, replace=False)
    return sum(1 << (n - 1 - int(p)) for p in positions)


def bits(n: int, value: int) -> str:
    return format(value, f"0{n}b")


class Workload:
    name = ""
    cycle = 1
    ops_per_call = 1  # ops completed by one call of ``op``
    focus: tuple[str, object] = ("", None)  # (span, label) that should carry the op time
    peak_calls = 1  # ops traced by the untimed peak-memory pass
    recorder = None  # the span recorder during a traced run

    def __init__(self, pkg, seed: int, workdir: Path, **sizes):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise ValueError(f"{self.name} has no size {key!r}")
            setattr(self, key, value)
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])

    def setup(self) -> None:
        """Client set-up before the first op; timed, on several fresh instances."""

    def make_input(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def output_digest(self, inp, out):
        """The part of an op's result that must repeat exactly for a given seed."""
        raise NotImplementedError

    def step_times(self, out) -> dict[str, list[float]]:
        """Named step latencies inside one op, reported beside the op latency."""
        return {}

    def cli(self, argv: list[str]) -> tuple[int, dict | None]:
        """Run one CLI command in process as a shell user would, JSON summary out."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(argv)
        lines = buf.getvalue().strip().splitlines()
        try:
            return code, json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return code, None


class Lifecycle(Workload):
    """mint -> corrupt -> verify -> correct -> verify through the CLI, all cold.

    The bit-flip error is drawn uniformly from the tolerated list and the
    phase-flip error is the one at the mirrored position, so each is uniform
    on its own.  diagnose tests cosets in list order, so every note costs
    the same m + 1 coset tests and op latency reflects speed, not the draw.
    """

    name = "lifecycle-n14"
    focus = ("oracles.truth_table", None)
    n = 14
    q = 1

    def setup(self) -> None:
        self.errors = tolerated_errors(self.n, self.q)
        self.note = self.workdir / "note.json"
        self.bank = self.workdir / "note.bank.json"

    def make_input(self, i: int):
        m = len(self.errors)
        a = int(self.rng.integers(m))
        note_seed = int(self.rng.integers(1 << 31))
        return note_seed, self.errors[a], self.errors[m - 1 - a]

    def op(self, inp):
        seed, e, ep = inp
        common = ["--seed", str(seed), "--format", "json"]
        note, bank = str(self.note), str(self.bank)
        steps = [
            ("mint", common + ["--out", note, "mint", "--n", str(self.n), "--q", str(self.q)]),
            ("corrupt", common + ["corrupt", note, "--e", bits(self.n, e),
                                  "--ez", bits(self.n, ep)]),
            ("verify", common + ["verify", note, "--bank", bank]),
            ("correct", common + ["correct", note, "--bank", bank]),
            ("verify", common + ["verify", note, "--bank", bank]),
        ]
        out = []
        for step, argv in steps:
            t0 = perf_counter()
            code, summary = self.cli(argv)
            out.append((step, code, summary, perf_counter() - t0))
            if code != 0:
                break
        return out

    def check(self, inp, out) -> bool:
        if len(out) != 5 or any(code != 0 or summary is None for _, code, summary, _ in out):
            return False
        for step, _, summary, _ in out:
            if step == "verify" and abs(summary["accept_probability"] - 1.0) > 1e-9:
                return False
        scheme, gf2, states = self.pkg.scheme, self.pkg.gf2, self.pkg.states
        seed = inp[0]
        registry = scheme.OracleRegistry(self.n, self.q, master_seed=seed)
        fresh = scheme.mint_direct(registry, gf2.random_bitvec(self.n, seed))
        fixed = scheme.load_banknote(self.note)
        return states.max_deviation(fresh.state, fixed.state) < 1e-12

    def output_digest(self, inp, out):
        keys = ("serial", "e", "e_prime", "accept_probability", "coset_queries")
        return [[step, code, summary and [summary.get(k) for k in keys]]
                for step, code, summary, _ in out]

    def step_times(self, out):
        times = {"verify": [], "correct": []}
        for step, _, _, dt in out:
            if step in times:
                times[step].append(dt)
        return times


class VerifyStream(Workload):
    """A library caller re-verifying corrupted copies of one note with a warm session.

    Each cycle of six copies holds four tolerated corruptions, one bit-flip
    pattern of weight q+1 and one phase-flip pattern of weight q+1, so the
    share of early rejections (which skip the Hadamard stages) is fixed.
    """

    name = "verify-n20"
    cycle = 6
    focus = ("states.fwht", None)
    n = 20
    q = 1
    KINDS = ("ok", "ok", "over-x", "ok", "ok", "over-z")

    def setup(self) -> None:
        scheme, gf2 = self.pkg.scheme, self.pkg.gf2
        registry = scheme.OracleRegistry(self.n, self.q, master_seed=self.seed)
        note = scheme.mint_direct(registry, gf2.random_bitvec(self.n, self.seed))
        session = registry.session(note.serial)
        scheme.verify(registry, note, session=session, rng=0)
        self.registry, self.note, self.session = registry, note, session
        self.errors = tolerated_errors(self.n, self.q)
        self._tables = None

    def make_input(self, i: int):
        kind = self.KINDS[i % self.cycle]
        e = int(self.rng.choice(self.errors))
        ep = int(self.rng.choice(self.errors))
        if kind == "over-x":
            e = random_weight(self.rng, self.n, self.q + 1)
        elif kind == "over-z":
            ep = random_weight(self.rng, self.n, self.q + 1)
        gf2 = self.pkg.gf2
        e, ep = gf2.BitVec(self.n, e), gf2.BitVec(self.n, ep)
        copy = self.pkg.scheme.corrupt(self.note, e, ep)
        return e, ep, self.expected(e, ep), copy

    def expected(self, e, ep) -> float:
        """1 when both syndromes decode in independently built tables, else 0."""
        codes = self.pkg.codes
        spec = self.registry.record_for_serial(self.note.serial).spec
        if self._tables is None:
            self._tables = (
                codes.build_syndrome_table(spec.parity_primal, spec.q),
                codes.build_syndrome_table(spec.parity_dual, spec.q),
            )
        primal, dual = self._tables
        ok = (primal.decode(spec.parity_primal.mul_vec(e)) is not None
              and dual.decode(spec.parity_dual.mul_vec(ep)) is not None)
        return 1.0 if ok else 0.0

    def op(self, inp):
        copy = inp[3]
        return self.pkg.scheme.verify(self.registry, copy, session=self.session, rng=0)

    def check(self, inp, out) -> bool:
        return abs(out.accept_probability - inp[2]) < 1e-9

    def output_digest(self, inp, out):
        return [str(inp[0]), str(inp[1]), round(out.accept_probability, 12)]


class Attack(Workload):
    """``subspace-money attack`` for each strategy with equal trial counts.

    One op is one trial of every strategy; one ``op`` call runs ``trials``
    of them through three CLI commands.
    """

    name = "attack-n6"
    focus = ("scheme.double_verify", "passthrough-mixed")
    n = 6
    q = 1
    trials = 1000

    @property
    def ops_per_call(self) -> int:
        return self.trials

    def setup(self) -> None:
        self.csv = self.workdir / "attack.csv"

    def make_input(self, i: int):
        return [int(s) for s in self.rng.integers(1 << 31, size=len(STRATEGIES))]

    def op(self, inp):
        out = []
        for strategy, seed in zip(STRATEGIES, inp):
            argv = ["--seed", str(seed), "--format", "json", "--out", str(self.csv),
                    "attack", "--strategy", strategy, "--trials", str(self.trials),
                    "--n", str(self.n), "--q", str(self.q)]
            if self.recorder is not None:
                self.recorder.label = strategy
            t0 = perf_counter()
            code, summary = self.cli(argv)
            out.append((strategy, code, summary, perf_counter() - t0))
        return out

    def rates(self) -> dict[str, tuple[float, float]]:
        """Exact acceptance rate of each strategy and the per-trial variance where random."""
        n, q = self.n, self.q
        eq = sum(math.comb(n, j) for j in range(q + 1))
        dim, rank = 1 << n, eq * eq
        mean1 = rank / dim
        # A Haar-random pure state's overlap with a rank-r projector is Beta(r, D - r).
        second1 = mean1 * (rank + 1) / (dim + 1)
        return {
            "passthrough-mixed": (rank / dim, 0.0),
            "measure-and-copy": ((eq / 2 ** (n // 2)) ** 2, 0.0),
            "random-state": (mean1**2, second1**2 - mean1**4),
        }

    def tolerance(self, variance: float) -> float:
        """Bernstein bound: a correct mean misses by more than this with chance < 1e-6."""
        if variance == 0.0:
            return 1e-9
        log_term = math.log(2 / 1e-6)
        t = self.trials
        lin = 2 * log_term / 3
        return (lin + math.sqrt(lin * lin + 8 * t * log_term * variance)) / (2 * t)

    def check(self, inp, out) -> bool:
        rates = self.rates()
        for strategy, code, summary, _ in out:
            if code != 0 or summary is None or summary["trials"] != self.trials:
                return False
            rate, variance = rates[strategy]
            if abs(summary["mean_probability"] - rate) > self.tolerance(variance):
                return False
        return True

    def output_digest(self, inp, out):
        return [[s, code, summary and summary["successes"],
                 summary and round(summary["mean_probability"], 12)]
                for s, code, summary, _ in out]

    def step_times(self, out):
        return {strategy: [dt] for strategy, _, _, dt in out}


class Gencode(Workload):
    """``subspace-money gencode --q 2`` cycling n over sizes whose search succeeds.

    n = 24 and 26 are left out: their searches need 216 and 42 candidates per
    code on average, geometrically distributed, which spreads ten-second runs
    by about a quarter between seeds.  At 28 and 30 it is 13 and 6.
    """

    name = "gencode-q2"
    focus = ("gf2.min_distance", None)
    sizes = (28, 30)
    q = 2

    @property
    def cycle(self) -> int:
        return len(self.sizes)

    @property
    def peak_calls(self) -> int:
        return 4 * len(self.sizes)  # the peak varies with the code found

    def setup(self) -> None:
        self.code_file = self.workdir / "code.json"

    def make_input(self, i: int):
        return self.sizes[i % len(self.sizes)], int(self.rng.integers(1 << 31))

    def op(self, inp):
        n, seed = inp
        return self.cli(["--seed", str(seed), "--format", "json", "--out", str(self.code_file),
                         "gencode", "--n", str(n), "--q", str(self.q)])

    def check(self, inp, out) -> bool:
        code, summary = out
        if code != 0 or summary is None:
            return False
        codes = self.pkg.codes
        spec = codes.load_code(self.code_file)
        report = codes.certify(spec)
        need = 2 * self.q + 1
        return (spec.n == inp[0] and spec.q == self.q and report.passed
                and report.d_primal >= need and report.d_dual >= need)

    def output_digest(self, inp, out):
        return [out[0], self.code_file.read_text() if out[0] == 0 else None]


WORKLOADS = {w.name: w for w in (Lifecycle, VerifyStream, Attack, Gencode)}

# Small sizes for the benchmark's own smoke tests.
TINY = {
    "lifecycle-n14": {"n": 6},
    "verify-n20": {"n": 8},
    "attack-n6": {"trials": 40},
    "gencode-q2": {"sizes": (8, 10), "q": 1},
}
