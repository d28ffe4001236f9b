"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import TINY, WORKLOADS, VerifyStream

EXTRA = {
    "lifecycle-n14": [("verify_p50_s", "s"), ("correct_p50_s", "s")],
    "attack-n6": [(f"ops_per_s.{s}", "1/s")
                  for s in ("passthrough-mixed", "measure-and-copy", "random-state")],
}  # printed only, besides op_p50_s on every workload


def blocks(text: str) -> dict[str, str]:
    """The report block printed for each workload, by name."""
    out = {}
    for chunk in text.split("== ")[1:]:
        out[chunk.split(" ", 1)[0]] = chunk
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_all_workloads_print_every_metric_with_unit(trace, capsys):
    code = run.main(["--workload", "all", "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)], sizes=TINY)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 4
    units = spans.per_layer_metric_units() if trace else run.END_TO_END
    report = blocks("\n".join(lines[:-1]))
    assert set(report) == set(WORKLOADS)
    for name, text in report.items():
        for metric, unit in units.items():
            assert result["metrics"][f"{name}:{metric}"]["unit"] == unit
            if not spans.is_span_field(metric):
                assert any(
                    line.split()[:1] == [metric] and line.split()[2] == unit
                    for line in text.splitlines()
                ), (name, metric)
        expected = [("op_p50_s", "s")] + EXTRA.get(name, []) if trace == 0 else []
        for metric, unit in expected + [("ops_attempted", None), ("ops_failed", None)]:
            line = next(ln for ln in text.splitlines() if ln.split()[:1] == [metric])
            assert unit is None or line.split()[2] == unit
            if metric == "ops_failed":
                assert line.split()[1] == "0"


def test_single_workload_result_has_exactly_the_gated_metrics(capsys):
    assert run.main(["--workload", "attack-n6", "--seed", "1", "--seconds", "0.2"],
                    sizes=TINY) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_mislabelled_corruption_is_a_failed_op(tmp_path):
    wl, _ = run.setup_workload(VerifyStream, 5, tmp_path, TINY["verify-n20"])
    spec = wl.registry.record_for_serial(wl.note.serial).spec
    table = wl.pkg.codes.build_syndrome_table(spec.parity_primal, spec.q)
    gf2 = wl.pkg.gf2
    over = next(
        e for e in (gf2.BitVec(wl.n, (1 << i) | (1 << j))
                    for i in range(wl.n) for j in range(i))
        if table.decode(spec.parity_primal.mul_vec(e)) is None
    )
    honest = wl.make_input

    def mislabelled(i):
        if i != 1:
            return honest(i)
        zero = gf2.BitVec.zeros(wl.n)
        return over, zero, 1.0, wl.pkg.scheme.corrupt(wl.note, over, zero)

    wl.make_input = mislabelled
    loop = run.Loop()
    loop.run(wl, 0.0, max_calls=3)
    assert (loop.ops, loop.failed) == (3, 1)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_outputs(name):
    digests = []
    for _ in range(2):
        _, info, _, _, correct = run.run_workload(name, 7, 0.0, 0, TINY[name], max_calls=4)
        assert correct
        digests.append(info["digest"])
    assert digests[0] == digests[1]
    info = run.run_workload(name, 8, 0.0, 0, TINY[name], max_calls=4)[1]
    assert info["digest"] != digests[0]


def test_exits_nonzero_without_package_source(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "attack-n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
