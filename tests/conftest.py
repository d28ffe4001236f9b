"""Shared fixtures: the worked [[6,3]] code and registries built around it.

The generator matrix below is the 6x3 matrix whose columns span the code;
the golden constants (parity rows, the 8 codewords, both distances equal to
3) are the published ground truth for it and are frozen here verbatim.  The
helpers at the end run this tree's package in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import reject
from hypothesis import strategies as st

import subspace_money
from subspace_money.codes import CodeSpec, search_applicable_code
from subspace_money.errors import CodeSearchError
from subspace_money.gf2 import SubspaceBasis

# Columns of the generator matrix, read top to bottom.
WORKED_GENERATORS = ("100011", "010110", "001101")

# Rows of the code's parity check matrix H_C.
WORKED_PARITY_ROWS = ("011100", "110010", "101001")

# Rows of the dual's parity check matrix (the generator columns again).
WORKED_DUAL_PARITY_ROWS = WORKED_GENERATORS

WORKED_CODEWORDS = (
    "000000",
    "100011",
    "010110",
    "001101",
    "110101",
    "101110",
    "011011",
    "111000",
)

WORKED_DISTANCE = 3


@pytest.fixture(scope="session")
def worked_code() -> SubspaceBasis:
    return SubspaceBasis.from_strings(WORKED_GENERATORS)


@pytest.fixture(scope="session")
def worked_spec(worked_code) -> CodeSpec:
    return CodeSpec.build(worked_code, q=1)


# The (n, q) pairs with even n in 4..10 that the sphere-packing bound
# |E_q| <= 2^(n/2) admits: q = 1 fails at n = 4 (5 > 4), and q = 2 fails up
# to n = 10 (37 > 16 at n = 8, 56 > 32 at n = 10).
CERTIFIED_PAIRS = ((4, 0), (6, 0), (8, 0), (10, 0), (6, 1), (8, 1), (10, 1))


@st.composite
def certified_codes(draw) -> CodeSpec:
    """search_applicable_code(n, q, seed) for the admissible pairs in CERTIFIED_PAIRS.

    A search that runs out of attempts is rejected.
    """
    n, q = draw(st.sampled_from(CERTIFIED_PAIRS), label="(n, q)")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    try:
        return search_applicable_code(n, q, seed)
    except CodeSearchError:
        reject()


_SOURCE_TREE = str(Path(subspace_money.__file__).parents[1])


def fresh_python(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """The interpreter run on args in a fresh process that imports this tree's package.

    env adds variables to the inherited environment; kwargs go to subprocess.run.
    """
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SOURCE_TREE, **(env or {})},
        **kwargs,
    )


def stdout_under_one_and_two_blas_threads(script: str, *args) -> list[str]:
    """The script's standard output in a fresh interpreter under OPENBLAS_NUM_THREADS 1, then 2."""
    return [
        fresh_python(
            "-c", script, *args, env={"OPENBLAS_NUM_THREADS": threads}, timeout=120, check=True
        ).stdout
        for threads in ("1", "2")
    ]
