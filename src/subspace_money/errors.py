"""Exception types shared across the package, and the one dense-allocation budget.

Every array whose size grows as 2^n, and every exhaustive span walk,
is charged against BUDGET_BYTES by ``reserve`` before it is allocated.  The
budget lives here, next to its exception, because gf2 and states both need
it and states imports gf2.
"""

import math

import numpy as np

# The largest single array any operation may build: 256 MiB holds a pure
# state up to 24 qubits and a span walk of 2^25 words.
BUDGET_BYTES = 1 << 28


class BudgetExceededError(RuntimeError):
    """An allocation of more than BUDGET_BYTES was refused before it was made."""


def reserve(shape: tuple, dtype=np.complex128) -> None:
    """Raise BudgetExceededError if an array of this shape and dtype would exceed BUDGET_BYTES.

    The byte count is a product of Python ints, so no n overflows it.
    """
    nbytes = math.prod(int(d) for d in shape) * np.dtype(dtype).itemsize
    if nbytes > BUDGET_BYTES:
        raise BudgetExceededError(f"{nbytes} bytes exceed the budget of {BUDGET_BYTES} bytes")


class CodeSearchError(RuntimeError):
    """Rejection sampling exhausted max_attempts without finding an applicable code."""


class SyndromeCollisionError(RuntimeError):
    """Two distinct low-weight errors share a syndrome, disproving d >= 2q+1."""


class SerialCollisionError(RuntimeError):
    """Serial derivation kept colliding after exhausting the retry nonce bound."""


class UnknownSerialError(LookupError):
    """The serial number was never issued by this registry."""


class UndecodableError(RuntimeError):
    """No tolerated coset holds the state: on some side, no side-code + e with |e| <= q does."""
