"""Noise-tolerant public-key quantum money on subspace states, exactly simulated.

The package mints subspace-state banknotes (directly or from conjugate
coding states), injects Pauli X/Z noise, verifies through classical
membership oracles that tolerate up to q errors of each type, optionally
corrects identified errors, and evaluates the scheme's existence and
soundness bound formulas.
"""

from .codes import (
    CertificationReport,
    CodeSpec,
    StabilizerSet,
    SyndromeTable,
    binary_entropy,
    build_syndrome_table,
    certify,
    count_error_pairs,
    enumerate_errors,
    error_count,
    gv_margin,
    load_code,
    save_code,
    search_applicable_code,
    soundness_log2,
    soundness_tradeoff,
    stabilizer_generators,
)
from .errors import (
    BudgetExceededError,
    CodeSearchError,
    SerialCollisionError,
    SyndromeCollisionError,
    UndecodableError,
    UnknownSerialError,
)
from .experiments import (
    ATTACK_KINDS,
    ExperimentReport,
    amplification_cost,
    analytic_attack_rate,
    completeness_sweep,
    gv_table,
    run_attack,
    smallest_sound_n,
    soundness_table,
    wilson_interval,
)
from .gf2 import (
    BasisMap,
    BitVec,
    Gf2Matrix,
    SubspaceBasis,
    random_bitvec,
    rref,
)
from .oracles import VerifierFrame
from .scheme import (
    Banknote,
    DoubleVerifyOutcome,
    MintRecord,
    OracleRegistry,
    OracleSession,
    VerifyOutcome,
    conjugate_coding_state,
    correct,
    corrupt,
    diagnose,
    double_verify,
    load_banknote,
    load_record,
    mint_conjugate,
    mint_direct,
    random_corruption,
    record_text,
    registry_for_record,
    verify,
)
from .states import (
    DenseState,
    apply_basis_permutation,
    apply_pauli,
    coset_state,
    dump_state,
    max_deviation,
    subspace_state,
)

__version__ = "0.1.0"
