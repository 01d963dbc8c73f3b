"""Exact linear algebra over commutative rings.

The organizing fact: a square matrix A over a commutative ring satisfies
A B A = Tr(AB) * A for every B exactly when all of its 2x2 minors vanish.
The package exploits that (O(n^2) kernels for the triple product, powers,
and trace corollaries), certifies it (a probe that extracts a concrete
violating B from any nonzero minor), and cross-checks it (exhaustive
enumeration over small finite rings).
"""

from .rings import (
    IntegerRing,
    ModularRing,
    OpCounts,
    PolynomialRing,
    PrimeFieldRing,
    Ring,
    RingElem,
    RingError,
    RingMismatch,
    UnsupportedRing,
    count_ops,
    is_prime,
)
from .matrices import (
    BlockSplit,
    IndexOutOfRange,
    Matrix,
    MatrixError,
    MinorIndex,
    NotSquare,
    ShapeMismatch,
    TooLarge,
    TooSmall,
    block_join,
    cayley_hamilton_2x2,
    det_small,
    matrix_unit,
)
from .structure import (
    MinorWitness,
    NoNilpotentScalar,
    OuterFactors,
    StructureVerdict,
    check_vanishing_minors,
    decompose,
    find_nilpotent_scalar,
    gen_structured,
    outer,
    random_elem,
    random_matrix,
)
from .kernels import (
    CorollaryResiduals,
    StructurePreconditionFailed,
    check_corollaries,
    naive_aba,
    structured_aba,
    structured_power,
    trace_of_product,
    trace_product_via_outer,
)
from .probe import (
    InductionResiduals,
    ProbeReport,
    ProbeWitness,
    aba_via_blocks,
    induction_equalities,
    probe_converse,
    probe_witness,
)
from .oracle import (
    EquivalenceReport,
    TooLargeToEnumerate,
    exhaustive_characterization,
    universal_identity_by_enumeration,
    verify_identity,
)
from .bench import BenchResult, run_bench

__version__ = "0.1.0"
