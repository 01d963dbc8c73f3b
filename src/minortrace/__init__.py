"""Exact linear algebra over commutative rings.

The organizing fact: a square matrix A over a commutative ring satisfies
A B A = Tr(AB) * A for every B exactly when all of its 2x2 minors vanish.
The package exploits that (O(n^2) kernels for the triple product, powers,
and trace corollaries), certifies it (a probe that extracts a concrete
violating B from any nonzero minor), and cross-checks it (exhaustive
enumeration over small finite rings).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name and its module, which loads on first use: a program imports what it runs
_EXPORTS = {
    name: module
    for module, names in {
        "rings": """IntegerRing ModularRing OpCounts PolynomialRing PrimeFieldRing Ring RingElem
            RingError RingMismatch UnsupportedRing count_ops is_prime""",
        "matrices": """BlockSplit IndexOutOfRange Matrix MatrixError MinorIndex NotSquare
            ShapeMismatch TooLarge TooLargeToEnumerate TooSmall block_join cayley_hamilton_2x2
            det_small matrix_unit""",
        "structure": """MinorWitness NoNilpotentScalar OuterFactors StructureVerdict
            check_vanishing_minors decompose find_nilpotent_scalar gen_structured outer
            random_elem random_matrix""",
        "kernels": """CorollaryResiduals StructurePreconditionFailed check_corollaries naive_aba
            structured_aba structured_power trace_of_product trace_product_via_outer""",
        "probe": """InductionResiduals ProbeReport ProbeWitness aba_via_blocks
            induction_equalities probe_converse probe_witness""",
        "oracle": """EquivalenceReport exhaustive_characterization
            universal_identity_by_enumeration verify_identity""",
        "bench": "BenchResult run_bench",
    }.items()
    for name in names.split()
}
# the library modules are public names too, as when this file imported them all
__all__ = sorted({*_EXPORTS, *_EXPORTS.values()})


def __getattr__(name):
    module = _EXPORTS.get(name, name if name in __all__ else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
