"""Toric-geometry analysis of multi-qubit pure states.

Moment maps on projective space and products of projective lines, lattice
polytopes with Delzant checks and normal fans, the Segre binomial relations
as a separability certificate, and the standard small-system entanglement
invariants (concurrence, three-tangle, m-tangle, four-qubit H and I1 with an
independent epsilon-contraction four-tangle).

``import qtoric`` loads no submodule and no numpy: the first access of a
public name or a submodule imports them all and binds every name of
``__all__`` here.
"""

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "states": (
        "MAX_QUBITS",
        "DEFAULT_TOLERANCE",
        "MultiQubitState",
        "QubitFactor",
        "ProjectivePoint",
        "make_state",
        "conjugate_state",
        "segre_embed",
        "inner_product",
        "named_state",
        "index_bits",
        "bits_to_index",
        "state_to_dict",
        "state_from_dict",
        "point_to_dict",
        "point_from_dict",
    ),
    "moment": (
        "moment_projective",
        "moment_product",
        "fixed_point_images",
        "s1_moment_disk",
    ),
    "toric": (
        "LatticePolytope",
        "ExponentSet",
        "Cone",
        "Fan",
        "DelzantFailure",
        "DelzantVerdict",
        "cube",
        "lattice_points",
        "unit_cube_exponents",
        "delzant_check",
        "normal_fan_box",
        "verify_beta_balance",
    ),
    "segre": (
        "BinomialRelation",
        "MAX_RELATION_QUBITS",
        "relation_table",
        "segre_relations",
        "relation_residual",
        "max_segre_residual",
    ),
    "measures": (
        "J",
        "G",
        "FourQubitVectors",
        "Tau4IdentityReport",
        "spin_flip",
        "concurrence",
        "m_tangle",
        "three_tangle",
        "invariant_H",
        "bilinear_g",
        "invariant_I1",
        "four_qubit_vectors",
        "tau4_epsilon_oracle",
        "check_tau4_identities",
    ),
    "analyzer": ("AnalysisReport", "analyze", "analyze_many", "extract_factors"),
    "errors": (
        "QToricError",
        "LengthMismatchError",
        "ZeroStateError",
        "NonFiniteAmplitudeError",
        "DimensionMismatchError",
        "EmptyFactorListError",
        "UnknownNameError",
        "WrongQubitCountError",
        "OddQubitCountError",
        "QubitLimitError",
        "UnsupportedPolytopeError",
        "RedundantVertexError",
        "DegenerateIntervalError",
        "IndexOutOfRangeError",
        "SchemaError",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name):
    """Bind every public name on the first access of one, or of a submodule
    (PEP 562)."""
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        source = vars(import_module(f".{module}", __name__))
        for public in names:
            namespace.setdefault(public, source[public])
    # CPython 3.11 does not specialize attribute loads on a module whose dict
    # holds __getattr__, which would slow every later ``qtoric.<name>``.
    namespace.pop("__getattr__", None)
    return namespace[name]


def __dir__():
    return sorted({*globals(), *__all__})
