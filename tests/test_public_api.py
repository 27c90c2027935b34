"""The public names of the package: none is dropped or added silently."""

import hopfq

PUBLIC_NAMES = [
    "AlgebraPair", "BasePoint", "CYCLES", "ChainStage", "ContractViolationError",
    "DensityMatrix2", "EntanglementReport", "ExtendedValue", "FiberChart", "HyperComplex",
    "INFINITY", "IteratedReport", "PolarForm", "PureState", "SeparabilityError",
    "UnsupportedSizeError", "bloch_density", "classify", "conj", "e_avg", "e_hopf",
    "exp_imaginary", "fiber_chart", "fiber_decompose", "h1_value", "hopf_base", "hopf_inverse",
    "inverse", "is_infinite", "iterated_analysis", "minor_measure", "mul", "pack",
    "partial_trace_keep", "polar", "random_state", "reshape_matrix", "scalar_part",
    "separability_2qubit", "separability_conditions", "state_from_bloch", "state_from_chart",
    "stereographic", "stereographic_inverse", "tensor", "unpack", "vector_part",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(hopfq.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(hopfq, name) is not None
