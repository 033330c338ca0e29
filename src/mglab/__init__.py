"""Exact workbench for discrete-time martingales on finite probability spaces.

Everything measure-theoretic is computed with rational arithmetic, so the
classical identities (tower rule, transform preservation, optional stopping,
the upcrossing inequality, the L2 orthogonality of increments) can be checked
as exact equalities rather than approximations.  A counter-based Monte Carlo
engine cross-validates the exact answers on models too large to enumerate.
"""
__version__ = "0.1.0"

# Each submodule and the public names it defines, in the order of ``__all__``.  Nothing is
# imported here: ``__getattr__`` (PEP 562) imports a submodule on the first use of one of its
# names or of the submodule itself.  So ``import mglab`` loads no submodule, and numpy loads
# only with the Monte Carlo engine: on the first use of ``montecarlo`` or one of its names.
_EXPORTS = {
    "numeric": (
        "DEFAULT_TOLERANCE", "Number", "as_exact", "as_number", "format_number", "is_exact",
        "numbers_equal", "parse_number",
    ),
    "measure": (
        "DEFAULT_ENUMERATION_LIMIT", "EMPTY_EVENT", "EventSet", "ProbabilityMeasure",
        "SampleSpace", "SigmaAlgebra", "SizeLimitError", "check_sigma_axioms", "contains",
        "discrete_sigma_algebra", "enumerate_sets", "generate_sigma_algebra", "is_probability",
        "measure_of", "trivial_sigma_algebra", "uniform_measure",
    ),
    "integration": (
        "RandomVariable", "SimpleFunctionForm", "constant_variable", "expectation", "indicator",
        "integrate_simple", "is_measurable", "pos_neg_split", "staircase_approximation",
        "to_simple_form",
    ),
    "conditioning": (
        "ConditionalReport", "conditional_expectation", "tower_check", "verify_kolmogorov",
    ),
    "processes": (
        "MARTINGALE", "MAX_COIN_WALK_HORIZON", "NEVER", "STRICT_SUBMARTINGALE",
        "STRICT_SUPERMARTINGALE", "SUBMARTINGALE", "SUBMARTINGALE_FAMILY", "SUPERMARTINGALE",
        "SUPERMARTINGALE_FAMILY", "UNCLASSIFIED", "AdaptedProcess", "Filtration",
        "MartingaleClassification", "OptionalStoppingReport", "PredictableSequence",
        "PythagorasReport", "StoppingTime", "TailBoundReport", "TransformPreservationReport",
        "UpcrossingReport", "classify", "count_upcrossings", "is_stopping_time",
        "l2_pythagoras_check", "make_coin_walk", "optional_stopping_report", "stopped_process",
        "stopping_tail_bound_check", "transform", "upcrossing_inequality_check",
        "verify_transform_preservation",
    ),
    "montecarlo": (
        "MAX_DOUBLING_LEVELS", "CrossValidationReport", "DoublingModel", "DoublingProfitReport",
        "EstimateReport", "Functional", "PathEnsemble", "WalkModel", "cross_validate",
        "estimate_functional", "exact_doubling_process", "exact_functional_value",
        "simulate_doubling_strategy", "simulate_walk",
    ),
    "jsonio": (
        "ProcessSpec", "SpecError", "parse_process_spec", "parse_space_descriptor",
        "to_jsonable",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    owner = name if name in _EXPORTS else _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # not "from . import <owner>": that form probes this hook and recurses
    module = importlib.import_module(f"{__name__}.{owner}")
    return module if owner == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
