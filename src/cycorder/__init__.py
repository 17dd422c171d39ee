"""cycorder: exact verification toolkit for the pointwise ordering of
cyclotomic polynomial values over integer arguments q >= 2."""

from .arith import divisors, factorize, inverse_totient, moebius, radical, totient
from .comparator import (
    Certificate,
    Verdict,
    compare,
    comparison_record,
    parse_comparison_record,
    record_to_json,
)
from .cyclotomic import (
    CycloCache,
    check_mu_sandwich,
    check_value_bounds,
    cyclo,
    cyclo_moebius,
    eval_cyclo,
)
from .intpoly import IntPoly
from .order import (
    ChainReport,
    CheckpointError,
    IncomparablePairError,
    NotLessError,
    PhiClass,
    PrecedesReport,
    build_chain,
    check_conjecture2,
    phi_classes,
    precedes,
    sort_class,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChainReport",
    "CheckpointError",
    "CycloCache",
    "IncomparablePairError",
    "IntPoly",
    "NotLessError",
    "PhiClass",
    "PrecedesReport",
    "Verdict",
    "__version__",
    "build_chain",
    "check_conjecture2",
    "check_mu_sandwich",
    "check_value_bounds",
    "compare",
    "comparison_record",
    "cyclo",
    "cyclo_moebius",
    "divisors",
    "eval_cyclo",
    "factorize",
    "inverse_totient",
    "moebius",
    "parse_comparison_record",
    "phi_classes",
    "precedes",
    "radical",
    "record_to_json",
    "sort_class",
    "totient",
]
