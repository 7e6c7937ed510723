"""Exact characteristic polynomials and eigenpair classes of small tensors.

The package namespace holds the names the README documents, and the result
and exception types they return or raise; everything else is imported from
its submodule.
"""

from .echar import EcharResult, IrregularTensorError, echar
from .eigen import Eigenpair, EigenReport, RegularityReport, eigenpairs_n2, is_regular
from .poly import Poly
from .rational import ComplexRational
from .resultant import UnsupportedSizeError
from .tensor import DimensionError, Hypermatrix

__version__ = "0.1.0"

__all__ = [
    "ComplexRational",
    "DimensionError",
    "EcharResult",
    "Eigenpair",
    "EigenReport",
    "Hypermatrix",
    "IrregularTensorError",
    "Poly",
    "RegularityReport",
    "UnsupportedSizeError",
    "echar",
    "eigenpairs_n2",
    "is_regular",
]
