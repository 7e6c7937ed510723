"""Exact characteristic polynomials and eigenpair classes of small tensors."""

from .document import DocumentError, TensorDocument
from .echar import (
    EcharResult,
    IrregularTensorError,
    a0_predicted,
    echar,
    echar_det_even,
    echar_det_odd,
    echar_even_n2,
    echar_macaulay,
    echar_odd_n2,
    h_bound,
    leading_predicted,
)
from .eigen import (
    DEFICIT,
    NORMALIZED,
    Eigenpair,
    EigenReport,
    RegularityReport,
    deficit_indicator,
    eigen_directions_n2,
    eigenpairs_n2,
    is_regular,
    z_eigenpairs,
)
from .poly import MINUS_INFINITY, Poly, complex_roots
from .polymat import PolyMatrix, det_interpolated, det_rational
from .rational import ComplexRational, I_UNIT
from .resultant import (
    BinaryForm,
    HomogeneousSystem,
    UnsupportedSizeError,
    macaulay_resultant,
    sylvester_matrix,
    sylvester_resultant,
)
from .tensor import (
    DimensionError,
    Hypermatrix,
    OrthogonalMatrix,
    SliceCoeffs,
    binary_slices,
    eval_map,
    pq_sums,
    rotate,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "ComplexRational",
    "DEFICIT",
    "DimensionError",
    "DocumentError",
    "EcharResult",
    "Eigenpair",
    "EigenReport",
    "HomogeneousSystem",
    "Hypermatrix",
    "I_UNIT",
    "IrregularTensorError",
    "MINUS_INFINITY",
    "NORMALIZED",
    "OrthogonalMatrix",
    "Poly",
    "PolyMatrix",
    "RegularityReport",
    "SliceCoeffs",
    "TensorDocument",
    "UnsupportedSizeError",
    "a0_predicted",
    "binary_slices",
    "complex_roots",
    "deficit_indicator",
    "det_interpolated",
    "det_rational",
    "echar",
    "echar_det_even",
    "echar_det_odd",
    "echar_even_n2",
    "echar_macaulay",
    "echar_odd_n2",
    "eigen_directions_n2",
    "eigenpairs_n2",
    "eval_map",
    "h_bound",
    "is_regular",
    "leading_predicted",
    "macaulay_resultant",
    "pq_sums",
    "rotate",
    "sylvester_matrix",
    "sylvester_resultant",
    "z_eigenpairs",
]
