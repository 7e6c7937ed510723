import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs ``--hypothesis-profile=ci``: a failing property prints the blob
# that reproduces it with ``@reproduce_failure``
settings.register_profile("ci", print_blob=True)

# To explain a failing property Hypothesis imports libcst, which warns that
# ``mypy_extensions.TypedDict is deprecated``; under ``-W error``, as CI runs,
# that warning inside pytest's report hook ends the run in INTERNALERROR
# before the falsifying example is printed.  libcst is imported here once,
# with that one warning ignored.  It is optional: CI does not install it.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message=r"mypy_extensions\.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def node_sizes(monkeypatch):
    """The size of every node determinant ``det_interpolated`` takes from here on."""
    from echarpoly import polymat

    sizes = []
    original = polymat.det_rational

    def counting(rows):
        sizes.append(len(rows))
        return original(rows)

    monkeypatch.setattr(polymat, "det_rational", counting)
    return sizes


@pytest.fixture
def node_degrees(monkeypatch):
    """The formal degrees of every node resultant ``sylvester_resultant`` takes from here on."""
    from echarpoly import resultant

    degrees = []
    original = resultant._prs_resultant

    def counting(f, g):
        degrees.append((len(f) - 1, len(g) - 1))
        return original(f, g)

    monkeypatch.setattr(resultant, "_prs_resultant", counting)
    return degrees
