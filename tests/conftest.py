import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


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
