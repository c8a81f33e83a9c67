import numpy as np
import pytest

from varcurves import manifolds


@pytest.fixture
def svd_rows(monkeypatch):
    """The number of matrices each np.linalg.svd call of manifolds.py gets."""
    rows = []
    svd = manifolds.np.linalg.svd

    def counted(a, *args, **kwargs):
        rows.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(manifolds.np.linalg, "svd", counted)
    return rows
