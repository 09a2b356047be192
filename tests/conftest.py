import numpy as np
import pytest

import eqdomain.geometry
import eqdomain.terms
from eqdomain import enumerate_tables


@pytest.fixture(scope="session")
def semigroups_le3():
    """All 122 semigroups of order <= 3, in enumeration order."""
    return [S for n in (1, 2, 3) for S in enumerate_tables(n)]


@pytest.fixture(scope="session")
def semigroups_order4():
    return list(enumerate_tables(4))


@pytest.fixture
def constant_hash(monkeypatch):
    """Every row hashes to 0, so every hash match is a collision to resolve."""

    def zeros(rows):
        return np.zeros(len(rows), dtype=np.uint64)

    monkeypatch.setattr(eqdomain.terms, "_row_hashes", zeros)
    monkeypatch.setattr(eqdomain.geometry, "_row_hashes", zeros)
