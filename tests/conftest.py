import contextlib
import io

import numpy as np
import pytest

import eqdomain.terms
from eqdomain import enumerate_tables
from eqdomain.cli import main


@pytest.fixture(scope="session")
def semigroups_le3():
    """All 122 semigroups of order <= 3, in enumeration order."""
    return [S for n in (1, 2, 3) for S in enumerate_tables(n)]


@pytest.fixture(scope="session")
def semigroups_order4():
    return list(enumerate_tables(4))


@pytest.fixture(scope="session")
def order6_stream():
    """``enumerate --order 6 --mode M --allow-large`` as (exit code, stdout
    lines), run once per mode M for the whole session: about 5 s a mode,
    shared by the frozen counts and the order-6 pair sweep."""
    runs = {}

    def stream(mode):
        if mode not in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["enumerate", "--order", "6", "--mode", mode, "--allow-large"])
            runs[mode] = code, out.getvalue().splitlines()
        return runs[mode]

    return stream


@pytest.fixture
def constant_hash(monkeypatch):
    """Every row hashes to 0, so every hash match is a collision to resolve."""

    def zeros(rows):
        return np.zeros(len(rows), dtype=np.uint64)

    monkeypatch.setattr(eqdomain.terms, "_row_hashes", zeros)
