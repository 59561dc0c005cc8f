import sys
from pathlib import Path

import hypothesis
import pytest

sys.path.insert(0, str(Path(__file__).parent))

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def object_products(monkeypatch):
    """A list that records the shapes of the products over Q that leave
    the int64 route for the Python-int one."""
    from catres import linalg

    calls = []
    fallback = linalg._object_product

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return fallback(a, b)

    monkeypatch.setattr(linalg, "_object_product", counted)
    return calls


@pytest.fixture
def reductions(monkeypatch):
    """A list that records the shape of every matrix that the row-reduction
    kernel ``linalg._gauss_jordan`` reduces."""
    from catres import linalg

    calls = []
    kernel = linalg._gauss_jordan

    def counted(a, p):
        calls.append(a.shape)
        return kernel(a, p)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    return calls


@pytest.fixture
def row_gathers(monkeypatch):
    """A list that records the shapes (m, k, n) of the products that the
    word-size kernel runs by its row-gather route, ``linalg._row_gather``."""
    from catres import linalg

    calls = []
    gather = linalg._row_gather

    def counted(flat, at, k, b, p):
        calls.append((flat.size // k, k, b.shape[1]))
        return gather(flat, at, k, b, p)

    monkeypatch.setattr(linalg, "_row_gather", counted)
    return calls
