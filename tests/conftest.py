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
