import pytest
from hypothesis import settings

from tumorfem import scheme

# Property tests run in the default suite: fixed examples, no example
# database and few examples keep them reproducible and quick.
settings.register_profile(
    "bounded", derandomize=True, deadline=None, database=None, max_examples=40
)
settings.load_profile("bounded")


@pytest.fixture(autouse=True)
def _empty_discretization_memo():
    """Each test starts without a remembered mesh, whatever ran before it."""
    scheme._discretize.cache_clear()
