"""Every test starts with gausslip's fixed-grid Hermite tables unbuilt, so a
test that counts table builds does not depend on the tests run before it."""
import pytest

from gausslip import hermite, lipschitz


@pytest.fixture(autouse=True)
def _cold_hermite_tables():
    for cached in (lipschitz._sup_grid, lipschitz._sup_tables, hermite._rule_table):
        cached.cache_clear()
