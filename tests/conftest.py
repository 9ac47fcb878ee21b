"""Every test starts with gausslip's fixed-grid Hermite tables unbuilt and
its subordination multipliers uncomputed, so a test that counts table builds
or s-integrals does not depend on the tests run before it."""
import pytest

from gausslip import hermite, lipschitz, semigroup


@pytest.fixture(autouse=True)
def _cold_caches():
    for cached in (lipschitz._sup_grid, lipschitz._sup_tables, hermite._rule_table,
                   semigroup._subordination_multiplier):
        cached.cache_clear()
