"""Each module's ``__all__`` is its entry in the package's export table."""

import importlib

import pytest

from basisrisk import _EXPORTS


@pytest.mark.parametrize("module", sorted(_EXPORTS))
def test_all_is_the_export_table_entry(module):
    assert importlib.import_module(f"basisrisk.{module}").__all__ == list(_EXPORTS[module])


@pytest.mark.parametrize("module", sorted(_EXPORTS))
def test_star_import_binds_exactly_the_exported_names(module):
    namespace = {}
    exec(f"from basisrisk.{module} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(_EXPORTS[module])
