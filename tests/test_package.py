"""Tests of the package's public namespace."""

import types

import zenosim


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(zenosim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(zenosim.__all__) == sorted(public)
    namespace: dict = {}
    exec("from zenosim import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
