"""Tests for the package namespace."""

import types

import indefstring


def test_namespace_matches_all():
    # Every public name the package imports is exported, and nothing else: a
    # name missing from __all__ escapes any audit of the public API.
    public = {name for name, value in vars(indefstring).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    public.discard("annotations")  # the __future__ import
    assert public == set(indefstring.__all__)
