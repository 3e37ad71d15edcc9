"""The package's public surface is exactly its `__all__`."""

import types

import screwinv


def test_every_listed_name_resolves():
    missing = [name for name in screwinv.__all__ if not hasattr(screwinv, name)]
    assert missing == []


def test_every_public_attribute_is_listed():
    public = {
        name
        for name, value in vars(screwinv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(screwinv.__all__)
    assert len(screwinv.__all__) == len(public)
