"""Every exported name resolves: a stale entry in an ``__all__`` would
otherwise only fail a star-import."""

import importlib

import pytest

MODULES = ("", ".qfield", ".rootsys", ".lingrp", ".reduction", ".measures", ".limits", ".cli")


@pytest.mark.parametrize("name", MODULES, ids=lambda m: "escmass" + m)
def test_every_exported_name_resolves(name):
    module = importlib.import_module("escmass" + name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing
