"""Patching helpers and the ``cold_caches`` fixture shared by the test modules."""

import sys
from functools import lru_cache

import pytest

from faberfields import faberkernel


def patch_everywhere(monkeypatch, targets, replacement):
    """Bind ``replacement`` to every name that binds an (owner, name) of
    ``targets`` in a ``faberfields`` module or class, so a module that
    imported it by value is covered too."""
    originals = [vars(owner)[name] for owner, name in targets]
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname.split(".")[0] != "faberfields":
            continue
        owners = [mod] + [obj for obj in vars(mod).values()
                          if isinstance(obj, type) and obj.__module__ == modname]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if any(value is orig for orig in originals):
                    monkeypatch.setattr(owner, key, replacement)


def refuse_everywhere(monkeypatch, targets, message):
    """Make each (owner, name) in ``targets`` raise under every name that binds it."""
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    patch_everywhere(monkeypatch, targets, refuse)


def empty_caches(monkeypatch):
    """Bind an empty copy of every cached builder and an empty store of
    streams for the test, so the builders it reaches, cached or not, run
    their own code and kernels under its patches; the warm caches and
    streams come back untouched afterwards, holding nothing built under
    them.  ``faberkernel`` holds all of that state."""
    for name, fn in list(vars(faberkernel).items()):
        if hasattr(fn, "cache_info") and fn.__module__ == faberkernel.__name__:
            patch_everywhere(monkeypatch, ((faberkernel, name),),
                             lru_cache(maxsize=None)(fn.__wrapped__))
    monkeypatch.setattr(faberkernel, "_STREAMS", {})


@pytest.fixture
def cold_caches(monkeypatch):
    empty_caches(monkeypatch)
