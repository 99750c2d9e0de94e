"""Every exported name resolves, so `from toric_gec import *` and the
submodules' star imports cannot trip on a stale entry of __all__."""

from __future__ import annotations

import importlib
import pkgutil

import toric_gec


def test_every_exported_name_resolves():
    modules = [toric_gec] + [
        importlib.import_module(f"toric_gec.{info.name}")
        for info in pkgutil.iter_modules(toric_gec.__path__)
    ]
    missing = [
        (module.__name__, name)
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1 and not missing
