import importlib
import pkgutil

import pytest

import wigner_tunnel

MODULES = ["wigner_tunnel"] + [f"wigner_tunnel.{m.name}"
                               for m in pkgutil.iter_modules(wigner_tunnel.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry fails only under `import *`; catch it here
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
