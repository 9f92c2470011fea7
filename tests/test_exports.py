import importlib
import pkgutil

import attbench


def test_every_exported_name_resolves():
    """Each name in the ``__all__`` of every attbench module that defines one
    is an attribute of that module, so a deleted function cannot linger in
    an export list."""
    checked = []
    for info in pkgutil.walk_packages(attbench.__path__, "attbench."):
        module = importlib.import_module(info.name)
        if hasattr(module, "__all__"):
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            assert not missing, (info.name, missing)
            checked.append(info.name)
    assert len(checked) >= 10, checked
