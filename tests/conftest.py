import importlib.util
import os
import sys
from pathlib import Path
from types import ModuleType
from unittest import mock

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str) -> ModuleType:
    """Load ``tools/<name>.py`` by path as module ``name``.

    A tool may pin BLAS threads or put the repository on ``sys.path`` when
    loaded; ``os.environ`` and ``sys.path`` are restored after, so neither
    reaches the other tests.
    """
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


@pytest.fixture()
def count_calls(monkeypatch):
    """Wrap a function at every ``cbdid.*`` binding; return its call log.

    ``count_calls(module, "fit_cbd")`` replaces each module-global name in the
    package that is bound to ``module.fit_cbd`` with a wrapper that appends
    to the returned list and then calls through.
    """

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "cbdid" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
        return calls

    return install
