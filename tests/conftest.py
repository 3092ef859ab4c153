import sys

import pytest


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
