"""The package's export list names each public object once, and every name resolves."""

import inspect

import ratiocert
from ratiocert import compare, paperchecks


def test_every_export_resolves_once():
    names = ratiocert.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(ratiocert, n)] == []
    namespace: dict = {}
    exec("from ratiocert import *", namespace)
    assert set(names) <= set(namespace)


def test_no_public_function_takes_loose_engine_settings():
    # one Engine carries the ladder and the budget, and no function takes a mode
    functions = {getattr(ratiocert, n) for n in ratiocert.__all__}
    functions |= {f for mod in (compare, paperchecks) for n, f in vars(mod).items()
                  if not n.startswith("_") and getattr(f, "__module__", None) == mod.__name__}
    loose = []
    for f in filter(inspect.isfunction, functions):
        for p in inspect.signature(f).parameters.values():
            if (p.name in ("start_bits", "cap_bits", "exact_budget", "mode")
                    or p.kind is p.VAR_KEYWORD):
                loose.append((f.__qualname__, p.name))
    assert loose == []
