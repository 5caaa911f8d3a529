"""The package's export list names each public object once, and every name resolves."""

import ratiocert


def test_every_export_resolves_once():
    names = ratiocert.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(ratiocert, n)] == []
    namespace: dict = {}
    exec("from ratiocert import *", namespace)
    assert set(names) <= set(namespace)
