"""The package's public names: ``__all__`` lists each exported name once, and
every one of them resolves."""

import contramod


def test_star_import_exports_each_name_in_all_once():
    namespace: dict = {}
    exec("from contramod import *", namespace)  # a stale name raises AttributeError
    namespace.pop("__builtins__")
    assert len(set(contramod.__all__)) == len(contramod.__all__)
    assert sorted(namespace) == sorted(contramod.__all__)
