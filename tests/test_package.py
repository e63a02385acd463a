import macaulay


def test_export_list_resolves_without_duplicates():
    assert len(set(macaulay.__all__)) == len(macaulay.__all__)
    for name in macaulay.__all__:
        assert hasattr(macaulay, name), name


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from macaulay import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(macaulay.__all__)
