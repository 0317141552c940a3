import merkle_falsify


def test_package_all_resolves():
    # every exported name exists, once, and a star import binds all of them
    names = merkle_falsify.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(merkle_falsify, name)]
    assert missing == []
    namespace = {}
    exec("from merkle_falsify import *", namespace)
    assert set(names) <= namespace.keys()
