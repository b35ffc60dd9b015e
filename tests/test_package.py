import types

import qltc


def test_all_lists_importable_api_and_no_submodules():
    namespace = {}
    exec("from qltc import *", namespace)
    for name in qltc.__all__:
        assert namespace[name] is getattr(qltc, name)
        assert not isinstance(getattr(qltc, name), types.ModuleType), name
    assert len(set(qltc.__all__)) == len(qltc.__all__)
