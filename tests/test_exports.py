"""Every name the package exports resolves, so ``from ptpig import *``
cannot break on a deleted function."""

import ptpig


def test_every_export_resolves():
    assert len(set(ptpig.__all__)) == len(ptpig.__all__)
    for name in ptpig.__all__:
        assert hasattr(ptpig, name), name
    namespace: dict = {}
    exec("from ptpig import *", namespace)
    assert set(ptpig.__all__) <= set(namespace)
