import dpsla


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks `from dpsla import *`
    missing = [name for name in dpsla.__all__ if not hasattr(dpsla, name)]
    assert missing == []
    assert len(set(dpsla.__all__)) == len(dpsla.__all__)
