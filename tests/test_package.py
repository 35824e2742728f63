import barystream


def test_every_export_resolves():
    assert [name for name in barystream.__all__
            if not hasattr(barystream, name)] == []
