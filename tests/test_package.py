import types

import fluidq


def test_public_names_resolve():
    assert len(set(fluidq.__all__)) == len(fluidq.__all__)
    for name in fluidq.__all__:
        value = getattr(fluidq, name)
        # submodules are reachable as attributes but are not the public API
        assert not isinstance(value, types.ModuleType), name
