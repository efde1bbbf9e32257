"""The public API: no name in `graphdss.__all__` outlives what it names."""

import graphdss


def test_every_exported_name_resolves_on_the_package():
    assert [name for name in graphdss.__all__ if not hasattr(graphdss, name)] == []
    assert len(set(graphdss.__all__)) == len(graphdss.__all__)
