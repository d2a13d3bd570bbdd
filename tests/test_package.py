"""The package's public names."""

import dulac


def test_every_public_name_resolves_once():
    names = dulac.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(dulac, name) is not None, name
