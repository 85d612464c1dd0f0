"""The package namespace: keybound.__all__ names only real attributes."""

import keybound


def test_all_names_resolve_once():
    names = keybound.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(keybound, name)]
    assert missing == []
