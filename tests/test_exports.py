"""The package's export list matches what __init__ imports."""

import lattisketch as ls


def test_all_resolves_and_lists_every_public_import():
    assert [n for n in ls.__all__ if not hasattr(ls, n)] == []
    assert len(set(ls.__all__)) == len(ls.__all__)
    unlisted = [n for n, obj in vars(ls).items()
                if not n.startswith("_") and callable(obj)
                and getattr(obj, "__module__", "").startswith("lattisketch.")
                and n not in ls.__all__]
    assert unlisted == []
