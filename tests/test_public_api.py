import qtchar


def test_public_api():
    names = qtchar.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(qtchar, name)]
    assert not missing
