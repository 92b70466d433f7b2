import extractomat


def test_every_public_name_resolves():
    for name in extractomat.__all__:
        assert getattr(extractomat, name) is not None, name
