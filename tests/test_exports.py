import sigma_convolve


def test_every_exported_name_resolves():
    missing = [name for name in sigma_convolve.__all__ if not hasattr(sigma_convolve, name)]
    assert missing == []
    assert len(set(sigma_convolve.__all__)) == len(sigma_convolve.__all__)
