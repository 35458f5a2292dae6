import hdclt


def test_every_exported_name_resolves():
    # a stale entry in __all__ fails only at `from hdclt import *`
    missing = [name for name in hdclt.__all__ if not hasattr(hdclt, name)]
    assert missing == []
