"""Golden digests of the command-line output.

Each entry pins the sha256 of ``cli.main`` stdout for one invocation. The
digests were captured before the closed forms moved onto the shared term
evaluator, so any change to a single printed byte of a table, decomposition
or verify report fails here. They are an equality contract: when output
changes on purpose, re-capture them and say why in the change log.
"""

import hashlib

import pytest

from sigma_convolve import cli

GOLDEN: list[tuple[tuple[str, ...], str]] = [
    (("wab", "--a", "1", "--b", "28", "--n-max", "500", "--mode", "both"),
     "67ab0389b2aa792119bb0520085e320715beaa99a1e391460a9fb335b5a54cde"),
    (("wab", "--a", "4", "--b", "7", "--n-max", "500", "--mode", "both"),
     "2670d2f433eaca95a27c4aaf46f0705933c9f5f8b5d4dddff7668f2a5772c4b1"),
    (("wab", "--a", "1", "--b", "14", "--n-max", "500", "--mode", "both"),
     "d91da657e40f7b243d7bb122bd5dd41666b146aa4576635a61b0e6f0f8cc2823"),
    (("wab", "--a", "2", "--b", "7", "--n-max", "500", "--mode", "both"),
     "bdd2792e15aa1093700f49206d0baf6ddc2b2fff893cfb2c63dfafe3727a4768"),
    (("wab", "--a", "2", "--b", "14", "--n-max", "500", "--mode", "both"),
     "f83c74d26611a993cf3f6c56cebc8d50c4ea82af154c49ef3d58df7b728f803e"),
    (("wab", "--a", "2", "--b", "14", "--n-max", "500", "--mode", "formula", "--format", "json"),
     "8255e8c783c346bc6e516515c91340430834bf569caa623debba87317d37b2d1"),
    (("r7", "--n-max", "300", "--mode", "all"),
     "f99a5dd85f0573855ca77e8bd6667212d9a054f8660d85782971ba9b7046f12c"),
    (("delta", "--form", "4,7", "--terms", "500"),
     "0cf54c5f4d4698303c2e7da68229be29c0423d2b035cadcd49a68dd4d078a467"),
    (("delta", "--form", "4,14,1", "--terms", "500"),
     "f72858a989ce4603629a11b448c7ee22f7b7f93000c154e8836e971757cf6d4f"),
    (("delta", "--form", "4,14,2", "--terms", "500", "--format", "json"),
     "4e3730a96d25403f3e018fd8e24c1044dd547c215e15ada0c63704645ad41c7d"),
    (("decompose", "--pair", "1,28", "--n-max", "80"),
     "b971a129bf0d778370a3913e154d8886af02254a61a242a15e29a533ceaedb6e"),
    (("decompose", "--pair", "4,7", "--n-max", "80"),
     "9ada3982120722c37af7604a6677a10bb0198de29f016ddb52fdd0d644eb6240"),
    (("decompose", "--pair", "1,14", "--n-max", "80"),
     "f2ebfe3b945d59951b9d7f9d61692a7179450d3f306b403bf97d8422477fa980"),
    (("decompose", "--pair", "2,7", "--n-max", "80"),
     "db3ee91c9c1baccc80c86efa564d9508bd8efbb8bf13d677fe31edd6dab94d7b"),
    (("decompose", "--pair", "1,7", "--n-max", "80"),
     "dd87e1d12b7fe35c67c76bbcf806587b0d9a9bd1a6353b6649e863f3b1034241"),
    (("verify", "--order", "150", "--report", "json"),
     "ee7fc5ce5b17f2179eebc32d4007a8463ef2f75ce56c69d5028edd83b0c3bba3"),
]


def _digest(capsys, argv: tuple[str, ...]) -> str:
    capsys.readouterr()
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK, (argv, code)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_digest(capsys, argv, digest):
    assert _digest(capsys, argv) == digest
