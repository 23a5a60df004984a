"""Golden digests of the command-line output.

Each entry pins the sha256 of ``cli.main`` stdout for one invocation. The
digests of the closed-form tables were captured before the closed forms
moved onto the shared term evaluator, those of the brute-force oracle
tables (``--mode brute``, ``--mode enumerate``) before the oracles moved
onto sigma tables, those of ``eta`` and the long ``delta`` table before
each eta factor was expanded at its own dilated order, and those of the
long closed-form tables before the evaluator summed in integers. So any
change to a single printed byte of a table, decomposition or verify report fails here.
They are an equality contract: when output changes on purpose, re-capture
them and say why in the change log.
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
    # the brute-force oracles alone: no closed form is evaluated
    (("wab", "--a", "3", "--b", "8", "--n-max", "1500", "--mode", "brute"),
     "157871c48b426708d31cb391983852a6627861acf1a32489de767740f348180f"),
    (("wab", "--a", "6", "--b", "4", "--n-max", "600", "--mode", "brute"),
     "9fe05cacf65651a601af6b304f4143520b5b3009c1cb61ddf54fe76e0b0de787"),
    (("wab", "--a", "5", "--b", "5", "--n-max", "300", "--mode", "brute"),
     "ac58a1f61a58f05ec1bf616fd0087eb8d26ad77ce5dba6366115ff41f7b5e2e3"),
    (("r7", "--n-max", "600", "--mode", "enumerate"),
     "eee355850c82664e3bd51da511022d3283f563c907be1460717738dbf1916ac6"),
    # raw eta expansions with factors in q^14 and q^28 and a cubed inverse
    # (C_9), and with two inverted factors (C_4); pinned before each factor
    # was expanded at its own dilated order
    (("eta", "--level", "28", "--spec", "2:1,4:1,14:-3,28:9", "--terms", "1200"),
     "8f4a71a3cc4fa218a07c4776d12c8a81ef17f0f7be8ccb44c47099e0c18559ce"),
    (("eta", "--level", "28", "--spec", "1:-2,2:6,7:6,14:-2", "--terms", "1200"),
     "5ebcdaca22a0f834916fa43a176706855f0c0c514b83c8dca53c46f8c4199425"),
    (("delta", "--form", "4,14,2", "--terms", "1500"),
     "6060c6fc2f7d062aa59d251d52c74e60bb462415c7f65be2e3fcdc1053c49005"),
    # closed forms alone at the orders of the benchmark's formula tables;
    # pinned before the evaluator moved from rationals to integers
    (("wab", "--a", "1", "--b", "28", "--n-max", "2000", "--mode", "formula"),
     "94fe3b03822fba7ca3d74a559bf72454b45440236ee2a5b714374b201a7c73b5"),
    (("r7", "--n-max", "1500", "--mode", "closed"),
     "29dd615e2788b44ca4b21f9a19164fd1d436e579414a132fbc7548221cfdb09e"),
    # the table oracles past the sizes above, the gcd path among them, an
    # eta product of the benchmark's verify workload, and a both-mode table
    # with a, b > 1; pinned before the table oracles and the eta products
    # shared one product engine and tables were printed by column
    (("wab", "--a", "1", "--b", "28", "--n-max", "20000", "--mode", "brute"),
     "399658772ebcfdff6be649bc05262b03deed534d280dbadf21e277ba999a7f45"),
    (("wab", "--a", "6", "--b", "9", "--n-max", "8000", "--mode", "brute"),
     "43b1b51e539fe25ec54139ca32073ef7e6ae547ad43e58d17b0a0e4c53ad689f"),
    (("r7", "--n-max", "8000", "--mode", "enumerate"),
     "1dfb4e8d4dd4621d31781aa6eadbe39e23f73ac71e0301202e85b2088dfca033"),
    (("eta", "--level", "7", "--spec", "1:16,7:8", "--terms", "1000"),
     "de2f437109ef7d1872280749fd04f4b3cb9ab55c715b71deeb9d5d3eefd94b2c"),
    (("wab", "--a", "4", "--b", "7", "--n-max", "600", "--mode", "both", "--format", "json"),
     "1f540da89191c84001b7a2ca0cd85a8d6ce45376d5be197f24d17c2d0ce0a7bc"),
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
