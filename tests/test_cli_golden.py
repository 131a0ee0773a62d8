"""Golden CLI outputs: exit code and SHA-256 of stdout per invocation.

The table was recorded from the library before the PL kernel and the
linear-system caches were reworked, so it pins the default output of every
subcommand on the bundled fixtures byte for byte.  Paths are relative to
the repository root, as in ``perfbench/cli_expected.json``, whose 41
invocations are all included here.  The rows after them pin the report
of each input error the front end raises itself or passes on from the
workspace: argument counts, missing and malformed flags, unknown names,
a workspace without the block a command needs, a system that is not
the tree a command needs, values past the int digit limit, and a p=2
pseudonorm past the float range. The last row pins the support report of
a tree that misses part of the graph, with its uncovered components.

The contract test at the end gives one value flag of a row an odd value
and checks that the front end still answers with an exit code and a report.
"""

import contextlib
import hashlib
import io
import json
import signal
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tropkit.cli import main

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = [
    (["graph", "validate", "tests/fixtures/c6.json"], 0,
     "ceb0346c72f9765664d0be6a76f8bf60dc21242e3078e31e68324d2a40ec8411"),
    (["graph", "validate", "tests/fixtures/banana.json"], 0,
     "573e4580b4c6d7480ee7d18516e968836519af7111abf1d1d5ad0fde1884c4d8"),
    (["tp", "project", "--space", "tests/fixtures/tp3.json", "--generators", "rect", "--point", "O"], 0,
     "0471b1d0c008031e9fc859d4595527cc7e75e0ca22dbeaaded3c27a8bf73a064"),
    (["tp", "project", "--space", "tests/fixtures/tp3.json", "--generators", "rect", "--point", "O", "--mode", "upper"], 0,
     "6289017f674dd21dc4bbeb6f76782fe5e3271d401b9254a6c1392d3df4c8710b"),
    (["tp", "member", "--space", "tests/fixtures/tp3.json", "--generators", "rect", "--point", "A"], 0,
     "8f84aea5f1cb8bfdcb3d16f1363fc43a02797f564bafb891e198f592d4703f37"),
    (["tp", "member", "--space", "tests/fixtures/tp3.json", "--generators", "rect", "--point", "O"], 1,
     "eede8a51eef20747727e77a02b0bf0e5566a32a86af38a9590a1d5c5c504f735"),
    (["tp", "extremals", "--space", "tests/fixtures/tp3.json", "--generators", "rect"], 0,
     "70f4b90106b8e14000c8a751506632d56ab8ec7098b33d94e235aeaef1de4099"),
    (["tp", "extremals", "--space", "tests/fixtures/tp3.json", "--generators", "rect", "--mode", "upper"], 0,
     "98f9395e388d62bb0c375649b3a7198de4c8f9796f8d9a704dd294ffb23e236a"),
    (["tp", "independence", "--space", "tests/fixtures/tp3.json", "--generators", "rect", "--kind", "weak"], 1,
     "531026bd6ced6576dc422c4d6a6569698dc3e5e62c612a87d6ce40cd1f211aff"),
    (["tp", "independence", "--space", "tests/fixtures/tp3.json", "--generators", "rect", "--kind", "gondran_minoux"], 1,
     "1e9f3911386a56dc878b4b85de5a2000b4fc53c948e458b0b80d68d2d16a8b37"),
    (["tp", "independence", "--space", "tests/fixtures/tp3.json", "--generators", "rect", "--kind", "tropical"], 1,
     "a130df92bde2c0a589dd742ed1e8bed5c2099bf59e09af8d360109202d18bb40"),
    (["tp", "norm", "--space", "tests/fixtures/tp3.json", "--point", "A", "--p", "1"], 0,
     "5767ade61abaa408ba566f5368ff71f42e5d41b3ac6d1b23cb5b92ac2ab345b2"),
    (["tp", "norm", "--space", "tests/fixtures/tp3.json", "--point", "D", "--p", "inf", "--mode", "upper"], 0,
     "ddf7da59ba8d2d98fbed26646dcd779a4892b5380483f5d05bb4e95e39b10e91"),
    (["div", "equiv", "--graph", "tests/fixtures/c6.json", "--divisor", "D1", "--divisor", "D2"], 0,
     "0d38bead99777069f677c98e64c7594db2d98aafb33405602607fbe2de0d4f14"),
    (["div", "equiv", "--graph", "tests/fixtures/c6.json", "--divisor", "D1", "--divisor", "[[{\"vertex\":\"w12\"},\"3\"]]"], 1,
     "da1524430fc03f16643a6c7e5735bfea9705277bd03afea6fdc0d0a21e2857c4"),
    (["div", "equiv", "--graph", "tests/fixtures/c6.json", "--divisor", "NOPE", "--divisor", "D1"], 2,
     "454d43cf5caa4604c9c4e889b823323a0ff768c86d03aa9469df8ceea1138af7"),
    (["div", "rho", "--graph", "tests/fixtures/c6.json", "--divisor", "D1", "--divisor", "D2"], 0,
     "c4f743a4d22864fe728c7f06dcb59c8576db4136010521294d68d4e1fd0b7e9d"),
    (["div", "path", "--graph", "tests/fixtures/c6.json", "--divisor", "D1", "--divisor", "D2", "--t", "1"], 0,
     "62111909d4ee7d1aa6a2d09138fd6c85bdd501a9921c0a0d42128419bbd4bb03"),
    (["div", "b1", "--graph", "tests/fixtures/c6.json", "--divisor", "D1", "--divisor", "D2"], 0,
     "9999b8409d32c07a4737776ac036aafb974eee6a83231dcf5cadd33b6dd10f63"),
    (["div", "reduce", "--graph", "tests/fixtures/c6.json", "--divisor", "D12", "--at", "{\"vertex\":\"v1\"}"], 0,
     "dab512038bf960e77b5e364373fbcb9a1dab30754f395f05b40927a25c671c40"),
    (["div", "reduce", "--graph", "tests/fixtures/c6.json", "--divisor", "D0", "--at", "{\"edge\":\"e1\",\"offset\":\"1/2\"}"], 0,
     "6e806eaeb527ebf0d8cf8817ed311215def4becf4dfaa314cf618cb6d85949e8"),
    (["sys", "member", "--graph", "tests/fixtures/c6.json", "--system", "complete", "--divisor", "D0"], 0,
     "ef278de65cad358780a5087b86aae7335d2c4fedc0d46b98b0951664d98e09e1"),
    (["sys", "member", "--graph", "tests/fixtures/c6.json", "--system", "seg_D1_D3", "--divisor", "D2"], 1,
     "7b0221fdc59ff830f3a2e1ffe3affc94ee1f63e8a5ac41fe3bb3c0078c293b6e"),
    (["sys", "project", "--graph", "tests/fixtures/c6.json", "--system", "complete", "--divisor", "D12"], 0,
     "396663c8b742c5d3863c021117c1a42de27986ec955038cba793a3c29d2eef1e"),
    (["sys", "project", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid", "--divisor", "D1"], 0,
     "9e4179e9d2afcff99b8be09df9109b20ff51b8b602fccd34e88bd66d33496c90"),
    (["sys", "reduced", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid", "--at", "{\"vertex\":\"v1\"}"], 0,
     "ad0d92019401281d6052d95b4bcefd6fb887f7673443a5fc4ca16d4178655e3a"),
    (["sys", "reduced", "--graph", "tests/fixtures/c6.json", "--system", "complete", "--at", "{\"edge\":\"e3\",\"offset\":\"1/3\"}"], 0,
     "bb56e7219a9f193c1300efe9d91efcd2c870dc556728a7ad2af778d5e79f80eb"),
    (["sys", "extremals", "--graph", "tests/fixtures/c6.json", "--system", "complete"], 0,
     "4141a7e78299dde81ed8befc97019553d350e920357c7f07a5789d077efd50f2"),
    (["tree", "check", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid"], 0,
     "b0965c5eee49ff00701342fc26ed55b9bfdfc680b4ee87a8920dd26825c613b7"),
    (["tree", "check", "--graph", "tests/fixtures/c6.json", "--system", "triangle_bad"], 1,
     "87b58d4b1afb7efaa70dd3ef9d88e37969f0cde25ac4664606542e2426fb2b02"),
    (["tree", "support", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid"], 0,
     "31aa17005ee6b76619128e45ed3e48bd99d626118fdbd0449d652024e9ea8273"),
    (["tree", "dominant", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid"], 0,
     "62b4af72c96e67b0081624fc244d6b069b8aabe5702f8a5e66b938e3ecdc8647"),
    (["tree", "dominant", "--graph", "tests/fixtures/banana.json", "--system", "seg_E1_E3"], 1,
     "7ec7323002712b5edb6d5242d4ea8c954a40eaaaecd59a753c75eaab5423466b"),
    (["tree", "preimage", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid", "--divisor", "D12"], 0,
     "6f57725cb4699f5530a0c3fe90ad8122852bf6ef5c0d88736bfeb81ef7c2f415"),
    (["tree", "redmap", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid", "--format", "csv"], 0,
     "9b8060a4cefd572d8c2a6917e085ddadcbf0bff46c2258baf4d85323ea7f9287"),
    (["tree", "redmap", "--graph", "tests/fixtures/c6.json", "--system", "complete", "--samples", "1"], 0,
     "3b0dc0bd4a26811f8eed5d724c4522138781b010f4d5602ab1723f0cb25fc780"),
    (["tree", "morphism", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid"], 0,
     "fdeb85f31153583a38bf3263ddab506a1b2729470062e3d06647fe11f4a26933"),
    (["tree", "morphism", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid", "--format", "dot"], 0,
     "73a75158569875d6cad7eb7f0f38b852d44623f398937c91d837b1930289ceb7"),
    (["tree", "harmonize", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid"], 0,
     "a150647ebc2fc5ec805554b2f69a1095ef298e36609fcf485814cb9f57d86d81"),
    (["tree", "witness", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid", "--degree", "3"], 0,
     "ce74d27c4f13f518290d9fc0e02f2fe468273217908d8478ec400c1f15de7eeb"),
    (["tree", "witness", "--graph", "tests/fixtures/banana.json", "--system", "seg_E1_E3", "--degree", "3"], 1,
     "87b7d7522e7fda6deb9df4aa894f2c694511d8e63723e64888b88a6b7f0420a7"),
    (["tree", "check", "--graph", "tests/fixtures/banana.json", "--system", "witness4"], 0,
     "4ad6c99dbb882619fee5838af78a3d3e1ca68813e4b64af7b739591c6680e33e"),
    (["tree", "support", "--graph", "tests/fixtures/banana.json", "--system", "witness4"], 0,
     "a722ecd9c81216285343a0d98da44a9db27e2f86e8d6d593c4c379d841ec0c68"),
    (["tree", "dominant", "--graph", "tests/fixtures/banana.json", "--system", "witness4"], 0,
     "20fb66c49dee9ad44da1ac2b2b3478f6ed1de7be3ed6bcee67b47e80d6fb4be5"),
    (["tree", "morphism", "--graph", "tests/fixtures/banana.json", "--system", "witness4"], 0,
     "332486d0885850ff32a4e6b37681093c71d43d0988d76a99821dd5a48da56cbd"),
    (["tree", "harmonize", "--graph", "tests/fixtures/banana.json", "--system", "witness4"], 0,
     "40055d775e1a96880ddde3e786927857195f9bcfcb267e8bedbcc5fb4712c622"),
    (["tree", "redmap", "--graph", "tests/fixtures/banana.json", "--system", "witness4"], 0,
     "5cf56522bafecd2d93f623c62d0332ea29929a297930a984d667a600f92156cf"),
    (["tree", "morphism", "--graph", "tests/fixtures/banana.json", "--system", "witness4", "--format", "dot"], 0,
     "9aa7cb042e8584df276248ee608acd9a85b1b66f6abd4f75a4b53e9fef231fd8"),
    (["tree", "witness", "--graph", "tests/fixtures/banana.json", "--system", "witness4", "--degree", "4"], 0,
     "48e3fa9c1591434c4983712fdf9559959df7a4d6654847356af4912579dbd0f0"),
    # input errors: each prints one input-error report and exits 2
    (["div", "equiv", "--graph", "tests/fixtures/c6.json", "--divisor", "D1"], 2,
     "9a8d154c65a8bc27e2bf4b342113b71b51549d5876d136fee97a724e96a92d82"),
    (["sys", "member", "--graph", "tests/fixtures/c6.json", "--system", "complete", "--divisor", "D0", "--divisor", "D1"], 2,
     "a7eaadfb0777baef74b16bb90d86f699b772b8fcbb172f55ac23e84da6c5ec92"),
    (["div", "path", "--graph", "tests/fixtures/c6.json", "--divisor", "D1", "--divisor", "D2"], 2,
     "49a882b2bcdd292124ab40508fab9470bfb667f8708b502929ed990114f5949b"),
    (["div", "reduce", "--graph", "tests/fixtures/c6.json", "--divisor", "D12"], 2,
     "00b93125fa37ef7ee4fd5f86c28d2e607411c0dd7a1c8ba5e77bde72aa7efee3"),
    (["sys", "reduced", "--graph", "tests/fixtures/c6.json", "--system", "complete"], 2,
     "d2fcf3e2bb81abb186fb397e0a9fbcf693e7b8c64878b760fa50e12a80394e73"),
    (["tree", "witness", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid"], 2,
     "94222b20e93e4901c1a5eb11cb4b0994f4ff016888609744bdcd2bbafc7eaec6"),
    (["div", "path", "--graph", "tests/fixtures/c6.json", "--divisor", "D1", "--divisor", "D2", "--t", "1.5x"], 2,
     "01ad35f343978c9baf2915dbfe19bf8a69d727d91a33872085a6ad0a252117ea"),
    (["tree", "redmap", "--graph", "tests/fixtures/c6.json", "--system", "triangle_mid", "--samples", "-1"], 2,
     "b690e4011293c8825f49e8078d37b931c50306973bd14bd10a85c59b0224f14e"),
    (["div", "reduce", "--graph", "tests/fixtures/c6.json", "--divisor", "D12", "--at", "{\"vertex\":\"v1\",\"edge\":\"e1\",\"offset\":\"1/2\"}"], 2,
     "25c2e59fc6c9e29a11d136841e6ca333d6b9982f200b2bcbaa457d4be056ac35"),
    (["div", "equiv", "--graph", "tests/fixtures/c6.json", "--divisor", "D1", "--divisor", "[[{\"vertex\":\"v1\"},1.5]]"], 2,
     "8feaed323ab01deec85b91791de1e7d2c55edac9e39f63b6631f6d24dfb6efca"),
    (["sys", "member", "--graph", "tests/fixtures/c6.json", "--system", "NOPE", "--divisor", "D0"], 2,
     "fce1c5072003db9c067d393de598395cd6fb7680dddd08478a05e42eb6fba388"),
    (["tp", "extremals", "--space", "tests/fixtures/tp3.json", "--generators", "NOPE"], 2,
     "8ba84c6683b49990eacec9764145fc10eb529a3725e1bc6286e6dd1978974947"),
    (["tp", "norm", "--space", "tests/fixtures/tp3.json", "--point", "NOPE"], 2,
     "4a37d0ac3895f95e7cda2a5abef21ba755e06f8fdd6a4dc59a007f5647b121fe"),
    (["tp", "norm", "--space", "tests/fixtures/c6.json", "--point", "A"], 2,
     "12cd5063753bee8c0bd4ee083188bc339bb6df1158a194f7775a67966afe40fa"),
    (["tp", "project", "--space", "tests/fixtures/c6.json", "--generators", "rect", "--point", "O"], 2,
     "1d11028e676e179d5c3a7a8aac6cefe7794cc09dcecc2aa94e5373a8919aa83f"),
    (["graph", "validate", "tests/fixtures/tp3.json"], 2,
     "e6ba936659948e394497c1950fe1799c7751fcab23e380f096852caeb205dbf4"),
    (["div", "rho", "--graph", "tests/fixtures/tp3.json", "--divisor", "D1", "--divisor", "D2"], 2,
     "ca4d526dffe9476ab23d4c6e5afc16f5e04a9de94186add35903911b575b61ad"),
    (["graph", "validate", "tests/fixtures/missing.json"], 2,
     "897a37839a232ab6a90252892a115103f7b70304e365e2ff58b690b1a8ee3c9e"),
    (["tree", "support", "--graph", "tests/fixtures/c6.json", "--system", "triangle_bad"], 2,
     "9d0c9d113e9351756ee7a421173f7cb9a0dedcde2630762b8c1c592b61e1554d"),
    (["tree", "morphism", "--graph", "tests/fixtures/banana.json", "--system", "seg_E1_E3"], 2,
     "9472b90e88cd5a8c8b93a7adc8faffc470df57af48394ba1d9b89817a5cf849d"),
    # values past the int digit limit, which cannot be printed
    (["tp", "norm", "--space", "tests/fixtures/long_integer.json", "--point", "A"], 2,
     "585a8874f5eb1a507c03660199989d3945c715b0a25bdccd9eaa739b70a810ac"),
    (["tp", "norm", "--space", "tests/fixtures/tp3.json", "--point", "[\"1e5000\",\"0\",\"0\"]"], 2,
     "074e9a675d9dd1ee68b47975798bd64c05304d22c04f9551bf73358b0a75b6c5"),
    # a p=2 pseudonorm past the float range
    (["tp", "norm", "--space", "tests/fixtures/tp3.json", "--point", "[\"0\",\"1e155\",\"0\"]", "--p", "2"], 2,
     "277781f1ce35d2e3795cf2723e6e66f9a1ff846c46181530398a3e6f8ea4e9a4"),
    # a tree whose support misses part of the graph
    (["tree", "support", "--graph", "tests/fixtures/banana.json", "--system", "seg_E1_E3"], 0,
     "514125c8e292a4c99c58cf352638de4e247376c402b14324b1574cd4367f84cc"),
]


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN,
                         ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_cli_output_is_unchanged(argv, exit_code, digest, monkeypatch):
    monkeypatch.chdir(ROOT)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == exit_code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


PREDICATES = {("tp", "member"), ("tp", "independence"), ("div", "equiv"), ("sys", "member"),
              ("tree", "check"), ("tree", "dominant"), ("tree", "witness")}
VALUE_FLAGS = {"--point", "--divisor", "--t", "--at", "--samples", "--degree", "--generators",
               "--system"}
MILLION = '[[{"vertex":"v1"},"1000000"]]'
ODD_VALUES = [
    "-1", "0", "1", "1/0", "1e400", "100000", "inf", "nan", "", "x",
    "[]", "{}", "[[]]",
    # off-graph points, points at edge ends and a 50-digit denominator
    '{"vertex":"nowhere"}', '{"edge":"e1","offset":"7"}', '{"edge":"nowhere","offset":"1/2"}',
    '{"edge":"e1","offset":"0"}', '{"edge":"e1","offset":"1"}',
    '{"edge":"e1","offset":"1/' + "1" + "0" * 49 + '"}', "1/" + "1" + "0" * 49,
    # half-integer, negative, 10^6 and off-graph coefficients
    '[[{"vertex":"v1"},"1/2"],[{"vertex":"v2"},"5/2"]]', '[[{"vertex":"v1"},"-3"]]',
    '[[{"vertex":"u1"},"-1"],[{"vertex":"v1"},"4"]]', MILLION,
    '[[{"vertex":"nowhere"},"3"]]', '[[{"edge":"e1","offset":"1/2"},"3"]]',
    # wrong-length and float arrays
    "[0,0]", "[0,0,0,0]", '["1","2","3","4","5"]', "[1.5,0,0]", '["0","1e400","0"]',
]
CONTRACT_ROWS = [argv for argv, code, _ in GOLDEN
                 if code in (0, 1) and VALUE_FLAGS & set(argv)]


class _Hang(BaseException):
    """Raised by the alarm; no handler in the library catches it."""


def _hang(signum, frame):
    raise _Hang


@pytest.mark.thorough
@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@given(st.data())
def test_an_odd_flag_value_gets_an_exit_code_and_a_report(data):
    """A golden row that exits 0 or 1, with one value flag given an odd
    value, exits 0, 1, 2 or 3 within a 10 s alarm: 1 only from a predicate,
    2 and 3 with the canonical error object, 2 at a nonempty location, and
    nothing on stderr. Choice flags (--mode, --kind, --p, --format) are left
    out: argparse refuses their values on stderr by design, which TestParser
    pins. So is div reduce with a 10^6 coefficient, whose burning runs about
    10^6 rounds: bounding that work is an open item of its own."""
    argv = [str(ROOT / a) if a.startswith("tests/") else a
            for a in data.draw(st.sampled_from(CONTRACT_ROWS))]
    at = data.draw(st.sampled_from([i for i, a in enumerate(argv) if a in VALUE_FLAGS]))
    value = data.draw(st.sampled_from(ODD_VALUES))
    assume(not (argv[:2] == ["div", "reduce"] and value == MILLION))
    argv[at + 1] = value
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(10)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _Hang:
        pytest.fail(f"no exit within 10 s: {argv}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3)
    assert code != 1 or tuple(argv[:2]) in PREDICATES
    if code >= 2:
        report = json.loads(out.getvalue())
        assert set(report) == {"code", "message", "location" if code == 2 else "detail"}
        assert code == 3 or report["location"]
    assert err.getvalue() == ""
