"""Byte-identical CLI output: every command and format on fixed inputs.

Each case runs `cli.main` in process, inside a directory that holds the
input files below, and compares the exit code and the SHA-256 (first 16
hex digits) of stdout and of stderr with the digests in GOLDEN.  A change
that alters output on purpose prints the new table with
`PYTHONPATH=src python tests/test_cli_golden.py` and says so.  That command
also writes to stderr one `name: old -> new` line for each row that
differs from GOLDEN (old is None for a new row), then the count, and exits
1 when any row differs, 0 otherwise.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import pytest

from tropcircle import cli

BIG = 1000000007
# 4,300 digits each: they print, but 1/Q1 + 1/Q2 has about 8,600
Q1, Q2 = 10 ** 4299 + 1, 10 ** 4299 + 3


def _support(table):
    return [{"point": rep, "coeff": c} for rep, c in table]


def _circle(p, kinks, slopes, anchor="0"):
    return {"p": p, "domain": ["1", str(p)], "anchor": anchor,
            "kinks": kinks, "slopes": slopes, "convex": False}


INPUTS = {
    "poly-z.json": {"p": None, "scale": "1",
                    "vertices": [["0", "0"], ["1", "-1"], ["3", "-4"], ["2", "-5"], ["1", "-3"]]},
    "poly-zero.json": {"p": None, "scale": "1", "vertices": []},
    "poly-3.json": {"p": 3, "scale": "1/2",
                    "vertices": [["1/6", "0"], ["1/2", "-1"], ["3/2", "-1"], ["1/2", "-5/2"]]},
    "poly-5.json": {"p": 5, "scale": "1", "vertices": [["0", "1"], ["1/5", "0"], ["2", "-7/3"]]},
    "poly-3-scaled.json": {"p": 3, "scale": "3/2",
                           "vertices": [["1/2", "0"], ["3/2", "-1"], ["9/2", "-7"], ["1/2", "-3"],
                                        ["0", "-5"]]},
    "poly-z-scaled.json": {"p": None, "scale": "2/3",
                           "vertices": [["0", "1"], ["2/3", "0"], ["4/3", "-1/2"], ["2", "-3"]]},
    # 1/4 = (3/2) * (1/6) is outside (3/2) * Z[1/3]
    "poly-outside.json": {"p": 3, "scale": "3/2", "vertices": [["1/2", "0"], ["1/4", "1"]]},
    # only the last vertex is outside, and the hull would drop it: every x
    # is checked, and the message names that one
    "poly-outside-last.json": {"p": 3, "scale": "3/2",
                               "vertices": [["1/2", "0"], ["3/2", "-1"], ["9/2", "-7"],
                                            ["1/4", "-9"]]},
    # every x zero, written three ways: the gcd of the x is 0, in every group
    "poly-x-zero.json": {"p": 3, "scale": "3/2", "vertices": [["0", "1"], ["0/4", "-2"],
                                                               ["-0", "3/2"]]},
    "fn-2.json": _circle(2, ["3/2"], ["1", "-1"]),
    "fn-3.json": _circle(3, ["2"], ["1/3", "-1/3"], "-2"),
    "fn-5.json": _circle(5, ["2", "4"], ["1/5", "-1/5", "1/5"], "7/2"),
    "fn-big.json": _circle(BIG, ["2"], [str(BIG - 2), "-1"]),
    "fn-const.json": _circle(5, [], ["0"], "1"),
    "fn-bottom.json": _circle(3, [], ["0"], "-inf"),
    "pa-z.json": {"p": None, "scale": "1", "domain": ["0", None], "anchor": "0",
                  "kinks": ["1", "5/2"], "slopes": ["-1", "0", "2"], "convex": True},
    "pa-1to5.json": {"p": 2, "scale": "1", "domain": ["1", "5"], "anchor": "0",
                     "kinks": ["2"], "slopes": ["0", "1"], "convex": True},
    "div-2.json": {"p": 2, "support": _support([("1", "3"), ("3/2", "-2")])},
    "div-3.json": {"p": 3, "support": _support([("1", "4/3"), ("2", "-2/3")])},
    "div-5.json": {"p": 5, "support": _support([("1", "-4/5"), ("2", "-2/5"), ("4", "2/5")])},
    "div-big.json": {"p": BIG, "support": _support([("1", str(2 * BIG - 2)), ("2", str(1 - BIG))])},
    "obs-2.json": {"p": 2, "support": _support([("1", "1")])},
    "obs-3.json": {"p": 3, "support": _support([("1", "2"), ("2", "-1")])},
    "obs-5.json": {"p": 5, "support": _support([("1", "1"), ("2", "1/5")])},
    "obs-big.json": {"p": BIG, "support": _support([("1", "1")])},
    "array.json": [1, 2],
    # each coefficient prints, but the degree 1*9e4299 + 2*9e4299 has 4,301 digits
    "div-wide.json": {"p": 3, "support": _support([("1", "9e4299"), ("2", "9e4299")])},
    "poly-long-x.json": {"p": None, "scale": "1", "vertices": [["1" * 4000 + "/7", "0"], ["0", "0"]]},
    # p is checked before the domain, whose message would echo p whole
    "fn-long-p.json": {**_circle(3, [], ["0"]), "p": "3" * 5000},
    # every slope prints, but the wrap jump 9e4299 + 2*9e4299 has 4,301 digits
    "fn-wide.json": _circle(2, ["3/2"], ["9e4299", "-9e4299"]),
    "fn-4-kinks.json": _circle(3, ["3/2", "2", "7/3", "8/3"], ["1", "-1", "1", "0", "-1"], "1/2"),
    # y denominators 2, 3, 5, 7, 11, 13: pairwise coprime, every vertex kept
    "poly-coprime.json": {"p": None, "scale": "1",
                          "vertices": [["0", "1/2"], ["1", "1/3"], ["2", "-1/5"], ["3", "-9/7"],
                                       ["5", "-60/11"], ["8", "-207/13"]]},
    # past the float range; and inside it, but too large for the +-1 padding
    "pa-1e400.json": {"p": None, "scale": "1", "domain": ["0", "1"], "anchor": "1e400",
                      "kinks": [], "slopes": ["0"]},
    "pa-1e300.json": {"p": None, "scale": "1", "domain": ["0", "1"], "anchor": "1e300",
                      "kinks": [], "slopes": ["0"]},
    "poly-1e300.json": {"p": None, "scale": "1", "vertices": [["0", "1e300"], ["1", "0"]]},
    # exact ends 1/2 < 1/2 + 1e-33 that round to one float
    "pa-one-float-domain.json": {"p": None, "scale": "1",
                                 "domain": ["1/2", "500000000000000000000000000000001/"
                                                   "1000000000000000000000000000000000"],
                                 "anchor": "0", "kinks": [], "slopes": ["1"]},
    "div-1e400.json": {"p": 2, "support": _support([("1", "1e400")])},
    # a vertex or a domain must be a JSON list of exactly two items
    "poly-string-vertices.json": {"p": None, "scale": "1", "vertices": ["12", "34"]},
    "poly-triple-vertex.json": {"p": None, "scale": "1", "vertices": [["0", "0"], ["1", "2", "3"]]},
    "pa-string-domain.json": {"p": None, "scale": "1", "domain": "01", "anchor": "0",
                              "kinks": [], "slopes": ["0"]},
    "fn-short-domain.json": {**_circle(3, [], ["0"]), "domain": ["1"]},
    # a list field must be a JSON list and a support entry an object: the
    # string "2" is not the kink list ["2"], nor {} an empty support
    "div-object-support.json": {"p": 3, "support": {}},
    "fn-string-kinks.json": _circle(3, "2", ["1/3", "-1/3"]),
    "div-list-entry.json": {"p": 3, "support": [["2", "1"]]},
    "pa-string-slopes.json": {"p": None, "scale": "1", "domain": ["0", "1"], "anchor": "0",
                              "kinks": ["1/2"], "slopes": "01"},
    # two entries at point 2, each outside Z[1/3]: the message quotes the
    # first as written (cut to 40 characters), not their sum
    "div-sum-past-the-limit.json": {"p": 3, "support": _support([("2", f"1/{Q1}"),
                                                                 ("2", f"1/{Q2}")])},
    # each entry is checked as written: 1/2 + 1/2 = 1 is in Z[1/3], 1/2 is not
    "div-repeated-outside.json": {"p": 3, "support": _support([("2", "1/2"), ("2", "1/2")])},
    "div-repeated-inside.json": {"p": 3, "support": _support([("2", "1/3"), ("2", "2/3")])},
    # kinks 1 + 1/Q1 and 2 + 1/Q2: value(3) - value(1) = 1 + 1/Q1 - 1/Q2
    "fn-remainder-past-the-limit.json": _circle(3, [f"{Q1 + 1}/{Q1}", f"{2 * Q2 + 1}/{Q2}"],
                                                ["1", "0", "1"]),
}
RAW_INPUTS = {"broken.json": '{"p": 3,\n "support": [\n',
              "div-long-literal.json": '{"p": 3, "support": [{"point": "2", "coeff": '
                                       + "1" * 4301 + '}]}'}


def _cases():
    cases = {}
    for poly in ("poly-z", "poly-zero", "poly-3", "poly-5", "poly-3-scaled", "poly-z-scaled"):
        for fmt in ("text", "json", "svg"):
            cases[f"legendre {poly} {fmt}"] = ["legendre", f"{poly}.json", "--format", fmt]
    for fn in ("fn-2", "fn-3", "fn-5", "fn-big", "fn-const"):
        for fmt in ("text", "json"):
            cases[f"divisor {fn} {fmt}"] = ["divisor", f"{fn}.json", "--format", fmt]
        cases[f"plot {fn}"] = ["plot", f"{fn}.json"]
    for pa in ("pa-z", "pa-1to5", "fn-bottom"):
        cases[f"plot {pa}"] = ["plot", f"{pa}.json"]
    for name in ("2", "3", "5", "big"):
        for kind in ("div", "obs"):
            for fmt in ("text", "json"):
                cases[f"jacobian {kind}-{name} {fmt}"] = ["jacobian", f"{kind}-{name}.json",
                                                          "--format", fmt]
        for fmt in ("text", "json"):
            cases[f"jacobian div-{name} {fmt} witness"] = ["jacobian", f"div-{name}.json",
                                                           "--witness-out", "-", "--format", fmt]
    for div in ("div-2", "div-3", "div-5", "obs-3", "obs-5", "obs-big"):
        for fmt in ("text", "json", "csv", "svg"):
            cases[f"rr {div} {fmt}"] = ["rr", f"{div}.json", "--n-max", "3", "--format", fmt]
    cases["rr div-big oversized"] = ["rr", "div-big.json", "--n-max", "2"]
    cases["verify seed 0"] = ["verify", "--seed", "0", "--count", "20"]
    cases["verify seed 0 count 1000"] = ["verify", "--seed", "0", "--count", "1000"]
    cases["verify zero count"] = ["verify", "--count", "0"]
    cases["verify negative count"] = ["verify", "--count", "-3"]
    for argv in (["legendre", "poly-3.json"], ["divisor", "fn-3.json"],
                 ["jacobian", "div-3.json"], ["rr", "div-3.json"]):
        cases[f"{argv[0]} wrong --p"] = [*argv, "--p", "5"]
        cases[f"{argv[0]} matching --p"] = [*argv, "--p", "3"]
    for command in ("legendre", "divisor", "jacobian", "rr", "plot"):
        cases[f"{command} missing file"] = [command, "missing.json"]
        cases[f"{command} broken json"] = [command, "broken.json"]
        cases[f"{command} json array"] = [command, "array.json"]
    cases["divisor bottom"] = ["divisor", "fn-bottom.json"]
    cases["divisor polygon file"] = ["divisor", "poly-3.json"]
    cases["plot bad format"] = ["plot", "fn-3.json", "--format", "json"]
    cases["legendre vertex outside the scaled group"] = ["legendre", "poly-outside.json"]
    cases["legendre only the last vertex outside the group"] = ["legendre", "poly-outside-last.json"]
    for fmt in ("text", "json"):
        cases[f"legendre every x zero {fmt}"] = ["legendre", "poly-x-zero.json", "--format", fmt]
    cases["jacobian result beyond the digit limit"] = ["jacobian", "div-wide.json"]
    cases["legendre long value quoted short"] = ["legendre", "poly-long-x.json"]
    cases["jacobian integer literal beyond the digit limit"] = ["jacobian", "div-long-literal.json"]
    cases["divisor long p quoted short"] = ["divisor", "fn-long-p.json"]
    for fmt in ("text", "json"):
        cases[f"divisor {fmt} beyond the digit limit"] = ["divisor", "fn-wide.json", "--format", fmt]
    cases["plot fn-4-kinks"] = ["plot", "fn-4-kinks.json"]
    cases["legendre poly-coprime json"] = ["legendre", "poly-coprime.json", "--format", "json"]
    cases["plot beyond the float range"] = ["plot", "pa-1e400.json"]
    cases["plot beyond float precision"] = ["plot", "pa-1e300.json"]
    cases["plot domain within one float"] = ["plot", "pa-one-float-domain.json"]
    cases["legendre svg beyond float precision"] = ["legendre", "poly-1e300.json", "--format", "svg"]
    cases["rr svg beyond the float range"] = ["rr", "div-1e400.json", "--n-max", "2",
                                              "--format", "svg"]
    cases["legendre vertices given as strings"] = ["legendre", "poly-string-vertices.json"]
    cases["legendre vertex of three items"] = ["legendre", "poly-triple-vertex.json"]
    cases["plot domain given as a string"] = ["plot", "pa-string-domain.json"]
    cases["divisor domain of one item"] = ["divisor", "fn-short-domain.json"]
    cases["rr support given as an object"] = ["rr", "div-object-support.json"]
    cases["divisor kinks given as a string"] = ["divisor", "fn-string-kinks.json"]
    cases["jacobian support entry not an object"] = ["jacobian", "div-list-entry.json"]
    cases["plot slopes given as a string"] = ["plot", "pa-string-slopes.json"]
    for command in ("jacobian", "rr"):
        cases[f"{command} sum past the digit limit"] = [command, "div-sum-past-the-limit.json"]
    for command in ("jacobian", "rr"):
        for side in ("outside", "inside"):
            cases[f"{command} repeated point {side} Z[1/p]"] = [command, f"div-repeated-{side}.json"]
    # the usage paths: top-level parser, command parsers, and their errors
    cases["usage no arguments"] = []
    cases["usage -h"] = ["-h"]
    cases["usage --help"] = ["--help"]
    for command in ("legendre", "divisor", "jacobian", "rr", "verify", "plot"):
        cases[f"usage {command} --help"] = [command, "--help"]
    cases["usage unknown command"] = ["nosuch"]
    cases["usage unrecognized argument"] = ["legendre", "poly-3.json", "--bogus"]
    cases["usage missing positional"] = ["rr"]
    cases["usage invalid int"] = ["rr", "div-3.json", "--n-max", "x"]
    cases["usage double dash"] = ["--", "legendre", "poly-3.json"]
    for command in ("divisor", "plot"):
        cases[f"{command} remainder past the digit limit"] = [command,
                                                              "fn-remainder-past-the-limit.json"]
    return cases


CASES = _cases()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_case(argv):
    """(exit code, stdout digest, stderr digest) of one in-process call;
    an argument error or a help request exits through SystemExit, which
    counts as its code.  Help text wraps at the terminal width, pinned here
    to 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, _sha(out.getvalue()), _sha(err.getvalue())


def write_inputs(directory):
    for name, doc in INPUTS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    for name, text in RAW_INPUTS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


GOLDEN = {
    'divisor bottom': (2, 'e3b0c44298fc1c14', '56f9fa95a307a2bc'),
    'divisor broken json': (2, 'e3b0c44298fc1c14', '4e587575c0692d10'),
    'divisor domain of one item': (2, 'e3b0c44298fc1c14', '12765fb8ac170169'),
    'divisor fn-2 json': (0, '9c32da9ed2300cb5', 'e3b0c44298fc1c14'),
    'divisor fn-2 text': (0, '4ba1b8e6e8348da9', 'e3b0c44298fc1c14'),
    'divisor fn-3 json': (0, '2bb82611153e3368', 'e3b0c44298fc1c14'),
    'divisor fn-3 text': (0, 'f3e48334ed3ae015', 'e3b0c44298fc1c14'),
    'divisor fn-5 json': (0, 'c9fadce1157b93a6', 'e3b0c44298fc1c14'),
    'divisor fn-5 text': (0, '6e1f78b87db1a832', 'e3b0c44298fc1c14'),
    'divisor fn-big json': (0, '1a797748a3ec1a04', 'e3b0c44298fc1c14'),
    'divisor fn-big text': (0, 'fd3925ade5ed0f78', 'e3b0c44298fc1c14'),
    'divisor fn-const json': (0, '4ac8524c7dee5e94', 'e3b0c44298fc1c14'),
    'divisor fn-const text': (0, '78cb7a24f89fa6e3', 'e3b0c44298fc1c14'),
    'divisor json array': (2, 'e3b0c44298fc1c14', '8f6075506b23d583'),
    'divisor json beyond the digit limit': (2, 'e3b0c44298fc1c14', '4897184c7dced828'),
    'divisor kinks given as a string': (2, 'e3b0c44298fc1c14', '170b6bffe15caef6'),
    'divisor long p quoted short': (2, 'e3b0c44298fc1c14', '41444955aa93603d'),
    'divisor matching --p': (0, 'f3e48334ed3ae015', 'e3b0c44298fc1c14'),
    'divisor missing file': (2, 'e3b0c44298fc1c14', '038e9f710b24069b'),
    'divisor polygon file': (2, 'e3b0c44298fc1c14', '7b314ade2640655c'),
    'divisor remainder past the digit limit': (2, 'e3b0c44298fc1c14', '9966fc42c5484059'),
    'divisor text beyond the digit limit': (2, 'e3b0c44298fc1c14', '4897184c7dced828'),
    'divisor wrong --p': (2, 'e3b0c44298fc1c14', '57a445ec9cce2c78'),
    'jacobian broken json': (2, 'e3b0c44298fc1c14', '4e587575c0692d10'),
    'jacobian div-2 json': (0, '20e0f2fe7b27ea4e', 'e3b0c44298fc1c14'),
    'jacobian div-2 json witness': (0, 'ddedbfccc07e5831', 'e3b0c44298fc1c14'),
    'jacobian div-2 text': (0, '36076e0da90bf1f3', 'e3b0c44298fc1c14'),
    'jacobian div-2 text witness': (0, '03878dcbab1bab08', 'e3b0c44298fc1c14'),
    'jacobian div-3 json': (0, '8b44598cadaf110e', 'e3b0c44298fc1c14'),
    'jacobian div-3 json witness': (0, '32ec4222226fd326', 'e3b0c44298fc1c14'),
    'jacobian div-3 text': (0, 'a8de6f2b8214fdc9', 'e3b0c44298fc1c14'),
    'jacobian div-3 text witness': (0, '4aa00ef5c548930d', 'e3b0c44298fc1c14'),
    'jacobian div-5 json': (0, 'cb986be19466b27a', 'e3b0c44298fc1c14'),
    'jacobian div-5 json witness': (0, '04c1f3629a911ded', 'e3b0c44298fc1c14'),
    'jacobian div-5 text': (0, '82f480f6ee0003eb', 'e3b0c44298fc1c14'),
    'jacobian div-5 text witness': (0, '78fcd738977188e1', 'e3b0c44298fc1c14'),
    'jacobian div-big json': (0, '1048a74d501d83dd', 'e3b0c44298fc1c14'),
    'jacobian div-big json witness': (0, 'b62f901eb1481795', 'e3b0c44298fc1c14'),
    'jacobian div-big text': (0, '81b14299dda53a5c', 'e3b0c44298fc1c14'),
    'jacobian div-big text witness': (0, '5e983b8befa18b96', 'e3b0c44298fc1c14'),
    'jacobian integer literal beyond the digit limit': (2, 'e3b0c44298fc1c14', '3e0cd295e2fc0fb3'),
    'jacobian json array': (2, 'e3b0c44298fc1c14', '8f6075506b23d583'),
    'jacobian matching --p': (0, 'a8de6f2b8214fdc9', 'e3b0c44298fc1c14'),
    'jacobian missing file': (2, 'e3b0c44298fc1c14', '038e9f710b24069b'),
    'jacobian obs-2 json': (0, '2f445a8fe9c6679c', 'e3b0c44298fc1c14'),
    'jacobian obs-2 text': (0, 'b5c2ef5d61a560ef', 'e3b0c44298fc1c14'),
    'jacobian obs-3 json': (0, '2c03a0be7364caf7', 'e3b0c44298fc1c14'),
    'jacobian obs-3 text': (0, 'facdd1f7757dda11', 'e3b0c44298fc1c14'),
    'jacobian obs-5 json': (0, '87ce53cb63952fa1', 'e3b0c44298fc1c14'),
    'jacobian obs-5 text': (0, 'ff8bd53d1123b671', 'e3b0c44298fc1c14'),
    'jacobian obs-big json': (0, '7d36c90dfa6dba0b', 'e3b0c44298fc1c14'),
    'jacobian obs-big text': (0, '2d1789a2dac19f47', 'e3b0c44298fc1c14'),
    'jacobian repeated point inside Z[1/p]': (0, '2ebb60cc922c6b81', 'e3b0c44298fc1c14'),
    'jacobian repeated point outside Z[1/p]': (2, 'e3b0c44298fc1c14', 'd956b0642fb13539'),
    'jacobian result beyond the digit limit': (2, 'e3b0c44298fc1c14', '4897184c7dced828'),
    'jacobian sum past the digit limit': (2, 'e3b0c44298fc1c14', '4fb312de0b9e8791'),
    'jacobian support entry not an object': (2, 'e3b0c44298fc1c14', '51d6539e88000006'),
    'jacobian wrong --p': (2, 'e3b0c44298fc1c14', '57a445ec9cce2c78'),
    'legendre broken json': (2, 'e3b0c44298fc1c14', '4e587575c0692d10'),
    'legendre every x zero json': (0, '80c13bfcea56a836', 'e3b0c44298fc1c14'),
    'legendre every x zero text': (0, '1f44c6a6b933aebb', 'e3b0c44298fc1c14'),
    'legendre json array': (2, 'e3b0c44298fc1c14', '8f6075506b23d583'),
    'legendre long value quoted short': (2, 'e3b0c44298fc1c14', '933a18739c956f53'),
    'legendre matching --p': (0, '07cc24a450426517', 'e3b0c44298fc1c14'),
    'legendre missing file': (2, 'e3b0c44298fc1c14', '038e9f710b24069b'),
    'legendre only the last vertex outside the group': (2, 'e3b0c44298fc1c14', '78c5829df3b6ec77'),
    'legendre poly-3 json': (0, '98a6811ef3618c9e', 'e3b0c44298fc1c14'),
    'legendre poly-3 svg': (0, '1fe1bcdfafcc232a', 'e3b0c44298fc1c14'),
    'legendre poly-3 text': (0, '07cc24a450426517', 'e3b0c44298fc1c14'),
    'legendre poly-3-scaled json': (0, '3e0d09a59ca70b59', 'e3b0c44298fc1c14'),
    'legendre poly-3-scaled svg': (0, 'f4903e6b02223e28', 'e3b0c44298fc1c14'),
    'legendre poly-3-scaled text': (0, 'c08b14b9700261e7', 'e3b0c44298fc1c14'),
    'legendre poly-5 json': (0, 'c6b3a15dc2e99288', 'e3b0c44298fc1c14'),
    'legendre poly-5 svg': (0, '2b8ff12b32ea227e', 'e3b0c44298fc1c14'),
    'legendre poly-5 text': (0, 'e1713e4b1d13b009', 'e3b0c44298fc1c14'),
    'legendre poly-coprime json': (0, '322a89b3458f1f9c', 'e3b0c44298fc1c14'),
    'legendre poly-z json': (0, 'e2a6c155ff98fd08', 'e3b0c44298fc1c14'),
    'legendre poly-z svg': (0, '83c11a0a7baa23b4', 'e3b0c44298fc1c14'),
    'legendre poly-z text': (0, '6e885e5453163e40', 'e3b0c44298fc1c14'),
    'legendre poly-z-scaled json': (0, 'e4ce44a6ac82805c', 'e3b0c44298fc1c14'),
    'legendre poly-z-scaled svg': (0, 'a5d1a51baaa60119', 'e3b0c44298fc1c14'),
    'legendre poly-z-scaled text': (0, 'c9811ae107bd81f3', 'e3b0c44298fc1c14'),
    'legendre poly-zero json': (0, '136ae5ae31a0c1d4', 'e3b0c44298fc1c14'),
    'legendre poly-zero svg': (0, '62d4d409ef855926', 'e3b0c44298fc1c14'),
    'legendre poly-zero text': (0, '718163a089551561', 'e3b0c44298fc1c14'),
    'legendre svg beyond float precision': (2, 'e3b0c44298fc1c14', '1c06add7fd6c9b54'),
    'legendre vertex of three items': (2, 'e3b0c44298fc1c14', 'c53e9c4e1076340f'),
    'legendre vertex outside the scaled group': (2, 'e3b0c44298fc1c14', '78c5829df3b6ec77'),
    'legendre vertices given as strings': (2, 'e3b0c44298fc1c14', '920ea8678da5298e'),
    'legendre wrong --p': (2, 'e3b0c44298fc1c14', '57a445ec9cce2c78'),
    'plot bad format': (2, 'e3b0c44298fc1c14', '4d879981d285830b'),
    'plot beyond float precision': (2, 'e3b0c44298fc1c14', '1c06add7fd6c9b54'),
    'plot beyond the float range': (2, 'e3b0c44298fc1c14', '1c06add7fd6c9b54'),
    'plot broken json': (2, 'e3b0c44298fc1c14', '4e587575c0692d10'),
    'plot domain given as a string': (2, 'e3b0c44298fc1c14', '12765fb8ac170169'),
    'plot domain within one float': (2, 'e3b0c44298fc1c14', '1c06add7fd6c9b54'),
    'plot fn-2': (0, '118bcbb8fc9bb16a', 'e3b0c44298fc1c14'),
    'plot fn-3': (0, 'a3e75d0f336d93e4', 'e3b0c44298fc1c14'),
    'plot fn-4-kinks': (0, 'e125f48799b34259', 'e3b0c44298fc1c14'),
    'plot fn-5': (0, 'bc3ca59b25176836', 'e3b0c44298fc1c14'),
    'plot fn-big': (0, '01242e1a8593487b', 'e3b0c44298fc1c14'),
    'plot fn-bottom': (0, '07fb3c2ba0d5451f', 'e3b0c44298fc1c14'),
    'plot fn-const': (0, 'fc160bd5c3d550e9', 'e3b0c44298fc1c14'),
    'plot json array': (2, 'e3b0c44298fc1c14', '8f6075506b23d583'),
    'plot missing file': (2, 'e3b0c44298fc1c14', '038e9f710b24069b'),
    'plot pa-1to5': (0, 'f05d5adacff7751a', 'e3b0c44298fc1c14'),
    'plot pa-z': (0, '8d8b3c2de57e5612', 'e3b0c44298fc1c14'),
    'plot remainder past the digit limit': (2, 'e3b0c44298fc1c14', '9966fc42c5484059'),
    'plot slopes given as a string': (2, 'e3b0c44298fc1c14', '2faefe3beb2b7c0f'),
    'rr broken json': (2, 'e3b0c44298fc1c14', '4e587575c0692d10'),
    'rr div-2 csv': (0, 'a5fa215f17fc1f9b', 'e3b0c44298fc1c14'),
    'rr div-2 json': (0, '1bdd2cada793884b', 'e3b0c44298fc1c14'),
    'rr div-2 svg': (0, 'b79c329aa691987f', 'e3b0c44298fc1c14'),
    'rr div-2 text': (0, 'f43638639f3df3b2', 'e3b0c44298fc1c14'),
    'rr div-3 csv': (0, 'a39abc81e7811387', 'e3b0c44298fc1c14'),
    'rr div-3 json': (0, '2da7bcb8368ef190', 'e3b0c44298fc1c14'),
    'rr div-3 svg': (0, '55666859b7b5fad3', 'e3b0c44298fc1c14'),
    'rr div-3 text': (0, '8ee5451bb30f6459', 'e3b0c44298fc1c14'),
    'rr div-5 csv': (0, '582efdc3089f26bc', 'e3b0c44298fc1c14'),
    'rr div-5 json': (0, '3d91779ecab946f2', 'e3b0c44298fc1c14'),
    'rr div-5 svg': (0, 'ca8d410e56edf73a', 'e3b0c44298fc1c14'),
    'rr div-5 text': (0, '0bfa8235d56ba31d', 'e3b0c44298fc1c14'),
    'rr div-big oversized': (2, 'e3b0c44298fc1c14', '87083402d3262544'),
    'rr json array': (2, 'e3b0c44298fc1c14', '8f6075506b23d583'),
    'rr matching --p': (0, 'b4f2228cb14e1a7c', 'e3b0c44298fc1c14'),
    'rr missing file': (2, 'e3b0c44298fc1c14', '038e9f710b24069b'),
    'rr obs-3 csv': (0, '73ed4c39ecaa99b1', 'e3b0c44298fc1c14'),
    'rr obs-3 json': (0, '3e8a71669c25fe20', 'e3b0c44298fc1c14'),
    'rr obs-3 svg': (0, 'bf9e3266dd20d043', 'e3b0c44298fc1c14'),
    'rr obs-3 text': (0, '9c412db43ed8ae1e', 'e3b0c44298fc1c14'),
    'rr obs-5 csv': (0, '8db751689eecf752', 'e3b0c44298fc1c14'),
    'rr obs-5 json': (0, '42194ef0b3bc1ce9', 'e3b0c44298fc1c14'),
    'rr obs-5 svg': (0, '9e2d3ad107e8b28b', 'e3b0c44298fc1c14'),
    'rr obs-5 text': (0, '0b4581290099bba9', 'e3b0c44298fc1c14'),
    'rr obs-big csv': (0, '4a0702d3cc43fc6e', 'e3b0c44298fc1c14'),
    'rr obs-big json': (0, '4e785fe2ba2afa6d', 'e3b0c44298fc1c14'),
    'rr obs-big svg': (0, '9eaea9c22dd70976', 'e3b0c44298fc1c14'),
    'rr obs-big text': (0, '8b4650d02fd45698', 'e3b0c44298fc1c14'),
    'rr repeated point inside Z[1/p]': (0, 'e10436859d3f7929', 'e3b0c44298fc1c14'),
    'rr repeated point outside Z[1/p]': (2, 'e3b0c44298fc1c14', 'd956b0642fb13539'),
    'rr sum past the digit limit': (2, 'e3b0c44298fc1c14', '4fb312de0b9e8791'),
    'rr support given as an object': (2, 'e3b0c44298fc1c14', 'fb2a362089be3ac6'),
    'rr svg beyond the float range': (2, 'e3b0c44298fc1c14', '1c06add7fd6c9b54'),
    'rr wrong --p': (2, 'e3b0c44298fc1c14', '57a445ec9cce2c78'),
    'usage --help': (0, 'fccada82fe5c3692', 'e3b0c44298fc1c14'),
    'usage -h': (0, 'fccada82fe5c3692', 'e3b0c44298fc1c14'),
    'usage divisor --help': (0, '7b7f5364b8fccade', 'e3b0c44298fc1c14'),
    'usage double dash': (0, '07cc24a450426517', 'e3b0c44298fc1c14'),
    'usage invalid int': (2, 'e3b0c44298fc1c14', '14635078e781e97a'),
    'usage jacobian --help': (0, '3d88d0d2021c56a7', 'e3b0c44298fc1c14'),
    'usage legendre --help': (0, '1bc0a3e41fcf3a9d', 'e3b0c44298fc1c14'),
    'usage missing positional': (2, 'e3b0c44298fc1c14', '0151f776c5419dd7'),
    'usage no arguments': (2, 'e3b0c44298fc1c14', '398a71844e12cf11'),
    'usage plot --help': (0, '98fb30bc1452ea3b', 'e3b0c44298fc1c14'),
    'usage rr --help': (0, 'c8b2b67945e12468', 'e3b0c44298fc1c14'),
    'usage unknown command': (2, 'e3b0c44298fc1c14', '6aa8cb38f4599e35'),
    'usage unrecognized argument': (2, 'e3b0c44298fc1c14', '300aaba1799c8a73'),
    'usage verify --help': (0, '468471eb1371ca9a', 'e3b0c44298fc1c14'),
    'verify negative count': (2, 'e3b0c44298fc1c14', 'd5d62f40ed43b5aa'),
    'verify seed 0': (0, '60ef2809f0351947', 'e3b0c44298fc1c14'),
    'verify seed 0 count 1000': (0, '9eb5ab5c2ad50f05', 'e3b0c44298fc1c14'),
    'verify zero count': (0, 'c651cbdaf052c1ff', 'e3b0c44298fc1c14'),
}


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, input_dir, monkeypatch):
    monkeypatch.chdir(input_dir)
    assert run_case(CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        os.chdir(directory)
        rows = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    sys.stdout.write("GOLDEN = {\n")
    for name, row in rows.items():
        sys.stdout.write(f"    {name!r}: {row!r},\n")
    sys.stdout.write("}\n")
    changed = [name for name, row in rows.items() if GOLDEN.get(name) != row]
    for name in changed:
        sys.stderr.write(f"{name}: {GOLDEN.get(name)!r} -> {rows[name]!r}\n")
    sys.stderr.write(f"{len(changed)} of {len(rows)} rows differ from GOLDEN\n")
    sys.exit(1 if changed else 0)
