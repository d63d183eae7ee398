"""CLI stdout against recorded sha256 digests.

Stdout is part of the contract: identical input gives byte-identical output,
across releases as well as across runs.  Each case runs one command in
process through ``cli.run`` and compares the exit code and the sha256 of
everything it wrote to stdout with the values recorded for it.  Together the
cases cover every ``enumerate`` family, every order kind (ME, FE,
``seed:<n>``, ``@file``), ``coeff``, five maps and four drawings (of a
picture, a tableau and a shape) fed on stdin and seven ``verify`` sweeps.
A case whose output is meant to change gets its digest re-recorded in the
same change, with the reason.
"""

import argparse
import hashlib
import io
import json

import pytest

from lrpictures import cli

# an admissible order on the cells of (3, 3) that is neither ME nor FE
ORDER_FILE = [[1, 3], [1, 2], [2, 3], [2, 2], [1, 1], [2, 1]]

# a two-family LR tableau of y=(2,1), w=(2,1), z=(3,2,1), as `enumerate lr` prints it
LR_MEMBER = '{"shape":{"outer":[3,2,1],"inner":[2,1]},"rows":[[1],[1],[2]]}\n'

# the first line of `enumerate pictures --domain 3,3 --codomain 4,3,2/2,1 --order seed:1`
PICTURE = (
    '{"domain":{"outer":[3,3],"inner":[]},"codomain":{"outer":[4,3,2],"inner":[2,1]},'
    '"map":[[[1,1],[1,4]],[[1,2],[1,3]],[[1,3],[2,2]],[[2,1],[2,3]],[[2,2],[3,2]],[[2,3],[3,1]]]}\n'
)

# a classical LR tableau of y=(2,1), w=(3,3), z=(4,3,2)
GLR_MEMBER = '{"shape":{"outer":[3,3],"inner":[]},"rows":[[1,1,2],[2,3,3]]}\n'

# `map psitilde` of LR_MEMBER: a picture from its shape (3,2,1)/(2,1) onto w = (2,1)
PSITILDE = (
    '{"domain":{"outer":[3,2,1],"inner":[2,1]},"codomain":{"outer":[2,1],"inner":[]},'
    '"map":[[[1,3],[1,1]],[[2,2],[1,2]],[[3,1],[2,1]]]}\n'
)

# (command, stdin, exit code, sha256 of stdout)
CASES = {
    "enumerate ssyt": (
        "enumerate ssyt --shape 3,2/1 --max-entry 3", None, 0,
        "43934d151d868e19d2ff855df49fe12bd7b83c9a1d6242e122be664895685ed0",
    ),
    "enumerate glmn": (
        "enumerate glmn --shape 2,2 --m 1 --n 2", None, 0,
        "2c2c231935fa570047f2a89c4cc4e8168f24bc4718a4fa98c99605312ae7353c",
    ),
    "enumerate lr, ME by default": (
        "enumerate lr --y 3,2,1 --w 3,2,1 --z 5,4,2,1", None, 0,
        "058f5b4925e07231695c1e0ccebb0f986afa2b8cb3bf240d187bdb8bbcc6054f",
    ),
    "enumerate lr, FE": (
        "enumerate lr --y 3,2,1 --w 3,2,1 --z 5,4,2,1 --order FE", None, 0,
        "058f5b4925e07231695c1e0ccebb0f986afa2b8cb3bf240d187bdb8bbcc6054f",
    ),
    "enumerate lrglr, seed order on a skew shape": (
        "enumerate lrglr --y 2,1 --w 3,2/1 --z 4,2,1 --order seed:3 --seed 2", None, 0,
        "3946bba1b99f26689375a0ddf38710a30ded360ec101ed9145b865229041e3ae",
    ),
    "enumerate lrglr, @file": (
        "enumerate lrglr --y 2,1 --w 3,3 --z 4,3,2 --order @{order}", None, 0,
        "d8e7fd563b97efd8dd7a648d4c679d62a4e259ba089e6103aa212f0c8f0bc15b",
    ),
    # entries never exceed len(z) = 3, and z/y has no box in row 3, so a cap
    # below and a cap above len(z) both print the whole family
    "enumerate lrglr, max entry below len(z)": (
        "enumerate lrglr --y 3,1,1 --w 3,2/1 --z 5,3,1 --max-entry 2", None, 0,
        "ddb5d5f704796b3e6499db4e3ab68480a461c296f09c70186f8a926256e690b9",
    ),
    "enumerate lrglr, max entry above len(z)": (
        "enumerate lrglr --y 3,1,1 --w 3,2/1 --z 5,3,1 --max-entry 5", None, 0,
        "ddb5d5f704796b3e6499db4e3ab68480a461c296f09c70186f8a926256e690b9",
    ),
    "enumerate pictures, seed and @file": (
        "enumerate pictures --domain 3,3 --codomain 4,3,2/2,1 --order seed:1 --order2 @{order}",
        None, 0,
        "cff87f7d724afceb4f936d642d754c300979ef948539299b7db28b32372c29b3",
    ),
    "map omega on stdin": (
        "map omega --input -", PICTURE, 0,
        "1fa785cce6f0ab5257d96d34fbfa3527b93ac81ebf7972864a28d496f83a37f1",
    ),
    # psi sends the member to the picture above, so the two print the same line
    "map psi on stdin": (
        "map psi --y 2,1 --input -", GLR_MEMBER, 0,
        "cff87f7d724afceb4f936d642d754c300979ef948539299b7db28b32372c29b3",
    ),
    "render a picture": (
        "render --input -", PICTURE, 0,
        "7b4f35d46905c4750a5ef2eea98d05cd42da6a85308c7e4c73f643a61bbd18f1",
    ),
    "render a picture, unicode": (
        "render --input - --render unicode", PICTURE, 0,
        "9dc6e8604acab31eddb40b53f0a884234c2a1497fa8938d31880d99d71aef9f0",
    ),
    "map psitilde on stdin": (
        "map psitilde --input -", LR_MEMBER, 0,
        "d6e1d9191ddfb36b86f9c75169353c84e52697c2ea1e5ba07bba3c57b5293635",
    ),
    # phitilde takes the picture above back to LR_MEMBER
    "map phitilde on stdin": (
        "map phitilde --input -", PSITILDE, 0,
        "daad6c180ffeb13d627aaeeaaf6b72aa2d3e376477fbdace6cda212554053ba7",
    ),
    # a skew tableau: the cells of the inner shape are drawn blank
    "render a tableau": (
        "render --input -", LR_MEMBER, 0,
        "875819df343dac03117979b45f443fc71ad96e45d40fdee26514ab7aed3ff2f3",
    ),
    "render a skew shape object": (
        "render --input -", '{"outer":[3,2,1],"inner":[2,1]}', 0,
        "85145d823f3bd7ffa67d25ae0463703d884dda7c06211c8934012e8c16ab5079",
    ),
    "coeff": (
        "coeff --y 2,1 --w 2,1 --z 3,2,1 --m 2 --n 2", None, 0,
        "7c57724cf0b72b8b5efb0835ff783a1efe29760c5f3c1bc2ae21e303344fe07d",
    ),
    "map phihat on stdin": (
        "map phihat --input -", LR_MEMBER, 0,
        "616ffb4ec2d5dd024c312518de66dbcd263ace811661870d42272ed9b02878a2",
    ),
    "verify roundtrip": (
        "verify roundtrip --max-size 4", None, 0,
        "4baaa4f22ed0bfaca2a2d5eff059e07614fc0dfcb93351382a1333b100787b96",
    ),
    # one line per spec, in spec order, also for specs that name the same order
    "verify roundtrip, repeated specs": (
        "verify roundtrip --max-size 5 --orders ME,FE,ME,seed:0,seed:0", None, 0,
        "4f890ee782dc7d87aba2ee1d8fdaef0dba9057e2bd270fcd1814ee4cc50d3688",
    ),
    "verify decomposition-glmn": (
        "verify decomposition-glmn --max-size 3 --m 1 --n 1", None, 0,
        "9184dba4b4417ff2675061662a1937d4fee0f165b8fb3c8bce0d78794406a6ec",
    ),
    "verify decomposition-glr, r = 3": (
        "verify decomposition-glr --max-size 3 --r 3", None, 0,
        "fc2507a661c75ac1a099222d5d66a7983a7614837f760581afd577960db2cb38",
    ),
    "verify decomposition-glmn, a (2,1) hook": (
        "verify decomposition-glmn --max-size 4 --m 2 --n 1", None, 0,
        "16d704c35032aae7b92a4f32548191a843427586e742d0806c3a6aac0cec00dd",
    ),
    "verify order-independence": (
        "verify order-independence --max-size 5", None, 0,
        "b6ac2c166110fc34a9b9899aa1e4c264d4cbd5c3152a19b15f6c7c2bf9fa8306",
    ),
    "verify coefficients, a (1,1) hook": (
        "verify coefficients --max-size 6 --m 1 --n 1", None, 0,
        "4219333e6dd1bc006a9377913bd51834918f5830a7484fef794cb9c9a80b938c",
    ),
    # 16 pictures onto a staircase strip, under a seeded order and FE
    "enumerate pictures, seed and FE": (
        "enumerate pictures --domain 3,2,1 --codomain 6,5,4,3,2,1/5,4,3,2,1 --order seed:2 --order2 FE",
        None, 0,
        "acb2ad92c18853c481c2851f7908c6b72322c319deb703de9f7e81ea943e1184",
    ),
    # 2,970 pictures onto a 12-cell staircase strip: the strip has no neighbour
    # pairs, so the search runs from it and inverts what it finds
    "enumerate pictures, onto a 12-cell strip": (
        "enumerate pictures --domain 4,4,3,1"
        " --codomain 12,11,10,9,8,7,6,5,4,3,2,1/11,10,9,8,7,6,5,4,3,2,1",
        None, 0,
        "b44a3632f6d10e1fd6effabc4b42b81bef73e2b92f87c1b59893638e89defc0d",
    ),
    # 768 pictures from a 10-cell strip: the search runs from the strip as it is
    "enumerate pictures, from a 10-cell strip": (
        "enumerate pictures --domain 10,9,8,7,6,5,4,3,2,1/9,8,7,6,5,4,3,2,1"
        " --codomain 4,3,2,1 --order seed:5",
        None, 0,
        "a09745ca2cc7fe147a95effd6ef5c7c9b1dce63308bc2826affe5e24b239d1b2",
    ),
}


def run_case(command, stdin, tmp_path, capsys, monkeypatch):
    """Exit code and stdout of one CLI command run in this process."""
    order = tmp_path / "order.json"
    order.write_text(json.dumps(ORDER_FILE))
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    code = cli.run(command.format(order=order).split())
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", list(CASES))
def test_cli_stdout_matches_recorded_digest(name, tmp_path, capsys, monkeypatch):
    command, stdin, expect_code, expect_digest = CASES[name]
    code, out = run_case(command, stdin, tmp_path, capsys, monkeypatch)
    assert code == expect_code
    assert out, "a recorded command prints something"
    assert hashlib.sha256(out.encode()).hexdigest() == expect_digest


@pytest.mark.parametrize("name", list(CASES))
def test_a_command_line_builds_only_the_options_it_names(name, tmp_path, monkeypatch):
    # argparse builds a help formatter on each add_argument; a run pays for
    # the -h of the program, of each command and of the named command's
    # leaves, and for the options of the one command or leaf it runs
    calls = []
    real = argparse._ActionsContainer.add_argument

    def spy(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
    argv = CASES[name][0].format(order=tmp_path / "order.json").split()
    cli.build_parser(argv).parse_args(argv)
    assert len(calls) <= 18
