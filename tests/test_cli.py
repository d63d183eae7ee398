import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lrpictures
from lrpictures import cli, sweeps
from lrpictures.crystal import DecompositionReport

SRC = str(Path(lrpictures.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_coeff(capsys):
    code, out, _ = run(
        capsys, "coeff", "--y", "5,2,1", "--w", "3,2,2,1", "--z", "6,4,2,2,2",
        "--m", "3", "--n", "3",
    )
    assert code == 0
    assert lines(out) == [{"c": 3, "n_super": 3, "equal": True}]


def test_coeff_rejects_non_hook(capsys):
    code, _, err = run(
        capsys, "coeff", "--y", "3,3,3", "--w", "-", "--z", "3,3,3", "--m", "2", "--n", "2"
    )
    assert code == 2
    assert "hook" in err


def test_bad_partition_is_exit_2(capsys):
    code, _, err = run(capsys, "coeff", "--y", "x", "--w", "1", "--z", "1", "--m", "1", "--n", "1")
    assert code == 2
    assert "bad partition" in err


def test_enumerate_ssyt(capsys):
    code, out, _ = run(capsys, "enumerate", "ssyt", "--shape", "2,2", "--max-entry", "2")
    assert code == 0
    assert lines(out) == [{"shape": {"outer": [2, 2], "inner": []}, "rows": [[1, 1], [2, 2]]}]


def test_enumerate_glmn(capsys):
    code, out, _ = run(capsys, "enumerate", "glmn", "--shape", "1,1", "--m", "1", "--n", "1")
    assert code == 0
    assert len(lines(out)) == 2


def test_enumerate_lr_and_map_phihat(capsys, tmp_path):
    code, out, _ = run(
        capsys, "enumerate", "lr", "--y", "5,2,1", "--w", "3,2,2,1", "--z", "6,4,2,2,2"
    )
    assert code == 0
    records = lines(out)
    assert len(records) == 3
    member = tmp_path / "lr_member.json"
    member.write_text(json.dumps(records[0]))
    code, out, _ = run(capsys, "map", "phihat", "--input", str(member))
    assert code == 0
    assert lines(out) == [
        {"shape": {"outer": [3, 2, 2, 1], "inner": []}, "rows": [[1, 2, 2], [3, 4], [4, 5], [5]]}
    ]


def test_map_flag_mismatch_is_exit_2(capsys, tmp_path):
    code, out, _ = run(
        capsys, "enumerate", "lr", "--y", "5,2,1", "--w", "3,2,2,1", "--z", "6,4,2,2,2"
    )
    member = tmp_path / "lr_member.json"
    member.write_text(json.dumps(lines(out)[0]))
    code, _, err = run(capsys, "map", "phihat", "--input", str(member), "--w", "9")
    assert code == 2
    assert "does not match" in err


def test_map_psi_phi_roundtrip(capsys, tmp_path):
    code, out, _ = run(
        capsys, "enumerate", "lrglr", "--y", "2,1", "--w", "2,1", "--z", "3,2,1"
    )
    assert code == 0
    members = lines(out)
    assert len(members) == 2
    for k, member in enumerate(members):
        path = tmp_path / f"member{k}.json"
        path.write_text(json.dumps(member))
        code, out, _ = run(capsys, "map", "psi", "--input", str(path), "--y", "2,1")
        assert code == 0
        pic = lines(out)[0]
        assert pic["domain"] == member["shape"]
        pic_path = tmp_path / f"pic{k}.json"
        pic_path.write_text(json.dumps(pic))
        code, out, _ = run(capsys, "map", "phi", "--input", str(pic_path))
        assert code == 0
        assert lines(out) == [member]


def test_map_omega(capsys, tmp_path):
    code, out, _ = run(
        capsys, "enumerate", "pictures", "--domain", "2,2", "--codomain", "4,3/2,1"
    )
    assert code == 0
    pic = lines(out)[0]
    path = tmp_path / "pic.json"
    path.write_text(json.dumps(pic))
    code, out, _ = run(capsys, "map", "omega", "--input", str(path))
    assert code == 0
    swapped = lines(out)[0]
    assert swapped["domain"] == pic["codomain"]
    assert sorted(tuple(map(tuple, pair)) for pair in swapped["map"]) == sorted(
        (tuple(v), tuple(u)) for u, v in (pair for pair in pic["map"])
    )


def test_map_psi_requires_y(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": {"outer": [1], "inner": []}, "rows": [[1]]}))
    code, _, err = run(capsys, "map", "psi", "--input", str(path))
    assert code == 2
    assert "--y" in err


def test_malformed_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "map", "phi", "--input", str(path))
    assert code == 2
    assert "line 1" in err


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "map", "phi", "--input", "/does/not/exist.json")
    assert code == 2


def test_verify_roundtrip_sweep(capsys):
    code, out, err = run(
        capsys, "verify", "roundtrip", "--max-size", "3", "--orders", "ME,FE"
    )
    assert code == 0
    records = lines(out)
    assert records
    for rec in records:
        assert rec["roundtrip_ok"] is True
        assert rec["c"] == rec["n_super"] == rec["pictures"]
    assert "ok" in err


def test_verify_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "roundtrip", "--max-size", "3", "--orders", "ME")
    _, out2, _ = run(capsys, "verify", "roundtrip", "--max-size", "3", "--orders", "ME")
    assert out1 == out2


def test_verify_parallel_matches_serial(capsys, monkeypatch):
    # 101 triples are two chunks, so two workers start on any host
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    _, out1, _ = run(capsys, "verify", "coefficients", "--max-size", "4")
    _, out2, _ = run(capsys, "verify", "coefficients", "--max-size", "4", "--jobs", "2")
    assert out1 == out2


def test_verify_decompositions(capsys):
    code, out, _ = run(capsys, "verify", "decomposition-glr", "--max-size", "2", "--r", "2")
    assert code == 0
    assert all(rec["pass"] for rec in lines(out))
    code, out, _ = run(
        capsys, "verify", "decomposition-glmn", "--max-size", "2", "--m", "1", "--n", "1"
    )
    assert code == 0
    assert all(rec["pass"] for rec in lines(out))


def test_verify_exit_1_on_failure(capsys, monkeypatch):
    from lrpictures import sweeps

    monkeypatch.setattr(sweeps, "record_ok", lambda rec: False)
    code, _, err = run(capsys, "verify", "coefficients", "--max-size", "2")
    assert code == 1
    assert "0/" in err.splitlines()[-1]


def test_verify_exit_1_when_a_member_maps_nowhere(capsys, refuse_three_cell_members):
    # a verification failure, not bad input: exit 1, and the failing lines print
    code, out, err = run(capsys, "verify", "roundtrip", "--max-size", "3")
    assert code == 1
    passed, total = map(int, err.splitlines()[-1].split()[-2].split("/"))
    assert passed < total
    assert '"roundtrip_ok":false' in out


def test_verify_exit_1_when_only_the_identity_check_fails(capsys, monkeypatch):
    # every count agrees, so the membership test alone fails the triples
    # that have members
    monkeypatch.setattr(sweeps, "is_glmn_lr_tableau", lambda *args: False)
    code, out, err = run(capsys, "verify", "coefficients", "--max-size", "3")
    assert code == 1
    records = lines(out)
    assert all(rec["c"] == rec["n_super"] == rec["pictures"] for rec in records)
    with_members = sum(rec["c"] > 0 for rec in records)
    assert with_members and err.splitlines()[-1] == f"coefficients: {len(records) - with_members}/{len(records)} ok"


def test_verify_coefficients_exit_1_when_a_picture_is_missing(capsys, monkeypatch):
    # coefficients checks no round trip, so the picture count alone sees a
    # picture search one short: every triple with members fails
    real = sweeps.enumerate_pictures
    monkeypatch.setattr(sweeps, "enumerate_pictures", lambda *args: real(*args)[1:])
    code, out, err = run(capsys, "verify", "coefficients", "--max-size", "3")
    assert code == 1
    records = lines(out)
    assert all(rec["c"] == rec["n_super"] == rec["pictures"] + 1 for rec in records if rec["c"])
    with_members = sum(rec["c"] > 0 for rec in records)
    assert with_members and err.splitlines()[-1] == f"coefficients: {len(records) - with_members}/{len(records)} ok"


def test_verify_order_independence_exit_1_when_one_order_differs(capsys, swap_one_member_under_fe):
    # FE reads a family that differs from ME's in one member and has as many,
    # so order_independent alone fails those triples
    assert run(capsys, "verify", "order-independence", "--max-size", "5", "--orders", "ME,FE")[0] == 0
    swap_one_member_under_fe()
    code, out, err = run(capsys, "verify", "order-independence", "--max-size", "5", "--orders", "ME,FE")
    assert code == 1
    records = lines(out)
    assert all(rec["c"] == rec["n_super"] for rec in records)
    assert any(not rec["order_independent"] for rec in records)
    passed, total = map(int, err.splitlines()[-1].split()[-2].split("/"))
    assert passed < total


@pytest.mark.parametrize(
    "orders, fields",
    [
        ("ME,seed:\t3", ['"ME"', '"seed:\\t3"']),
        ("seed:\u0663", ['"seed:\\u0663"']),  # an Arabic-Indic 3: the line escapes non-ASCII
        ("seed:1_0", ['"seed:1_0"']),
        ("seed: 3", ['"seed: 3"']),
    ],
)
def test_a_sweep_line_echoes_its_order_spec_as_typed(capsys, orders, fields):
    # parse_order_spec takes whatever int() takes after "seed:", and each
    # line names its spec as typed, JSON-escaped: these are its exact bytes
    code, out, _ = run(capsys, "verify", "roundtrip", "--max-size", "0", "--orders", orders)
    assert code == 0
    assert re.findall(r'"order":("(?:[^"\\]|\\.)*")', out) == fields


def test_order_file_is_honored(capsys, tmp_path):
    path = tmp_path / "order.json"
    # far-eastern order on the column (1,1), written out by hand
    path.write_text(json.dumps([[1, 1], [2, 1]]))
    code, out, _ = run(
        capsys, "enumerate", "lr", "--y", "-", "--w", "1,1", "--z", "1,1",
        "--order", f"@{path}",
    )
    assert code == 0
    assert len(lines(out)) == 1
    # an inadmissible explicit order is refused
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[1, 1], [1, 2]]))
    code, _, err = run(
        capsys, "enumerate", "lr", "--y", "-", "--w", "2", "--z", "2",
        "--order", f"@{bad}",
    )
    assert code == 2
    assert "admissible" in err


# modules that no command needs at start-up: the process pool (multiprocessing,
# logging) and dataclasses (inspect)
HEAVY_MODULES = ("dataclasses", "inspect", "logging", "concurrent.futures", "multiprocessing")


def _newly_loaded(code: str) -> set:
    """The modules of HEAVY_MODULES that ``code`` loads in a bare interpreter.

    The interpreter's own start-up, site packages included, is the baseline:
    only what ``code`` adds to ``sys.modules`` counts."""
    script = (
        "import sys; before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split()) & set(HEAVY_MODULES)


def test_importing_the_cli_loads_no_heavy_module():
    assert _newly_loaded("import lrpictures.cli") == set()


def test_a_sweep_in_process_never_imports_the_pool():
    # one job, and one chunk at any job count, run in this process
    code = (
        "from lrpictures import sweeps\n"
        "triples = sweeps.straight_triples(3)\n"
        "assert all(map(sweeps.record_ok, sweeps.run_sweep(triples, jobs=1)))\n"
        "assert all(map(sweeps.record_ok, sweeps.run_sweep(triples, jobs=4)))"
    )
    assert _newly_loaded(code) == set()


def test_deeply_nested_json_is_exit_2(tmp_path):
    # json.load gives up with RecursionError long before 100,000 levels
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-c", "from lrpictures.cli import main; main()",
         "render", "--input", str(path)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "nested too deeply" in proc.stderr


def test_deeply_nested_json_is_exit_2_in_process(capsys, tmp_path):
    # the text is written as it is: json.dumps of so deep a list recurses too
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "map", "omega", "--input", str(path))
    assert code == 2
    assert out == ""
    assert f"{path}: JSON nested too deeply" in err


def test_picture_search_is_not_bounded_by_the_recursion_limit():
    # 1100 cells is deeper than Python's default recursion limit of 1000
    proc = subprocess.run(
        [sys.executable, "-c", "from lrpictures.cli import main; main()",
         "enumerate", "pictures", "--domain", "1100", "--codomain", "1100"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (picture,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(picture["map"]) == 1100
    assert "Traceback" not in proc.stderr


def test_repeated_map_cell_is_exit_2(capsys, tmp_path):
    one = {"outer": [1]}
    path = tmp_path / "pic.json"
    path.write_text(json.dumps({"domain": one, "codomain": one, "map": [[[1, 1], [1, 1]]] * 2}))
    code, out, err = run(capsys, "map", "phi", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "twice" in err


ROW2 = {"outer": [2], "inner": []}
# the identity on a row: a bijection whose phi image, [[1,1]], is an LR
# member, but not an admissible picture
ROW2_IDENTITY = {"domain": ROW2, "codomain": ROW2, "map": [[[1, 1], [1, 1]], [[1, 2], [1, 2]]]}


@pytest.mark.parametrize(
    "argv, given, named",
    [
        ("map phi --input FILE", ROW2_IDENTITY, "picture_to_tableau input is not an admissible picture"),
        ("map phitilde --input FILE", ROW2_IDENTITY, "picture_to_tableau input is not an admissible picture"),
        # a decreasing row, whose companion is that of the member [[1],[1,2]]
        ("map phihat --input FILE", {"shape": {"outer": [3, 2], "inner": [2]}, "rows": [[1], [2, 1]]},
         "companion_tableau input is not a two-family LR member"),
        ("map psi --y - --input FILE", {"shape": {"outer": [2, 1], "inner": []}, "rows": [[2, 1], [1]]},
         "tableau_to_picture output is not an admissible picture"),
        ("map omega --input FILE", {"domain": ROW2, "codomain": ROW2, "map": {"a": 1}},
         "'map' must be an array of cell pairs"),
        ("enumerate pictures --domain 2 --codomain 2 --order2 @FILE", [[1, 1]],
         "a_prime is not an admissible order on the domain"),
        ("enumerate ssyt --shape 2/3 --max-entry 2", None, "bad shape '2/3'"),
        # a repeat in column 1, then a row whose reading is not a lattice word:
        # the input check runs before the map
        ("map phihat --input FILE", {"shape": {"outer": [2, 1], "inner": []}, "rows": [[1, 2], [1]]},
         "companion_tableau input is not a two-family LR member"),
        ("map phihat --input FILE", {"shape": {"outer": [2], "inner": []}, "rows": [[1, 2]]},
         "companion_tableau input is not a two-family LR member"),
        # a content of (0, 2) is no partition, so the reading is no lattice word
        ("map phihat --input FILE", {"shape": {"outer": [2], "inner": []}, "rows": [[2, 2]]},
         "companion_tableau input is not a two-family LR member"),
        # no shape has at most -1 rows; the bound is refused before any check runs
        ("verify decomposition-glr --max-size 2 --r -1", None, "max_rows must be nonnegative"),
        # a seed and its negative draw alike, so each list names one order twice
        ("verify order-independence --max-size 3 --orders seed:3,seed:-3", None, "two distinct order specs"),
        ("verify order-independence --max-size 3 --seed 5 --orders seed:-10,seed:0", None, "two distinct order specs"),
        # a barred entry fails the membership check, which runs before content(q) and before --w is read
        ("map phihat --input FILE", {"shape": {"outer": [1], "inner": []}, "rows": [[-1]]},
         "companion_tableau input is not a two-family LR member"),
        ("map phihat --w 1 --input FILE", {"shape": {"outer": [1], "inner": []}, "rows": [[-1]]},
         "companion_tableau input is not a two-family LR member"),
    ],
)
def test_inputs_the_library_refuses_are_exit_2(capsys, tmp_path, argv, given, named):
    # FILE names a file holding ``given``
    path = tmp_path / "given.json"
    path.write_text(json.dumps(given))
    code, out, err = run(capsys, *argv.replace("FILE", str(path)).split())
    assert code == 2
    assert out == ""
    assert named in err


def test_render_cli(capsys, tmp_path):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps([2, 1]))
    code, out, _ = run(capsys, "render", "--input", str(path))
    assert code == 0
    assert "+---+---+" in out
    path.write_text(json.dumps({"shape": {"outer": [1], "inner": []}, "rows": [[1]]}))
    code, out, _ = run(capsys, "render", "--input", str(path))
    assert code == 0
    assert "| 1 |" in out
    path.write_text(json.dumps(42))
    code, _, err = run(capsys, "render", "--input", str(path))
    assert code == 2


def test_usage_error_is_exit_2(capsys):
    code, _, _ = run(capsys, "enumerate", "ssyt", "--shape", "2,2")
    assert code == 2
    code, _, _ = run(capsys, "nope")
    assert code == 2


@pytest.mark.parametrize(
    "what",
    ["roundtrip", "order-independence", "coefficients", "decomposition-glr", "decomposition-glmn"],
)
def test_vacuous_sweep_is_exit_2(capsys, what):
    # a sweep that checks nothing is not a pass
    code, out, err = run(capsys, "verify", what, "--max-size", "-1")
    assert code == 2
    assert out == ""
    assert "nothing to check" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_exit_2(capsys, monkeypatch, jobs):
    # a worker count below 1 is bad input, whatever the sweep that takes --jobs,
    # refused before the walk over the triples or the hook filter runs
    def walk(max_z):
        raise AssertionError("the triples were walked before --jobs was checked")

    monkeypatch.setattr(sweeps, "straight_triples", walk)
    for what in ("roundtrip", "coefficients"):
        code, out, err = run(capsys, "verify", what, "--max-size", "2", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "jobs must be at least 1" in err


def test_empty_orders_list_is_exit_2(capsys):
    # like --orders ",": an empty spec is refused, not replaced by the defaults
    code, out, err = run(capsys, "verify", "roundtrip", "--max-size", "2", "--orders", "")
    assert code == 2
    assert out == ""
    assert "unknown order spec ''" in err


@pytest.mark.parametrize("orders", ["ME", "ME,ME", "seed:0,seed:00", "seed:1,seed:+1"])
def test_order_independence_of_one_spec_is_exit_2(capsys, orders):
    # one distinct spec compares nothing, so it is not a pass
    code, out, err = run(capsys, "verify", "order-independence", "--max-size", "3", "--orders", orders)
    assert code == 2
    assert out == ""
    assert "two distinct order specs" in err


@pytest.mark.parametrize("orders", ["bogus", "ME,bogus"])
def test_order_independence_names_an_unknown_spec(capsys, orders):
    code, out, err = run(capsys, "verify", "order-independence", "--max-size", "3", "--orders", orders)
    assert code == 2
    assert out == ""
    assert "unknown order spec 'bogus'" in err


@pytest.mark.parametrize("what", ["coefficients", "decomposition-glr", "decomposition-glmn"])
def test_verify_refuses_orders_where_unused(capsys, what):
    code, out, err = run(capsys, "verify", what, "--max-size", "2", "--orders", "ME")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --orders ME" in err


# the options each verify mode and each map reads, written out here apart from the parser
VERIFY_READS = {
    "roundtrip": {"--orders", "--seed", "--jobs"},
    "order-independence": {"--orders", "--seed", "--jobs"},
    "coefficients": {"--m", "--n", "--jobs"},
    "decomposition-glr": {"--r"},
    "decomposition-glmn": {"--m", "--n"},
}
MAP_READS = {
    "phi": {"--y", "--z"},
    "psi": {"--y", "--z"},
    "phitilde": {"--y", "--z"},
    "psitilde": {"--y", "--z"},
    "phihat": {"--y", "--w", "--z"},
    "omega": set(),
}
UNREAD = [
    (("verify", what, "--max-size", "1"), option, "ME" if option == "--orders" else "1")
    for what, reads in VERIFY_READS.items()
    for option in sorted(set().union(*VERIFY_READS.values()) - reads)
] + [
    (("map", name, "--input", "-", *(("--y", "1") if name == "psi" else ())), option, "1")
    for name, reads in MAP_READS.items()
    for option in sorted({"--y", "--w", "--z"} - reads)
]


@pytest.mark.parametrize(("command", "option", "value"), UNREAD, ids=[f"{c[1]} {o}" for c, o, _ in UNREAD])
def test_an_option_the_command_does_not_read_is_exit_2(capsys, command, option, value):
    # each verify mode and each map takes only the options its code reads;
    # any other is refused before anything is read or written
    code, out, err = run(capsys, *command, option, value)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {option} {value}" in err


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        # once accepted: printed "m":5,"n":7 in every line, though round-trips check no hook
        ("verify roundtrip --max-size 1 --m 5 --n 7 --r 9", "unrecognized arguments: --m 5 --n 7 --r 9"),
        # once accepted: one process and no seed, whatever was asked
        ("verify decomposition-glr --max-size 1 --jobs 2 --seed 4 --m 9", "unrecognized arguments: --jobs 2 --seed 4 --m 9"),
        # no option is known by a prefix: --max was once read as --max-size
        ("verify roundtrip --max 2", "required: --max-size"),
        ("verify roundtrip --max-size 1 --max 2", "unrecognized arguments: --max 2"),
        ("verify coefficients --max-size 1 --jo 2", "unrecognized arguments: --jo 2"),
        # options follow the mode name
        ("verify --max-size 1 roundtrip", "invalid choice: '1'"),
    ],
)
def test_refused_command_lines_write_nothing(capsys, argv, named):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert named in err


# sha256 of every -h page at COLUMNS=80, as argparse lays it out on Python 3.11:
# the program's, each command's and each leaf's. Each Python whose argparse lays
# a page out otherwise gets its own pin for that page, below
HELP_PAGES = {
    "": "ae98d8ec0c812a2eff6415a326f6169a79ba793c24a4326697a2d5b72ffbba56",
    "coeff": "5d3c285a2d019050fd4ffa00ceca0da2b25854c520a0f0335250af6f02e37aa5",
    "enumerate": "fb1532e03e75754308192bd460869d2aee1b57add9706a4c77bc6979cdc8bf07",
    "map": "4d5b1b8529c560745b29054e3350dff32d07530951dabc5d30d5466d85c0eb1a",
    "verify": "30e85b037e0a2df3689939e6afb6716c72464f93b0488ee49a639efed4ad7151",
    "render": "992bed7438fd2d0e414a9a29459b976cca74368ecbed953db21940740e2d3ac4",
    "enumerate ssyt": "9ef78caa4d8a0f4ab814a1debe28c75b3c820e89942c927db66a6894b4057e26",
    "enumerate glmn": "5d7a93e72b9c1ecc93017c5d8a7d88f4339108aff91cd3013ab7bc726686966a",
    "enumerate lr": "e5f2f4553b0505c9f98924946f326c44b5829dd912b3a38d69334f31f584bbc1",
    "enumerate lrglr": "fe27e26c3ea00f8931b6de8476a7916bba82d7918c47a3897d5cf1d69fc216bb",
    "enumerate pictures": "aa6cff8d87cd716d06b1e29728d67b89a917fe88a54dace2fee4d647af9bed3c",
    "map phi": "7556745680c004664a10a144055f7821d609006f98f9f179bf66897f072a243e",
    "map psi": "156881eabd30f850417835683cc52bcc60b199e5bcccd2bf45ac74ee2dac83ad",
    "map phitilde": "e659adb9261b7b2f527ef04442a4a487f5045dae9723f3a44d317bd9428187f2",
    "map psitilde": "69cd2d0a0b53c46ee072efaa6fe50b6361f535194312996e61b5acce82666624",
    "map phihat": "c3e55ee4da27dae26b28b7a53e71f8a3e16796eb3844bbe501a12f13e986ff2b",
    "map omega": "88b25ef4c280068c12869a4cba1b4adbaba0ffabf7111a213f2c0b095d40c336",
    "verify roundtrip": "47102abd294dba91b07efc8b57b5fa2c30cab3152fb40b93d840c92ccc5b9dbd",
    "verify order-independence": "b6c0f574ef70a4b803e06d5922154ccf53c13ee5f11398bb68bbec35497bd35f",
    "verify coefficients": "a2dedbf84b100a141883e0083c385392fee052def89e818b6e42652bf340220b",
    "verify decomposition-glr": "e24c84763b8ca9751e9fd624bdd7414309afc007a64e8d9f5b2cb713748eaec4",
    "verify decomposition-glmn": "51f8288698cc0bd5440a1897ca61f8561bec625bad2cd19155ac382e0e083760",
}
if sys.version_info >= (3, 13):  # the "..." of the usage stays on the line of the mode choices
    HELP_PAGES["verify"] = "a3b7a963dda2173c3b0b27b3c92f0d23de724b59087e66880f3db5ba4e810ce7"


@pytest.mark.parametrize("command", list(HELP_PAGES), ids=lambda c: c or "lrpictures")
def test_help_pages_are_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *command.split(), "-h")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_PAGES[command]


TOP_USAGE = "usage: lrpictures [-h] {coeff,enumerate,map,verify,render} ...\n"
NOT_A_COMMAND = (
    TOP_USAGE + "lrpictures: error: argument command: invalid choice: '1' "
    "(choose from 'coeff', 'enumerate', 'map', 'verify', 'render')\n"
)


@pytest.mark.parametrize(
    ("argv", "expect_err"),
    [
        # the option's value is read as the command
        ("--y 1 coeff --w 1 --z 2 --m 1 --n 1", NOT_A_COMMAND),
        ("--max-size 1 verify roundtrip", NOT_A_COMMAND),
        # no value word: coeff runs and misses the --y it was given too early
        (
            "--y=1 coeff --w 1 --z 2 --m 1 --n 1",
            "usage: lrpictures coeff [-h] --y Y --w W --z Z --m M --n N\n"
            "lrpictures coeff: error: the following arguments are required: --y\n",
        ),
    ],
)
def test_an_option_before_its_command_is_exit_2(capsys, monkeypatch, argv, expect_err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv.split()) == (2, "", expect_err)


def test_verify_counts_a_decomposition_failure(capsys, monkeypatch):
    real = cli.verify_decomposition_glr

    def fail_one_pair(y, w, r):
        report = real(y, w, r)
        if (y, w) != ((1,), (1,)):
            return report
        return DecompositionReport(report.lhs_card, report.rhs_card, report.per_shape, False)

    monkeypatch.setattr(cli, "verify_decomposition_glr", fail_one_pair)
    code, out, err = run(capsys, "verify", "decomposition-glr", "--max-size", "2", "--r", "2")
    assert code == 1
    records = lines(out)
    assert err.splitlines()[-1] == f"decomposition-glr: {len(records) - 1}/{len(records)} ok"
    assert [(rec["y"], rec["w"]) for rec in records if not rec["pass"]] == [([1], [1])]


@pytest.mark.parametrize("spec", ["seed:x", "seed:"])
def test_bad_seed_spec_is_named(capsys, spec):
    code, out, err = run(capsys, "verify", "roundtrip", "--max-size", "2", "--orders", spec)
    assert code == 2
    assert out == ""
    assert f"unknown order spec {spec!r}" in err


@pytest.mark.parametrize("module", ["lrpictures", "lrpictures.cli"])
def test_python_dash_m_runs_the_cli(module):
    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
        )

    proc = run_module("coeff", "--y", "1", "--w", "1", "--z", "2", "--m", "1", "--n", "1")
    assert proc.returncode == 0, proc.stderr
    assert lines(proc.stdout) == [{"c": 1, "n_super": 1, "equal": True}]
    proc = run_module("verify", "roundtrip", "--max-size", "-1")
    assert proc.returncode == 2
    assert "nothing to check" in proc.stderr


def test_negative_max_entry_is_exit_2(capsys):
    code, out, err = run(
        capsys, "enumerate", "lrglr", "--y", "1", "--w", "1", "--z", "2", "--max-entry", "-3"
    )
    assert code == 2
    assert out == ""
    assert "max_entry" in err


def test_closed_stdout_is_not_a_failure():
    # like `lrpictures enumerate ssyt ... | head -1`: the reader leaves after one
    # line, long before the 8 MB of output is written
    proc = subprocess.Popen(
        [sys.executable, "-c", "from lrpictures.cli import main; main()",
         "enumerate", "ssyt", "--shape", "6,5,4", "--max-entry", "6"],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait()
    assert json.loads(first)["rows"] == [[1] * 6, [2] * 5, [3] * 4]
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
    assert code != 1


class WriteRecorder:
    """A stand-in for ``sys.stdout`` that keeps each write, and for each flush
    the number of writes before it."""

    def __init__(self):
        self.writes = []
        self.flushed_after = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        self.flushed_after.append(len(self.writes))


B = cli._BATCH


@pytest.mark.parametrize(
    "count, writes", [(0, 0), (1, 1), (2, 2), (B, 2), (B + 1, 2), (B + 2, 3), (2 * B + 2, 4)]
)
def test_write_sends_the_first_line_alone_then_batches(count, writes, monkeypatch):
    out = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    given = [f"line {k}\n" for k in range(count)]
    cli._write(iter(given))
    assert "".join(out.writes) == "".join(given)
    assert out.writes[:1] == given[:1]
    assert len(out.writes) == writes


def test_write_flushes_the_first_line_on_its_own(monkeypatch):
    # the first line leaves at once, however stdout is buffered; the rest waits
    out = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    cli._write(iter(["a\n", "b\n", "c\n"]))
    assert out.writes == ["a\n", "b\nc\n"]
    assert out.flushed_after == [1]


def test_every_command_writes_through_one_writer(monkeypatch, tmp_path):
    # 144 lines leave in two writes: the first line alone, then one batch
    out = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.run(["verify", "decomposition-glmn", "--max-size", "4", "--m", "2", "--n", "1"]) == 0
    assert len(out.writes) == 2
    assert out.writes[0].count("\n") == 1
    assert "".join(out.writes).count("\n") == 144
    out.writes.clear()
    assert cli.run(["coeff", "--y", "1", "--w", "1", "--z", "2", "--m", "1", "--n", "1"]) == 0
    assert out.writes == ['{"c":1,"n_super":1,"equal":true}\n']
    out.writes.clear()
    path = tmp_path / "shape.json"
    path.write_text(json.dumps([2, 1]))
    assert cli.run(["render", "--input", str(path)]) == 0
    assert len(out.writes) == 1


def test_cli_import_leaves_numpy_and_numba_out():
    code = "import sys, lrpictures.cli; print(sorted({'numpy', 'numba'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
