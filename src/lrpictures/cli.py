"""Command line entry point.

Exit codes: 0 on success, 1 when a verification finds a violated invariant,
2 on malformed input or usage errors. One table, ``_COMMANDS``, gives each
command, map and verify mode the options it reads and no others, spelled in
full after its name (psi requires --y); a run builds the parser of its own
command only. Any other option is a usage error, refused before any output. All
mathematical output goes to stdout as JSON (one object per line for
enumerations and sweeps); identical inputs produce byte-identical output.
Every command writes through one writer, ``_write``: the first line on its
own and flushed, so it leaves at once, and the rest in batches of 512 lines,
one write each. The decomposition sweeps compute each line as they go, so
their lines wait for their batch too.

Order specs are ME (the default), FE, seed:<n>, or @file.json holding an array
of cells; seed:<n> draws under the seed |--seed + n|, so seed:3 and seed:-3 are
one order. That rule lives in ``sweeps.parse_order_spec`` alone.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from itertools import islice

from . import serialize, sweeps
from .crystal import verify_decomposition_glmn, verify_decomposition_glr
from .diagram import SkewShape, as_partition, hook_partitions_up_to, partitions_up_to
from .lr import (
    companion_tableau,
    glmn_lr_tableaux,
    glr_lr_tableaux,
    lr_coefficient,
    picture_to_tableau,
    tableau_to_picture,
)
from .picture import enumerate_pictures, omega
from .render import render_picture, render_shape, render_tableau
from .tableau import content, enumerate_glmn, enumerate_ssyt


class InputError(Exception):
    """Bad user input; reported on stderr with exit code 2."""


def _parse_partition(text: str):
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        return as_partition(int(v) for v in text.split(","))
    except ValueError as e:
        raise InputError(f"bad partition {text!r}: {e}") from None


def _parse_shape(text: str) -> SkewShape:
    outer, _, inner = text.partition("/")
    try:
        return SkewShape(_parse_partition(outer), _parse_partition(inner))
    except ValueError as e:
        raise InputError(f"bad shape {text!r}: {e}") from None


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except OSError as e:
        raise InputError(str(e)) from None


def _resolve_order(spec: str, shape: SkewShape, seed: int):
    if spec.startswith("@"):
        return serialize.order_from_obj(_load_json(spec[1:]))
    return sweeps.resolve_order(spec, shape, seed)


_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps with options builds one per call
_BATCH = 512  # lines per write after the first


def _write(lines):
    """Write ``lines`` (each ending in a newline) to stdout: the first on its
    own and flushed, then the rest joined in batches of ``_BATCH``, one write
    per batch."""
    lines = iter(lines)
    for first in lines:
        sys.stdout.write(first)
        sys.stdout.flush()
        break
    while batch := "".join(islice(lines, _BATCH)):
        sys.stdout.write(batch)


def _cmd_coeff(args) -> int:
    result = lr_coefficient(
        _parse_partition(args.y), _parse_partition(args.w), _parse_partition(args.z),
        args.m, args.n,
    )
    equal = result.c == result.n_super
    _write([_ENCODER.encode({"c": result.c, "n_super": result.n_super, "equal": equal}) + "\n"])
    return 0 if equal else 1


def _cmd_enumerate(args) -> int:
    if args.family == "ssyt":
        _write(serialize.tableau_lines(enumerate_ssyt(_parse_shape(args.shape), args.max_entry)))
    elif args.family == "glmn":
        _write(serialize.tableau_lines(enumerate_glmn(_parse_shape(args.shape), args.m, args.n)))
    elif args.family == "lr":
        y, w, z = map(_parse_partition, (args.y, args.w, args.z))
        order = _resolve_order(args.order, SkewShape(z, y), args.seed)
        _write(serialize.tableau_lines(glmn_lr_tableaux(y, w, z, order=order)))
    elif args.family == "lrglr":
        w_shape = _parse_shape(args.w)
        y, z = _parse_partition(args.y), _parse_partition(args.z)
        order = _resolve_order(args.order, w_shape, args.seed)
        _write(serialize.tableau_lines(glr_lr_tableaux(w_shape, y, z, order=order, max_entry=args.max_entry)))
    else:
        domain = _parse_shape(args.domain)
        codomain = _parse_shape(args.codomain)
        a = _resolve_order(args.order, codomain, args.seed)
        a_prime = _resolve_order(args.order2, domain, args.seed)
        _write(serialize.picture_lines(enumerate_pictures(domain, codomain, a, a_prime)))
    return 0


def _check_flag(name: str, given: str | None, actual) -> None:
    if given is not None and _parse_partition(given) != actual:
        raise InputError(f"--{name} {given} does not match the input's {name} = {actual}")


def _cmd_map(args) -> int:
    obj = _load_json(args.input)
    if args.name in ("phi", "phitilde"):
        p = serialize.picture_from_obj(obj)
        _check_flag("z", args.z, p.codomain.outer)
        _check_flag("y", args.y, p.codomain.inner)
        _write(serialize.tableau_lines([picture_to_tableau(p, verify=True)]))
    elif args.name == "psi":
        p = tableau_to_picture(serialize.tableau_from_obj(obj), _parse_partition(args.y), verify=True)
        _check_flag("z", args.z, p.codomain.outer)
        _write(serialize.picture_lines([p]))
    elif args.name == "psitilde":
        t = serialize.tableau_from_obj(obj)
        _check_flag("y", args.y, t.shape.inner)
        _check_flag("z", args.z, t.shape.outer)
        _write(serialize.picture_lines([tableau_to_picture(t, (), verify=True)]))
    elif args.name == "phihat":
        q = serialize.tableau_from_obj(obj)
        _check_flag("y", args.y, q.shape.inner)
        _check_flag("z", args.z, q.shape.outer)
        t = companion_tableau(q, verify=True)  # refuses a non-member, a barred one too, before content(q)
        _check_flag("w", args.w, content(q))
        _write(serialize.tableau_lines([t]))
    else:
        p = serialize.picture_from_obj(obj)
        _write(serialize.picture_lines([omega(p)]))
    return 0


def _cmd_render(args) -> int:
    obj = _load_json(args.input)
    if isinstance(obj, list):
        out = render_shape(SkewShape(serialize.partition_from_obj(obj)), args.render)
    elif isinstance(obj, dict) and "rows" in obj:
        out = render_tableau(serialize.tableau_from_obj(obj), args.render)
    elif isinstance(obj, dict) and "map" in obj:
        out = render_picture(serialize.picture_from_obj(obj), args.render)
    elif isinstance(obj, dict) and "outer" in obj:
        out = render_shape(serialize.shape_from_obj(obj), args.render)
    else:
        raise InputError("input is not a partition, shape, tableau, or picture")
    _write([out + "\n"])
    return 0


def _sweep_units(args, specs):
    """One unit per triple: its line under each order spec, and whether it passed.
    The triples are a generator, so ``run_sweep`` refuses a bad request before
    the walk or the hook filter runs."""

    def triples():
        walk = sweeps.straight_triples(args.max_size)
        if args.what == "coefficients":
            hooks = set(hook_partitions_up_to(args.max_size, args.m, args.n))
            walk = (t for t in walk if hooks.issuperset(t))
        yield from walk

    records = sweeps.run_sweep(
        triples(), specs, seed=args.seed, roundtrips=args.what == "roundtrip",
        identity=args.what == "coefficients", jobs=args.jobs,
    )
    for rec in records:
        w_obj = list(rec["w"][0])  # every CLI sweep runs straight triples: W is its outer shape
        yield [
            {
                "y": list(rec["y"]), "w": w_obj, "z": list(rec["z"]), "m": args.m, "n": args.n,
                "order": entry["order"], "c": rec["c"], "n_super": rec["n_super"], "pictures": entry["pictures"],
                "roundtrip_ok": entry["roundtrip_ok"], "order_independent": rec["order_independent"],
            }
            for entry in rec["orders"]
        ], sweeps.record_ok(rec)


def _decomposition_units(shapes, params: dict, check):
    """One unit per pair of shapes: its report as a line, and whether it passed.
    ``params`` are ``check``'s keyword arguments after the pair."""
    for y in shapes:
        for w in shapes:
            report = check(y, w, **params)
            yield [{"y": list(y), "w": list(w), **params, **report.to_obj()}], report.passed


def _cmd_verify(args) -> int:
    if args.what == "decomposition-glr":
        shapes = partitions_up_to(args.max_size, max_rows=args.r)
        units = _decomposition_units(shapes, {"r": args.r}, verify_decomposition_glr)
    elif args.what == "decomposition-glmn":
        shapes = hook_partitions_up_to(args.max_size, args.m, args.n)
        units = _decomposition_units(shapes, {"m": args.m, "n": args.n}, verify_decomposition_glmn)
    else:  # a sweep: every --orders rule runs here, before any output
        specs = tuple(args.orders.split(","))
        named = {sweeps.parse_order_spec(s, args.seed) for s in specs}  # refuses an unknown spec first
        if args.what == "order-independence" and len(named) < 2:
            raise InputError(
                f"order-independence needs two distinct order specs, not {args.orders!r}"
                " (seed:<n> draws under the seed |--seed + n|)"
            )
        units = _sweep_units(args, specs)
    total = failures = 0

    def lines():
        nonlocal total, failures
        for objs, passed in units:
            total += 1
            failures += not passed
            for obj in objs:
                yield _ENCODER.encode(obj) + "\n"

    _write(lines())
    if total == 0:
        raise InputError(f"{args.what} --max-size {args.max_size} has nothing to check")
    print(f"{args.what}: {total - failures}/{total} ok", file=sys.stderr)
    return 1 if failures else 0


_TEXT = {"required": True}
_INT = {"type": int, "required": True}
_SEED = {"type": int, "default": 0}
_TWO = {"type": int, "default": 2}  # --m and --n of the verify modes that take them
_INPUT = {"required": True, "help": "JSON file, or - for stdin"}
_JOBS = {"type": int, "default": 1}  # run_sweep refuses a count below 1
_SPECS = "comma list of ME | FE | seed:<n>"

# Each command: its help, its handler, and either its options or the dest
# and leaves of its subcommands. Each leaf: its help (None: not listed), its
# options, and the fixed values its handler reads besides them. Each takes
# exactly the options its code reads.
_COMMANDS = {
    "coeff": ("count both LR families for a hook triple", _cmd_coeff, {
        "y": _TEXT, "w": _TEXT, "z": _TEXT, "m": _INT, "n": _INT,
    }),
    "enumerate": ("list tableaux or pictures as JSON lines", _cmd_enumerate, "family", {
        "ssyt": ("semistandard fillings of a shape", {
            "shape": {**_TEXT, "help": "outer[/inner], e.g. 3,2/1"}, "max-entry": _INT,
        }, {}),
        "glmn": ("two-family semistandard fillings", {"shape": _TEXT, "m": _INT, "n": _INT}, {}),
        "lr": ("two-family LR tableaux of a triple", {
            "y": _TEXT, "w": _TEXT, "z": _TEXT,
            "order": {"help": "order on z/y: ME | FE | seed:<n> | @file.json", "default": "ME"}, "seed": _SEED,
        }, {}),
        "lrglr": ("classical LR family over a shape", {
            "y": _TEXT, "w": {**_TEXT, "help": "reading shape, outer[/inner]"}, "z": _TEXT,
            "order": {"help": "order on w: ME | FE | seed:<n> | @file.json", "default": "ME"}, "seed": _SEED,
            "max-entry": {"type": int},
        }, {}),
        "pictures": ("admissible pictures between two shapes", {
            "domain": _TEXT, "codomain": _TEXT, "order": {"help": "order on the codomain", "default": "ME"},
            "order2": {"help": "order on the domain", "default": "ME"}, "seed": _SEED,
        }, {}),
    }),
    "map": ("apply one of the bijections to a JSON value", _cmd_map, "name", {
        "phi": (None, {"input": _INPUT, "y": {}, "z": {}}, {}),
        "psi": (None, {"input": _INPUT, "y": _TEXT, "z": {}}, {}),  # --y: the inner shape of psi's target
        "phitilde": (None, {"input": _INPUT, "y": {}, "z": {}}, {}),
        "psitilde": (None, {"input": _INPUT, "y": {}, "z": {}}, {}),
        "phihat": (None, {"input": _INPUT, "y": {}, "w": {}, "z": {}}, {}),
        "omega": (None, {"input": _INPUT}, {}),
    }),
    "verify": ("run an exhaustive verification sweep", _cmd_verify, "what", {
        # m, n: fixed fields of lines that check no hook
        "roundtrip": (None, {
            "max-size": _INT, "orders": {"help": _SPECS, "default": "ME,FE,seed:0,seed:1,seed:2"},
            "seed": _SEED, "jobs": _JOBS,
        }, {"m": 2, "n": 2}),
        "order-independence": (None, {
            "max-size": _INT, "orders": {"help": _SPECS, "default": "ME,FE,seed:0,seed:1,seed:2,seed:3,seed:4"},
            "seed": _SEED, "jobs": _JOBS,
        }, {"m": 2, "n": 2}),
        # m, n: the hook bounds; ME reads no seed
        "coefficients": (None, {"max-size": _INT, "m": _TWO, "n": _TWO, "jobs": _JOBS}, {"orders": "ME", "seed": 0}),
        "decomposition-glr": (None, {"max-size": _INT, "r": {"type": int, "default": 3}}, {}),
        "decomposition-glmn": (None, {"max-size": _INT, "m": _TWO, "n": _TWO}, {}),
    }),
    "render": ("draw a shape, tableau, or picture", _cmd_render, {
        "input": _TEXT, "render": {"choices": ["ascii", "unicode"], "default": "ascii"},
    }),
}


def _add_options(parser: argparse.ArgumentParser, options: dict, defaults: dict) -> None:
    for name, kwargs in options.items():
        parser.add_argument(f"--{name}", **kwargs)
    parser.set_defaults(**defaults)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``, built from ``_COMMANDS``: every command, the
    leaves of the command ``argv`` names, and the options of the one command
    or leaf it runs, no others. The first and second words of ``argv`` that
    do not start with - name them, as argparse reads them: no parser above a
    leaf takes an option but -h, so every other word is a value or an error."""
    command, leaf = ([a for a in argv if not a.startswith("-")] + [None, None])[:2]
    parser = argparse.ArgumentParser(
        prog="lrpictures",
        description="Littlewood-Richardson tableaux, pictures, and the bijections between them.",
        allow_abbrev=False,  # each option is known only by its full name
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, *body) in _COMMANDS.items():
        p = commands.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        if name != command:
            continue
        if len(body) == 1:
            _add_options(p, body[0], {})
            continue
        dest, leaves = body
        sub = p.add_subparsers(dest=dest, required=True)
        for leaf_name, (leaf_help, options, defaults) in leaves.items():
            q = sub.add_parser(leaf_name, allow_abbrev=False, **({"help": leaf_help} if leaf_help else {}))
            if leaf_name == leaf:
                _add_options(q, options, defaults)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (InputError, ValueError) as e:  # the library refuses bad input with ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    # a closed stdout (``| head -1``) ends the process quietly, like any filter
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
