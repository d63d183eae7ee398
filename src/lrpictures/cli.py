"""Command line entry point.

Exit codes: 0 on success, 1 when a verification finds a violated invariant,
2 on malformed input or usage errors. Each command, map and verify mode takes
only the options it reads, spelled in full after its name (psi requires --y);
any other option is a usage error, refused before any output. All
mathematical output goes to stdout as JSON (one object per line for
enumerations and sweeps); identical inputs produce byte-identical output.
Every command writes through one writer, ``_write``: the first line on its
own, so it leaves at once, and the rest in batches of 512 lines, one write
each. The decomposition sweeps compute each line as they go, so their lines
wait for their batch too.

Order specs are ME, FE, seed:<n>, or @file.json holding an array of cells.
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


def positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


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


def _resolve_order(spec: str | None, shape: SkewShape, seed: int):
    if spec is None:
        spec = "ME"
    if spec.startswith("@"):
        return serialize.order_from_obj(_load_json(spec[1:]))
    return sweeps.resolve_order(spec, shape, seed)


_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps with options builds one per call
_BATCH = 512  # lines per write after the first


def _write(lines):
    """Write ``lines`` (each ending in a newline) to stdout: the first on its
    own, then the rest joined in batches of ``_BATCH``, one write per batch."""
    lines = iter(lines)
    for first in lines:
        sys.stdout.write(first)
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
        shape = _parse_shape(args.shape)
        _write(serialize.tableau_lines(enumerate_ssyt(shape, args.max_entry)))
    elif args.family == "glmn":
        shape = _parse_shape(args.shape)
        _write(serialize.tableau_lines(enumerate_glmn(shape, args.m, args.n)))
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
        _check_flag("w", args.w, content(q))
        _write(serialize.tableau_lines([companion_tableau(q, verify=True)]))
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


# the order specs each sweep that takes --orders checks when it is not given
_SWEEP_ORDERS = {
    "roundtrip": ("ME", "FE", "seed:0", "seed:1", "seed:2"),
    "order-independence": ("ME", "FE", "seed:0", "seed:1", "seed:2", "seed:3", "seed:4"),
}


def _sweep_units(args, specs, seed: int, m: int, n: int):
    """One unit per triple: its line under each order spec, and whether it passed."""
    triples = sweeps.straight_triples(args.max_size)
    if args.what == "coefficients":
        hooks = set(hook_partitions_up_to(args.max_size, m, n))
        triples = [t for t in triples if hooks.issuperset(t)]
    records = sweeps.run_sweep(
        triples,
        specs,
        seed=seed,
        roundtrips=args.what == "roundtrip",
        identity=args.what == "coefficients",
        pictures=args.what != "order-independence",
        jobs=args.jobs,
    )
    for rec in records:
        w_obj = list(rec["w"][0])  # every CLI sweep runs straight triples: W is its outer shape
        yield [
            {
                "y": list(rec["y"]),
                "w": w_obj,
                "z": list(rec["z"]),
                "m": m,
                "n": n,
                "order": entry["order"],
                "c": rec["c"],
                "n_super": rec["n_super"],
                "pictures": entry["pictures"],
                "roundtrip_ok": entry["roundtrip_ok"],
                "order_independent": rec["order_independent"],
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
    # every --orders rule runs here, before any output
    if args.what in _SWEEP_ORDERS:
        specs = tuple(args.orders.split(",")) if args.orders is not None else _SWEEP_ORDERS[args.what]
        named = {sweeps.parse_order_spec(s) for s in specs}  # refuses an unknown spec first
        if args.what == "order-independence" and len(named) < 2:
            raise InputError(f"order-independence needs two distinct order specs, not {args.orders!r}")
        units = _sweep_units(args, specs, args.seed, 2, 2)  # m, n: fixed fields of lines that check no hook
    elif args.what == "coefficients":
        units = _sweep_units(args, ("ME",), 0, args.m, args.n)  # the hook bounds; ME reads no seed
    elif args.what == "decomposition-glr":
        shapes = partitions_up_to(args.max_size, max_rows=args.r)
        units = _decomposition_units(shapes, {"r": args.r}, verify_decomposition_glr)
    else:
        shapes = hook_partitions_up_to(args.max_size, args.m, args.n)
        units = _decomposition_units(shapes, {"m": args.m, "n": args.n}, verify_decomposition_glmn)
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


class _Parser(argparse.ArgumentParser):
    """Knows each option only by its full name; its subparsers are _Parsers too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


# the options each map and each verify mode reads, besides --input and --max-size: no others
_MAP_OPTIONS = {"phi": "yz", "psi": "yz", "phitilde": "yz", "psitilde": "yz", "phihat": "ywz", "omega": ""}
_VERIFY_OPTIONS = {
    **dict.fromkeys(_SWEEP_ORDERS, ("orders", "seed", "jobs")),
    "coefficients": ("m", "n", "jobs"),
    "decomposition-glr": ("r",),
    "decomposition-glmn": ("m", "n"),
}
_OPTIONS = {
    "orders": {"help": "comma list of ME | FE | seed:<n>"},
    "jobs": {"type": positive_int, "default": 1},
    **{name: {"type": int, "default": default} for name, default in (("seed", 0), ("m", 2), ("n", 2), ("r", 3))},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lrpictures",
        description="Littlewood-Richardson tableaux, pictures, and the bijections between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="count both LR families for a hook triple")
    p.add_argument("--y", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("enumerate", help="list tableaux or pictures as JSON lines")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("ssyt", help="semistandard fillings of a shape")
    q.add_argument("--shape", required=True, help="outer[/inner], e.g. 3,2/1")
    q.add_argument("--max-entry", type=int, required=True)
    q = fam.add_parser("glmn", help="two-family semistandard fillings")
    q.add_argument("--shape", required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q = fam.add_parser("lr", help="two-family LR tableaux of a triple")
    q.add_argument("--y", required=True)
    q.add_argument("--w", required=True)
    q.add_argument("--z", required=True)
    q.add_argument("--order", help="order on z/y: ME | FE | seed:<n> | @file.json")
    q.add_argument("--seed", type=int, default=0)
    q = fam.add_parser("lrglr", help="classical LR family over a shape")
    q.add_argument("--y", required=True)
    q.add_argument("--w", required=True, help="reading shape, outer[/inner]")
    q.add_argument("--z", required=True)
    q.add_argument("--order", help="order on w: ME | FE | seed:<n> | @file.json")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--max-entry", type=int, default=None)
    q = fam.add_parser("pictures", help="admissible pictures between two shapes")
    q.add_argument("--domain", required=True)
    q.add_argument("--codomain", required=True)
    q.add_argument("--order", help="order on the codomain")
    q.add_argument("--order2", help="order on the domain")
    q.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("map", help="apply one of the bijections to a JSON value")
    maps = p.add_subparsers(dest="name", required=True)
    for name, shapes in _MAP_OPTIONS.items():
        q = maps.add_parser(name)
        q.add_argument("--input", required=True, help="JSON file, or - for stdin")
        for shape in shapes:
            q.add_argument(f"--{shape}", required=(name, shape) == ("psi", "y"))  # psi's target's inner shape
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("verify", help="run an exhaustive verification sweep")
    modes = p.add_subparsers(dest="what", required=True)
    for what, options in _VERIFY_OPTIONS.items():
        q = modes.add_parser(what)
        q.add_argument("--max-size", type=int, required=True)
        for option in options:
            q.add_argument(f"--{option}", **_OPTIONS[option])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw a shape, tableau, or picture")
    p.add_argument("--input", required=True)
    p.add_argument("--render", choices=["ascii", "unicode"], default="ascii")
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
