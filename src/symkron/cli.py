"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error, 3
budget exceeded or an input too deep for Python's recursion limit.  Every
command accepts ``--format text|json``.  The budgets are the module constants
``grouporacle.MAX_ORBIT_PAIRS``, ``grouporacle.MAX_GROUP_ORDER``,
``contingency.MAX_LISTED_MATRICES`` and ``verify.MAX_VERIFY_DEGREE``.

A well-formed argument list is read straight from the ``_COMMANDS`` table;
argparse parses the rest and writes all help, usage and error text.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import expr, grouporacle, symfunc, verify
from .combinat import (
    Composition,
    Partition,
    count_ssyt,
    enumerate_compositions,
    enumerate_partitions,
    format_parts,
    parse_parts,
)
from .contingency import contingency_matrices, decompose_permutation_tensor, hom_dimension
from .errors import BudgetExceededError


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj))
    else:
        for line in text_lines:
            print(line)


def _render_multiset(pieces: dict[Partition, int]) -> str:
    if not pieces:
        return "0"
    out = []
    for lam, mult in pieces.items():
        atom = f"M[{','.join(str(p) for p in lam)}]"
        out.append(atom if mult == 1 else f"{mult}*{atom}")
    return " + ".join(out)


def cmd_partitions(args) -> int:
    parts = enumerate_partitions(args.d)
    _emit(
        args,
        [format_parts(p) for p in parts],
        {"d": args.d, "partitions": [list(p) for p in parts]},
    )
    return 0


def cmd_compositions(args) -> int:
    comps = enumerate_compositions(args.n, args.d)
    _emit(
        args,
        [format_parts(c) for c in comps],
        {"n": args.n, "d": args.d, "compositions": [list(c) for c in comps]},
    )
    return 0


def cmd_kostka(args) -> int:
    shape = Partition(parse_parts(args.shape))
    content = Composition(parse_parts(args.content))
    value = count_ssyt(shape, content)
    _emit(
        args,
        [str(value)],
        {"shape": list(shape), "content": list(content), "kostka": value},
    )
    return 0


def cmd_contingency(args) -> int:
    lam = Composition(parse_parts(args.lam))
    mu = Composition(parse_parts(args.mu))
    if args.count_only:
        count = hom_dimension(lam, mu)
        _emit(args, [str(count)], {"lambda": list(lam), "mu": list(mu), "count": count})
        return 0
    matrices = contingency_matrices(lam, mu)
    lines = []
    for k, mat in enumerate(matrices):
        if k:
            lines.append("")
        lines.extend(",".join(str(v) for v in row) for row in mat.rows)
    _emit(
        args,
        lines,
        {
            "lambda": list(lam),
            "mu": list(mu),
            "count": len(matrices),
            "matrices": [m.to_json_dict() for m in matrices],
        },
    )
    return 0


def cmd_decompose_perm(args) -> int:
    lam = Composition(parse_parts(args.lam))
    mu = Composition(parse_parts(args.mu))
    pieces = decompose_permutation_tensor(lam, mu)
    payload = {
        "lambda": list(lam),
        "mu": list(mu),
        "terms": [
            {"partition": list(p), "multiplicity": mult} for p, mult in pieces.items()
        ],
    }
    lines = [_render_multiset(pieces)]
    if args.oracle:
        oracle = grouporacle.tensor_orbit_decompose(lam, mu)
        agrees = oracle == pieces
        payload["oracle_terms"] = [
            {"partition": list(p), "multiplicity": mult} for p, mult in oracle.items()
        ]
        payload["oracle_agrees"] = agrees
        lines.append(f"oracle: {_render_multiset(oracle)}")
        lines.append(f"oracle agrees: {'yes' if agrees else 'NO'}")
        if not agrees:
            _emit(args, lines, payload)
            return 1
    if args.show_matrices:
        dicts = [m.to_json_dict() for m in contingency_matrices(lam, mu)]
        payload["matrices"] = dicts
        lines.extend(json.dumps(d) for d in dicts)
    _emit(args, lines, payload)
    return 0


def _eval_command(args) -> int:
    tree = expr.parse(args.expr)
    if args.formal:
        comps = expr.evaluate_components(tree)
        if args.basis:
            comps = {d: symfunc.convert(f, args.basis) for d, f in comps.items()}
        rendered = " + ".join(f"({f.render()})" for f in comps.values()) or "0"
        _emit(
            args,
            [rendered],
            {"components": [f.to_json_dict() for f in comps.values()]},
        )
        return 0
    result = expr.evaluate(tree, args.basis)
    _emit(args, [result.render()], result.to_json_dict())
    return 0


def _character_for(kind: str, lam: Partition) -> tuple[int, ...]:
    if kind == "perm":
        return grouporacle.permutation_character(lam)
    return symfunc.specht_character(lam)


def cmd_character(args) -> int:
    lam = Partition(parse_parts(args.lam))
    values = list(zip(enumerate_partitions(lam.degree), _character_for(args.kind, lam)))
    lines = [f"{format_parts(rho)}: {value}" for rho, value in values]
    _emit(
        args,
        lines,
        {
            "kind": args.kind,
            "lambda": list(lam),
            "degree": lam.degree,
            "values": [{"cycle_type": list(rho), "value": value} for rho, value in values],
        },
    )
    return 0


def cmd_ch(args) -> int:
    lam = Partition(parse_parts(args.lam))
    image = symfunc.characteristic_map(lam.degree, _character_for(args.kind, lam))
    if args.basis:
        image = symfunc.convert(image, args.basis)
    _emit(args, [image.render()], image.to_json_dict())
    return 0


def cmd_verify(args) -> int:
    checks = verify.run_verify(args.suite, args.d, seed=args.seed)
    ok = all(c.passed for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status} {c.name}" + (f" [{c.detail}]" if c.detail else ""))
    lines.append(f"{'PASS' if ok else 'FAIL'} {args.suite}: {len(checks)} checks")
    _emit(
        args,
        lines,
        {
            "suite": args.suite,
            "d": args.d,
            "passed": ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ],
        },
    )
    return 0 if ok else 1


# Each command: its handler, its help line and its arguments, flag -> options.
_COMMANDS = {
    "partitions": (cmd_partitions, "list partitions of d", {"--d": dict(type=int, required=True)}),
    "compositions": (
        cmd_compositions, "list compositions of d into n parts",
        {"--n": dict(type=int, required=True), "--d": dict(type=int, required=True)},
    ),
    "kostka": (
        cmd_kostka, "tableau count for a shape and content",
        {"--shape": dict(required=True), "--content": dict(required=True)},
    ),
    "contingency": (
        cmd_contingency, "matrices with given margins",
        {"--lambda": dict(dest="lam", required=True), "--mu": dict(required=True),
         "--count-only": dict(action="store_true")},
    ),
    "decompose-perm": (
        cmd_decompose_perm, "decompose a tensor product of permutation modules",
        {"--lambda": dict(dest="lam", required=True), "--mu": dict(required=True),
         "--oracle": dict(action="store_true", help="cross-check with orbit enumeration"),
         "--show-matrices": dict(action="store_true")},
    ),
    "kron": (
        _eval_command, "evaluate an expression",
        {"--expr": dict(required=True), "--basis": dict(choices=symfunc.BASES),
         "--formal": dict(action="store_true", help="allow mixed-degree sums")},
    ),
    "convert": (
        _eval_command, "evaluate and convert an expression",
        {"--expr": dict(required=True), "--basis": dict(choices=symfunc.BASES, required=True),
         "--formal": dict(action="store_true", help="allow mixed-degree sums")},
    ),
    "character": (
        cmd_character, "character values by cycle type",
        {"--kind": dict(choices=("perm", "specht"), required=True),
         "--lambda": dict(dest="lam", required=True)},
    ),
    "ch": (
        cmd_ch, "characteristic map of a character",
        {"--kind": dict(choices=("perm", "specht"), required=True),
         "--lambda": dict(dest="lam", required=True),
         "--basis": dict(choices=symfunc.BASES, default="p")},
    ),
    "verify": (
        cmd_verify, "run a verification suite",
        {"--suite": dict(choices=verify.SUITES, required=True),
         "--d": dict(type=int, required=True), "--seed": dict(type=int, default=0)},
    ),
}


# The option every command accepts, read by build_parser and _read_args alike.
_FORMAT = {"--format": dict(choices=("text", "json"), default="text", help="output format")}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command, for the argvs ``_read_args`` leaves."""
    common = argparse.ArgumentParser(add_help=False)
    for flag, options in _FORMAT.items():
        common.add_argument(flag, **options)

    parser = argparse.ArgumentParser(
        prog="symkron",
        description="Exact symmetric functions, permutation-module tensor "
        "decompositions, and Kronecker products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _read_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives a well-formed ``argv``.

    Well-formed: a command, then only its exact flags and ``--format``, each
    value flag followed by a value that does not start with ``-`` and passes
    its ``type`` and ``choices``, and every required flag present.  Anything
    else gives None and is argparse's to parse or refuse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    arguments = {**arguments, **_FORMAT}
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        options = arguments.get(flag)
        if options is None:
            return None
        if options.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value counts as a dash-led one
        if value.startswith("-"):
            return None
        if options.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[flag] = value
    if any(options.get("required") and flag not in given for flag, options in arguments.items()):
        return None
    args = argparse.Namespace(command=argv[0], func=func)
    for flag, options in arguments.items():
        default = options.get("default", False if options.get("action") == "store_true" else None)
        setattr(args, options.get("dest", flag[2:].replace("-", "_")), given.get(flag, default))
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"error: input too deep for the recursion limit of {limit}", file=sys.stderr)
        return 3
    except ValueError as exc:  # parse errors, ExpressionError, DegreeMismatchError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
