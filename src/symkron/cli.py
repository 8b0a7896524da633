"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error, 3
budget exceeded or an input too deep for Python's recursion limit.  Every
command accepts ``--format text|json``.  The budgets are the module constants
``grouporacle.MAX_ORBIT_PAIRS``, ``grouporacle.MAX_GROUP_ORDER``,
``contingency.MAX_LISTED_MATRICES`` and ``verify.MAX_VERIFY_DEGREE``.
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


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for ``argv``: with only the subcommand that ``argv[0]`` names.

    Every subcommand is added when ``argv[0]`` names none, so the top-level
    help and usage list them all.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="symkron",
        description="Exact symmetric functions, permutation-module tensor "
        "decompositions, and Kronecker products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        func, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args, extras = build_parser(argv).parse_known_args(argv)
        if extras:
            # The full parser reports them, its usage listing every command.
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
