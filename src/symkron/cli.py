"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error, 3
budget exceeded or an input too deep for Python's recursion limit (a deeply
nested expression).  Every command accepts ``--format text|json``.  The
budgets are the module constants ``grouporacle.MAX_ORBIT_PAIRS``,
``grouporacle.MAX_GROUP_ORDER``, ``contingency.MAX_LISTED_MATRICES``,
``contingency.MAX_MARGIN_STATES``, ``verify.MAX_VERIFY_DEGREE`` and the 8!
caps of ``combinat`` on listing partitions and compositions.

Every argument list is read by ``_read_args`` from the ``_COMMANDS`` table.
Flags are spelled in full (no abbreviation, ``--flag=value`` or ``--``), and
integers are ASCII ``-?[0-9]+``.  The help, usage and error text is
argparse's under Python 3.11 at 80 columns, on any terminal and Python.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import expr, grouporacle, symfunc, verify
from .combinat import (
    DIGITS,
    Composition,
    Partition,
    count_ssyt,
    enumerate_compositions,
    enumerate_partitions,
    format_parts,
    parse_int,
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


# The option every command accepts, shown before the command's own.
_FORMAT = {"--format": dict(choices=("text", "json"), default="text", help="output format")}
_HELP = ("-h", "--help")
_CHOICES = "{" + ",".join(_COMMANDS) + "}"
# argparse's width at 80 columns, fixed so that no text depends on the terminal.
_WIDTH = 78


def _arguments(command: str) -> dict:
    return {**_FORMAT, **_COMMANDS[command][2]}


def _dest(flag: str, options: dict) -> str:
    return options.get("dest", flag[2:].replace("-", "_"))


def _shown(flag: str, options: dict) -> str:
    """A flag as usage and help show it: with its choices or metavar, unless a switch."""
    if options.get("action") == "store_true":
        return flag
    choices = options.get("choices")
    return f"{flag} " + ("{" + ",".join(choices) + "}" if choices else _dest(flag, options).upper())


def _usage(command: str | None) -> str:
    """The usage of ``command`` (None: the top level), wrapped greedily at ``_WIDTH``.

    argparse starts the top level's command list on a line of its own; here
    it never fits on the first line anyway.
    """
    prog, parts = "symkron", ["[-h]", _CHOICES, "..."]
    if command is not None:
        prog, parts = f"symkron {command}", ["[-h]"]
        for flag, options in _arguments(command).items():
            shown = _shown(flag, options)
            parts += shown.split() if options.get("required") else [f"[{shown}]"]
    lead = " " * (len(prog) + 7)  # a wrapped line starts under the first part
    lines = [f"usage: {prog}"]
    for part in parts:
        if lines[-1] != lead and len(lines[-1]) + 1 + len(part) > _WIDTH:
            lines.append(lead)
        lines[-1] += " " + part
    return "\n".join(lines) + "\n"


def _row(indent: int, shown: str, help_text: str | None) -> str:
    """One help row, on one line: a flag with help text ends by column 22, and
    the text, starting at column 24, fits in 54 columns."""
    head = " " * indent + shown
    return f"{head:<24}{help_text}\n" if help_text else head + "\n"


def _help(command: str | None) -> str:
    """The ``-h`` text of ``command`` (None: the top level)."""
    rows = _row(2, ", ".join(_HELP), "show this help message and exit")
    if command is None:
        commands = "".join(_row(4, name, spec[1]) for name, spec in _COMMANDS.items())
        return (f"{_usage(None)}\nExact symmetric functions, permutation-module tensor "
                "decompositions, and\nKronecker products.\n\npositional arguments:\n"
                f"{_row(2, _CHOICES, None)}{commands}\noptions:\n{rows}")
    for flag, options in _arguments(command).items():
        rows += _row(2, _shown(flag, options), options.get("help"))
    return f"{_usage(command)}\noptions:\n{rows}"


def _refuse(command: str | None, message: str):
    """Print the usage of ``command`` (None: the top level) and ``message``; exit 2."""
    prog = f"symkron {command}" if command else "symkron"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _check_choice(command: str | None, name: str, value: str, choices) -> None:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        _refuse(command, f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _is_flag(token: str) -> bool:
    """Whether ``token`` is a flag: dash-led, but not ``-`` alone, a negative
    integer or a text with a space, which are values."""
    return token.startswith("-") and " " not in token and not DIGITS.issuperset(token[1:])


def _read_args(argv: list[str]) -> SimpleNamespace:
    """The namespace of ``argv``; after help or a refusal, raise ``SystemExit``.

    The command comes first, then its exact flags and ``--format`` in any
    order; integer values follow ``parse_int``.  As in argparse, ``-h`` prints
    help where it stands, a bad value is refused at once, then a missing
    required flag, and last every unknown token (``--form``, ``--d=2``, ``--``).
    Unlike argparse, it takes a dash-led token after ``--expr`` as the
    expression, unless it is ``-h`` or led by ``--``.
    """
    command, arguments, given, unknown = None, {}, {}, []
    tokens = iter(argv)
    for token in tokens:
        options = arguments.get(token)
        if token in _HELP:
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        elif command is None and not _is_flag(token):
            _check_choice(None, "command", token, _COMMANDS)
            command, arguments = token, _arguments(token)
        elif options is None:
            unknown.append(token)
        elif options.get("action") == "store_true":
            given[token] = True
        else:
            value = next(tokens, None)
            if token == "--expr":  # an expression may lead with a minus, as in -s[1]
                missing = value is None or value == "-h" or value.startswith("--")
            else:
                missing = value is None or _is_flag(value)
            if missing:
                _refuse(command, f"argument {token}: expected one argument")
            if options.get("type") is int:
                try:
                    value = parse_int(value)
                except ValueError:
                    _refuse(command, f"argument {token}: invalid int value: {value!r}")
            if "choices" in options:
                _check_choice(command, token, value, options["choices"])
            given[token] = value  # a repeated flag keeps its last value
    if command is None:
        _refuse(None, "the following arguments are required: command")
    missing = [flag for flag, options in arguments.items()
               if options.get("required") and flag not in given]
    if missing:
        _refuse(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _refuse(None, f"unrecognized arguments: {' '.join(unknown)}")
    args = SimpleNamespace(command=command, func=_COMMANDS[command][0])
    for flag, options in arguments.items():
        default = options.get("default", False if options.get("action") == "store_true" else None)
        setattr(args, _dest(flag, options), given.get(flag, default))
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_args(argv)
    except SystemExit as exc:
        return exc.code
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
