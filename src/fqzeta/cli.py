"""Command-line front end.

Subcommands: count | zeta | compare | find-pair | solve.

Every subcommand takes ``--format``.  ``count``, ``zeta``, ``compare`` and
``find-pair`` take ``--budget``.  An option a subcommand does not take is a
usage error.

Exit codes are a stable contract:

    0  success (for ``solve``: every trace difference is forced)
    1  ``solve`` left unforced degrees, or an unclassified error (such as
       a malformed profile)
    2  malformed variety spec (including a composite or too large p, or a
       file that is not UTF-8 JSON), or a command-line usage error (such as
       ``count -n 0``, ``zeta --extra-terms -1``, ``solve -d 9`` outside
       1..``--max-d``, or ``solve --budget``), reported in one line
    3  enumeration budget exceeded (for ``find-pair``: the primes in range
       may visit more than ``--budget`` models and points, (3p+6)p each: p^2
       models in the orbit walk that once found the classes, p points of N_1
       for each of at most 2p+6 classes; an upper bound kept so that no exit
       code moves, as the classes now take O(p) work), or a count would have
       to index a field of 2^63 or more elements
    4  no consistent rational zeta fit for the given counts and profile
    5  duality (functional equation) violation
    6  the compared varieties live over different fields

JSON output (--format=json) is canonical: sorted keys, no whitespace, one
line; rationals print as num/den in lowest terms.

How a call is read: one table, ``_COMMANDS``, lists each subcommand's
handler, help, ``--budget`` help and arguments.  A strict reader reads a
well-formed call (exact option strings, values that do not begin with ``-``)
straight from that table.  Any other argv goes to argparse, built from the
same table once per process, and so do help and usage errors: ``-h``,
abbreviations, ``--opt=value``, ``--`` and every malformed call print and
exit exactly as argparse makes them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    BudgetExceededError,
    DualityViolationError,
    FqZetaError,
    InsufficientCountsError,
    MalformedSpecError,
    NonIntegralCoefficientsError,
    NoRationalFitError,
    WeightSeparationError,
)
from .pairsearch import find_pairs
from .polys import render
from .tracesolver import build_constraint_system, solve_forced
from .varieties import DEFAULT_BUDGET, count_series, load_spec
from .zeta import (
    CohomologyProfile,
    check_functional_equation,
    check_riemann_hypothesis,
    connected_denominator,
    factor_by_weights,
    zeta_from_counts,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MALFORMED_SPEC = 2
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NO_FIT = 4
EXIT_DUALITY = 5
EXIT_FIELD_MISMATCH = 6

_FIT_ERRORS = (
    NoRationalFitError,
    NonIntegralCoefficientsError,
    InsufficientCountsError,
    WeightSeparationError,
)


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _load_profile(path) -> CohomologyProfile:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return CohomologyProfile.from_dict(data)


def _reconstruct_zeta(spec, profile, budget, extra_terms=0):
    """Counts -> zeta for a connected variety with the given profile."""
    known_den = connected_denominator(spec.q, profile.d)
    free = profile.odd_total + profile.even_total - (len(known_den) - 1)
    terms = max(free, 1) + extra_terms
    series = count_series(spec, terms, budget=budget)
    zeta = zeta_from_counts(
        series,
        profile.odd_total,
        profile.even_total,
        known_denominator=known_den,
    )
    return series, zeta


def _cmd_count(args) -> int:
    spec = load_spec(args.spec)
    series = count_series(spec, args.terms, budget=args.budget)
    if args.format == "json":
        _emit_json({"label": spec.label, "q": series.q, "counts": list(series.counts)})
    else:
        for c in series.counts:
            print(c)
    return EXIT_OK


def _cmd_zeta(args) -> int:
    spec = load_spec(args.spec)
    profile = _load_profile(args.profile)
    series, zeta = _reconstruct_zeta(spec, profile, args.budget, args.extra_terms)
    factorization = factor_by_weights(zeta, profile)
    duality = check_functional_equation(factorization)
    rh = check_riemann_hypothesis(factorization)
    if args.format == "json":
        _emit_json(
            {
                "label": spec.label,
                "counts": list(series.counts),
                "zeta": zeta.to_dict(),
                "factorization": factorization.to_dict(),
                "duality": duality,
                "riemann_hypothesis": rh,
            }
        )
    else:
        print(f"label: {spec.label}")
        print(f"counts: {list(series.counts)}")
        num, den = (render(f, "t", descending=False) for f in (zeta.num, zeta.den))
        print(f"zeta = ({num}) / ({den})")
        for i, f in enumerate(factorization.factors):
            print(f"P_{i} = {render(f, 't', descending=False)}")
        print("duality check: ok")
        print(f"riemann hypothesis check: {'ok' if rh['ok'] else 'VIOLATED'}")
        for i in rh["violations"]:
            print(f"  degree {i}: not every inverse root has modulus q^({i}/2)")
    return EXIT_OK


def _cmd_compare(args) -> int:
    spec_a = load_spec(args.spec_a)
    spec_b = load_spec(args.spec_b)
    if spec_a.q != spec_b.q:
        print(
            f"field mismatch: {args.spec_a} has q={spec_a.q}, "
            f"{args.spec_b} has q={spec_b.q}",
            file=sys.stderr,
        )
        return EXIT_FIELD_MISMATCH
    profile = _load_profile(args.profile)
    series_a, zeta_a = _reconstruct_zeta(spec_a, profile, args.budget)
    series_b, zeta_b = _reconstruct_zeta(spec_b, profile, args.budget)
    equal = zeta_a == zeta_b
    # Both fits read the same number of counts.  A fit is a function of its
    # counts, and each zeta expands to exactly the counts it was fitted to, so
    # the zetas differ iff the counts do, and the first count that differs is
    # where the two expansions first part.
    divergence = None
    for n, (x, y) in enumerate(zip(series_a.counts, series_b.counts), start=1):
        if x != y:
            divergence = {"n": n, "count_a": x, "count_b": y}
            break
    if args.format == "json":
        _emit_json(
            {
                "verdict": "EQUAL" if equal else "DIFFER",
                "zeta_a": zeta_a.to_dict(),
                "zeta_b": zeta_b.to_dict(),
                "first_divergence": divergence,
            }
        )
    else:
        print("EQUAL" if equal else "DIFFER")
        if divergence:
            print(
                f"first divergence at n={divergence['n']}: "
                f"{divergence['count_a']} vs {divergence['count_b']}"
            )
    return EXIT_OK


def _cmd_find_pair(args) -> int:
    results = find_pairs(args.p_min, args.p_max, budget=args.budget)
    if args.format == "json":
        _emit_json([r.to_dict() for r in results])
    else:
        if not results:
            print("no pairs found")
        for r in results:
            num, den = (render(f, "t", descending=False) for f in (r.zeta.num, r.zeta.den))
            print(
                f"p={r.p}  A=(a={r.curve_a.a}, b={r.curve_a.b})  "
                f"B=(a={r.curve_b.a}, b={r.curve_b.b})  "
                f"counts={list(r.counts)}  "
                f"zeta=({num}) / ({den})"
            )
    return EXIT_OK


def _cmd_solve(args) -> int:
    system = build_constraint_system(
        args.d,
        include_albanese=args.albanese,
        include_hard_lefschetz=args.hard_lefschetz,
        include_trivial=args.trivial,
    )
    report = solve_forced(system)
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        flags = report.flags
        print(
            f"d={report.d}  albanese={'on' if flags.albanese else 'off'}  "
            f"hard_lefschetz={'on' if flags.hard_lefschetz else 'off'}  "
            f"trivial={'on' if flags.trivial else 'off'}"
        )
        forced = " ".join(str(i) for i in report.forced) or "(none)"
        suffix = " (all)" if report.fully_forced else ""
        print(f"forced degrees: {forced}{suffix}")
        if report.residual:
            print("residual relations:")
            for rel in report.residual:
                print(f"  {rel}")
        else:
            print("residual relations: (none)")
    return EXIT_OK if report.fully_forced else EXIT_FAILURE


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one line on stderr, like every other error."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_COUNTING_BUDGET = (
    "max size of each counting domain (candidate points over F_{q^n}; "
    "counting by roots, curves, Jacobi sums, fibres or halves evaluates fewer "
    "of them), default 10^8"
)

# The subcommands: name -> (handler, help line, --budget help or None for a
# subcommand without --budget, arguments as (flags, argparse keywords) in
# help order).  Every subcommand also takes --format.  Each subcommand takes
# only the options it honours; any other is a usage error.
#
# build_parser and _read_strictly both read this table.  The strict reader
# accepts only exact tokens (whole option strings, values that do not begin
# with "-") and declines every other form, because each argv it accepts must
# parse exactly as argparse parses it: abbreviations, --opt=value, attached
# short values and "--" follow argparse's own rules, so they are left to it.
_COMMANDS = {
    "count": (
        _cmd_count,
        "print N_1..N_n",
        _COUNTING_BUDGET,
        (
            (("spec",), {"help": "variety spec JSON file"}),
            (("-n", "--terms"), {"type": _int_at_least(1), "required": True}),
        ),
    ),
    "zeta": (
        _cmd_zeta,
        "zeta function, weight factors, checks",
        _COUNTING_BUDGET,
        (
            (("spec",), {"help": "variety spec JSON file"}),
            (("--profile",), {"required": True, "help": "cohomology profile JSON file"}),
            (
                ("--extra-terms",),
                {
                    "type": _int_at_least(0),
                    "default": 0,
                    "help": "extra counts beyond the minimum, used as consistency checks",
                },
            ),
        ),
    ),
    "compare": (
        _cmd_compare,
        "EQUAL or DIFFER",
        _COUNTING_BUDGET,
        ((("spec_a",), {}), (("spec_b",), {}), (("--profile",), {"required": True})),
    ),
    "find-pair": (
        _cmd_find_pair,
        "equal-zeta non-isomorphic curve pairs",
        "max models and points the search may visit, reckoned as an upper "
        "bound of (3p+6)p per prime: p^2 models, p points of N_1 per class; "
        "the search does less (default 10^8)",
        (
            (("--p-min",), {"type": int, "default": 5}),
            (("--p-max",), {"type": int, "default": 31}),
        ),
    ),
    "solve": (
        _cmd_solve,
        "forced trace equalities in dimension d",
        None,
        (
            (("-d",), {"type": int, "required": True, "help": "dimension, 1..--max-d"}),
            *(
                ((flag,), {"action": argparse.BooleanOptionalAction, "default": True})
                for flag in ("--albanese", "--hard-lefschetz", "--trivial")
            ),
            (("--max-d",), {"type": int, "default": 8}),
        ),
    ),
}


def _arguments(name):
    """(flags, argparse keywords) of each argument of a subcommand, in help order."""
    _, _, budget, arguments = _COMMANDS[name]
    yield ("--format",), {"choices": ("human", "json"), "default": "human", "help": "output format"}
    if budget:
        yield ("--budget",), {"type": int, "default": DEFAULT_BUDGET, "help": budget}
    yield from arguments


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command table, built at most once per process.

    Calls reach it only for help, usage errors and the argv forms that the
    strict reader leaves to argparse."""
    parser = _Parser(
        prog="fqzeta",
        description="Zeta functions over finite fields and forced trace equalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, _, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_line)
        for flags, keywords in _arguments(name):
            cmd.add_argument(*flags, **keywords)
        cmd.set_defaults(func=func)
    return parser


def _dest(flags) -> str:
    # As argparse derives it: a positional's own name; for an option, its
    # first long option string (else its first one) without the leading
    # dashes and with "-" read as "_".
    if not flags[0].startswith("-"):
        return flags[0]
    name = next((flag for flag in flags if flag.startswith("--")), flags[0])
    return name.lstrip("-").replace("-", "_")


@functools.cache
def _grammar(name):
    """What the strict reader needs of a subcommand, from the table.

    switches: option string -> (dest, value) for each form of a
    BooleanOptionalAction (--x stores True, --no-x False); options: option
    string -> (dest, keywords) for an option that takes one value;
    positionals: (dest, keywords) in order; defaults: the namespace of a call
    that gives no argument; required: the dests a call must give."""
    switches, options, positionals, required = {}, {}, [], set()
    defaults = {"command": name, "func": _COMMANDS[name][0]}
    for flags, keywords in _arguments(name):
        dest = _dest(flags)
        defaults[dest] = keywords.get("default")
        if not flags[0].startswith("-"):
            positionals.append((dest, keywords))
            required.add(dest)
            continue
        if keywords.get("required"):
            required.add(dest)
        if keywords.get("action") is argparse.BooleanOptionalAction:
            switches.update({flag: (dest, True) for flag in flags})
            switches.update({"--no-" + flag[2:]: (dest, False) for flag in flags})
        else:
            options.update(dict.fromkeys(flags, (dest, keywords)))
    return switches, options, positionals, defaults, required


def _read_strictly(argv):
    """The namespace argparse makes of a well-formed argv, or None.

    Well formed: a subcommand name, then in any order exact option strings of
    that subcommand, each followed by one value that does not begin with "-"
    (a BooleanOptionalAction's forms by none), and exactly its positionals.
    Values go through the table's type callables and choices.  Every other
    argv, valid or not, returns None and is left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    switches, options, positionals, defaults, required = _grammar(argv[0])
    values, missing = dict(defaults), set(required)
    tokens, pending = iter(argv[1:]), iter(positionals)
    for token in tokens:
        if token in switches:
            dest, value = switches[token]
        else:
            if token in options:
                dest, keywords = options[token]
                token = next(tokens, "-")
            else:
                dest, keywords = next(pending, (None, None))
            if dest is None or token.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(token)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            choices = keywords.get("choices")
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        missing.discard(dest)
    return None if missing else argparse.Namespace(**values)


def _parse_args(argv):
    # A call that needs the parser builds it once per process, and every
    # later main call reuses it: parsing leaves no state in it, and argparse
    # looks up sys.stdout and sys.stderr only when it prints.
    if argv is None:
        argv = sys.argv[1:]
    args = _read_strictly(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.command == "solve" and not 1 <= args.d <= args.max_d:
        build_parser().error(f"argument -d: must be in 1..{args.max_d}, got {args.d}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except MalformedSpecError as exc:
        print(f"malformed spec: {exc}", file=sys.stderr)
        return EXIT_MALFORMED_SPEC
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _FIT_ERRORS as exc:
        print(f"no consistent zeta fit: {exc}", file=sys.stderr)
        return EXIT_NO_FIT
    except DualityViolationError as exc:
        print(f"duality violation: {exc}", file=sys.stderr)
        return EXIT_DUALITY
    except (FqZetaError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
