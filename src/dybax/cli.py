"""Command-line front end: catalog constructors, fusion/exchange pipelines,
residual verification, classical limits, Macdonald tools, and the
acceptance-table runner.

Batch only; artifacts are canonical JSON on stdout or a file, logs go to
stderr.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage errors,
3 precondition violations.  An option that the chosen command, `verify`
equation, `macdonald` action or catalog family does not read is a usage
error at any value, its default included.  The `verify` and `macdonald`
options follow the equation or action: `dybax macdonald operator --n 3`.
A file named by `--output` is truncated before the work, so an unwritable
one is a usage error at once.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations

from . import serialize
from .catalog import (
    BDTriple,
    CatalogError,
    appendixA_r,
    basic_rational_r,
    basic_trig_r,
    classical_r_trig_X,
    classical_r_zero_coupling,
    glN_closed_forms,
    quantum_R_X,
    quantum_R_eps_X,
)
from .fusion import (
    abrr_fusion,
    classical_limit,
    exchange_matrix,
    fusion_exchange_construction,
    shapovalov_vs_fusion,
)
from .macdonald import (
    corollary91_check,
    macdonald_operator,
    macdonald_polynomial,
    trace_residuals,
)
from .reps import ext_power, sym_power, vector_rep
from .rootdata import RootDatumError, build_type_A
from .scalars import ScalarError, context_stats
from .verify import (
    PreconditionError,
    VerifyError,
    cdybe_residual,
    dynamical_hecke_rep,
    family_cases,
    family_check,
    hecke_check,
    qdybe_residual,
    unitarity_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def _emit(args, payload):
    text = serialize.dumps(payload)
    if args.output:
        _write_output(args.output, text)
    else:
        sys.stdout.write(text)


def _write_output(path, text):
    """Write text to the --output file, truncating it; an OSError is a
    usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"--output {path}: {exc.strerror}") from None


def _parse_subset(text, upper):
    """Comma-separated indices, each in 1..upper; None (an absent option) is
    the empty list."""
    try:
        out = [int(x) for x in (text or "").split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None
    for x in out:
        if not 1 <= x <= upper:
            raise argparse.ArgumentTypeError(f"index {x} is not in 1..{upper}")
    return out


def _parse_vectors(text):
    """Semicolon-separated vectors of comma-separated rationals; None (an
    absent option) is the empty list."""
    try:
        return [tuple(Fraction(x) for x in chunk.split(","))
                for chunk in (text or "").split(";") if chunk]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a list of rational vectors: {text!r}") from None


def _datum(args):
    return build_type_A(args.n, args.flavor)


def _appendix_a(args, datum):
    gamma1 = [x - 1 for x in _parse_subset(args.gamma1, datum.rank)]
    gamma2 = [x - 1 for x in _parse_subset(args.gamma2, datum.rank)]
    tau = dict(zip(gamma1, gamma2))
    return appendixA_r(BDTriple(datum, gamma1, gamma2, tau, _parse_vectors(args.l_basis)))


def _closed_form(args, datum):
    # `limit` has no --quantum: it expands quantum solutions only; `catalog`
    # and `verify` build the classical forms unless --quantum is passed
    j, r = glN_closed_forms(datum.n, bool(getattr(args, "quantum", True)))
    return j if args.part == "J" else r


# The options that select a member of a solution family.  They have no
# default, so an option that was passed is seen at any value; an absent list
# is empty and an absent --part is R.
FAMILY_OPTIONS = ("X", "roots", "gamma1", "gamma2", "l_basis", "quantum", "part")

# name: (is_quantum, builder(args, datum), the family options it reads)
FAMILIES = {
    "basic-rational": (False, lambda args, datum: basic_rational_r(datum), ()),
    "basic-trig": (False, lambda args, datum: basic_trig_r(datum), ()),
    "r-l": (False, lambda args, datum: classical_r_zero_coupling(
        datum, _parse_vectors(args.roots)), ("roots",)),
    "r-eps-X": (False, lambda args, datum: classical_r_trig_X(
        datum, [x - 1 for x in _parse_subset(args.X, datum.rank)]), ("X",)),
    "appA": (False, _appendix_a, ("gamma1", "gamma2", "l_basis")),
    "R-X": (True, lambda args, datum: quantum_R_X(
        datum.n, _parse_subset(args.X, datum.n)), ("X",)),
    "R-eps-X": (True, lambda args, datum: quantum_R_eps_X(
        datum.n, _parse_subset(args.X, datum.n)), ("X",)),
    "gl-closed-form": (True, _closed_form, ("quantum", "part")),
}


def _family(args, quantum):
    """The member of family args.name: a quantum DynOp or a classical
    r-matrix, as `quantum` asks."""
    is_quantum, build, reads = FAMILIES.get(args.name, (None, None, ()))
    if is_quantum is not quantum:
        raise argparse.ArgumentTypeError(
            f"unknown {'quantum' if quantum else 'classical'} catalog name {args.name}")
    for dest in FAMILY_OPTIONS:
        if getattr(args, dest, None) is not None and dest not in reads:
            readers = [name for name, (_, _, r) in FAMILIES.items() if dest in r]
            raise argparse.ArgumentTypeError(
                f"--{dest.replace('_', '-')} is read only by {', '.join(readers)}")
    if quantum and args.flavor != "gl":
        raise argparse.ArgumentTypeError(f"--flavor {args.flavor}: {args.name} is a gl_n family")
    return build(args, _datum(args))


def cmd_datum(args):
    _emit(args, serialize.datum_json(_datum(args)))
    return EXIT_OK


def cmd_module(args):
    datum = _datum(args)
    module = _module(datum, args.spec, args.quantum)
    _emit(args, serialize.module_json(module))
    return EXIT_OK


def cmd_catalog(args):
    if FAMILIES[args.name][0]:
        _emit(args, serialize.dynop_json(_family(args, True), name=args.name))
    else:
        _emit(args, serialize.classical_r_json(_family(args, False)))
    return EXIT_OK


def _module(datum, spec, quantum):
    v = vector_rep(datum, quantum)
    if spec == "vec":
        return v
    kind, k = spec[:3], spec[3:]
    if kind not in ("sym", "ext") or not k.isdecimal() or \
            (kind == "ext" and int(k) > v.dim):
        raise argparse.ArgumentTypeError(
            f"unknown module spec {spec!r}: want vec, sym<k> or ext<k> with k <= {v.dim}")
    return (sym_power if kind == "sym" else ext_power)(v, int(k))


def cmd_fusion(args):
    datum = _datum(args)
    specs = args.modules.split(",")
    if len(specs) != 2:
        raise argparse.ArgumentTypeError(f"--modules {args.modules!r} is not two specs")
    m1, m2 = (_module(datum, spec, args.quantum) for spec in specs)
    payload = {"schema": serialize.SCHEMA, "kind": "fusion-result"}
    status = EXIT_OK
    if args.method in ("exchange", "both"):
        j = fusion_exchange_construction(m1, m2)
        payload["J_exchange"] = serialize.dynop_json(j, "J (intertwiners)")
        payload["R"] = serialize.dynop_json(exchange_matrix(m1, m2), "R")
    if args.method in ("abrr", "both"):
        ja = abrr_fusion(m1, m2)
        payload["J_abrr"] = serialize.dynop_json(ja, "J (ABRR)")
    if args.method == "both":
        agree = (j.mat - ja.mat).is_zero
        payload["methods_agree"] = agree
        if not agree:
            status = EXIT_CHECK_FAILED
    _emit(args, payload)
    return status


def _hecke_operand(args):
    """The operator and parameter q of the Hecke checks, which read PR = 1 on
    V_a (x) V_a and (PR - 1)(PR + q) = 0.  R_X and R^eps_X are in that
    normalization, with q the field's q (1 classically).  The gl_n
    closed-form R has q on V_a (x) V_a and PR eigenvalues q and -q^-1, so
    R/q is checked, with parameter q^-2."""
    op = _family(args, True)
    q = op.ctx.q_power(1)
    if args.name == "gl-closed-form" and args.part != "J":
        return op * (1 / q), q ** -2
    return op, q


def _hecke_rep(args):
    op, q = _hecke_operand(args)
    return dynamical_hecke_rep(op, args.p, q, name=args.name)[1]


# equation: the residual report of its check
VERIFY_CHECKS = {
    "qdybe": lambda args: qdybe_residual(_family(args, True), name=args.name),
    "cdybe": lambda args: cdybe_residual(_family(args, False)),
    "hecke": lambda args: hecke_check(*_hecke_operand(args), name=args.name),
    "unitarity": lambda args: unitarity_check(_family(args, False)),
    "hecke-rep": _hecke_rep,
}


def cmd_verify(args):
    report = VERIFY_CHECKS[args.equation](args)
    payload = {"schema": serialize.SCHEMA, "kind": "verification",
               "reports": [serialize.report_json(report)]}
    _emit(args, payload)
    return EXIT_OK if report.exact_zero else EXIT_CHECK_FAILED


def cmd_verify_suite(args):
    """QDYBE + Hecke for every X subset of {1..n}, both quantum families."""
    if args.n < 2:
        raise PreconditionError(f"--n {args.n} checks no family; need n >= 2")
    cases = family_cases(args.n)
    results = [family_check(c) for c in cases]
    payload = {"schema": serialize.SCHEMA, "kind": "verification-suite",
               "results": [{"family": k, "n": n, "X": x, "pass": ok}
                           for (k, n, x), ok in zip(cases, results)]}
    _emit(args, payload)
    return EXIT_OK if all(results) else EXIT_CHECK_FAILED


def cmd_limit(args):
    least = 1 if args.check_eq4 else 0     # --check-eq4 reads the order-gamma term
    if args.order < least:
        raise argparse.ArgumentTypeError(f"--order {args.order} is below {least}")
    op = _family(args, True)
    mats = classical_limit(op, args.order)
    payload = serialize.gamma_series_json(mats, name=f"{args.name} gamma-series")
    status = EXIT_OK
    if args.check_eq4:
        datum = build_type_A(args.n, "gl")
        v = vector_rep(datum)
        r_eps = basic_trig_r(datum).evaluate(v, v)
        ident_ok = mats[0].is_identity()
        order1 = mats[1] + r_eps.mat
        payload["constant_term_is_identity"] = ident_ok
        payload["order_gamma_matches_minus_r_eps"] = order1.is_zero
        if not (ident_ok and order1.is_zero):
            status = EXIT_CHECK_FAILED
    _emit(args, payload)
    return status


def cmd_shapovalov(args):
    if args.depth < 0:
        raise PreconditionError(f"depth {args.depth} compares no Gram entry; need depth >= 0")
    datum = build_type_A(2, "sl")
    residuals = shapovalov_vs_fusion(datum, args.depth, args.quantum)
    ok = all(r.is_zero for r in residuals)
    payload = {"schema": serialize.SCHEMA, "kind": "shapovalov-comparison",
               "depth": args.depth, "quantum": args.quantum,
               "residuals": [r.to_text() for r in residuals], "pass": ok}
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _macdonald_m(args):
    if args.m < 0:
        raise argparse.ArgumentTypeError(f"--m {args.m} is below 0")
    return args.m


def cmd_operator(args):
    m = _macdonald_m(args)
    if not 1 <= args.r <= args.n:
        raise argparse.ArgumentTypeError(f"--r {args.r} is not in 1..{args.n}")
    op = macdonald_operator(args.n, args.r, m)
    _emit(args, serialize.diffop_json(op, f"M_{args.r} (n={args.n}, m={m})"))
    return EXIT_OK


def cmd_polynomial(args):
    m = _macdonald_m(args)
    parts = args.mu.split(",")
    mu = tuple(int(x) for x in parts if x.strip().isdecimal())
    if len(mu) != len(parts) or len(mu) > args.n or \
            list(mu) != sorted(mu, reverse=True):
        raise argparse.ArgumentTypeError(
            f"--mu {args.mu!r} is not a partition with at most {args.n} parts")
    coeffs = macdonald_polynomial(args.n, mu, m)
    payload = {"schema": serialize.SCHEMA, "kind": "macdonald-polynomial",
               "mu": list(mu), "m": m,
               "monomial_coefficients": {
                   ",".join(map(str, nu)): c.to_text()
                   for nu, c in sorted(coeffs.items())}}
    _emit(args, payload)
    return EXIT_OK


def cmd_commute(args):
    m = _macdonald_m(args)
    if args.n < 2:
        raise PreconditionError(f"--n {args.n} has no pair of operators; need n >= 2")
    ops = [macdonald_operator(args.n, r, m) for r in range(1, args.n + 1)]
    ok = all((a * b - b * a).is_zero for a, b in combinations(ops, 2))
    _emit(args, {"schema": serialize.SCHEMA, "kind": "macdonald-commute",
                 "n": args.n, "m": m, "pass": ok})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_corollary91(args):
    m = _macdonald_m(args)
    ok, lhs, rhs = corollary91_check(m)
    payload = {"schema": serialize.SCHEMA, "kind": "corollary-9-1",
               "m": m, "pass": ok,
               "lhs": serialize.diffop_json(lhs, "transfer side"),
               "rhs": serialize.diffop_json(rhs, "macdonald side")}
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_trace_residual(args):
    ok1, ok2, bad = trace_residuals(args.depth, args.order, args.biorder)
    payload = {"schema": serialize.SCHEMA, "kind": "trace-residuals",
               "macdonald_ruijsenaars": ok1, "dual": ok2,
               "symmetry_mismatches": [list(b) for b in bad]}
    _emit(args, payload)
    return EXIT_OK if ok1 and ok2 and not bad else EXIT_CHECK_FAILED


def cmd_acceptance(args):
    from . import acceptance
    results = acceptance.run(args.criterion)
    if not results:
        raise argparse.ArgumentTypeError(f"no acceptance criterion {args.criterion}")
    for name, ok, seconds in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({seconds:.1f}s)",
              file=sys.stderr)
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dybax",
        description="exact workbench for dynamical Yang-Baxter structures")
    parser.add_argument("--stats", action="store_true",
                        help="write the field-operation counts as one JSON line to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, flavor_default="gl"):
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--flavor", choices=("gl", "sl"), default=flavor_default)
        p.add_argument("--output", "-o", default=None)

    def family_options(p, dests=FAMILY_OPTIONS):
        for dest in dests:
            flag = "--" + dest.replace("_", "-")
            if dest == "quantum":
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, choices=("J", "R") if dest == "part" else None)

    p = sub.add_parser("datum", help="dump a type-A root datum")
    common(p)
    p.set_defaults(func=cmd_datum)

    p = sub.add_parser("module", help="dump a weight module")
    common(p)
    p.add_argument("--spec", default="vec")
    p.add_argument("--quantum", action="store_true")
    p.set_defaults(func=cmd_module)

    p = sub.add_parser("catalog", help="construct a solution family")
    p.add_argument("name", choices=FAMILIES)
    common(p)
    family_options(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("fusion", help="fusion/exchange matrices by either pipeline")
    common(p, flavor_default="sl")
    p.add_argument("--quantum", action="store_true")
    p.add_argument("--modules", default="vec,vec")
    p.add_argument("--method", choices=("exchange", "abrr", "both"), default="both")
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("verify", help="exact residual check of one equation")
    equations = p.add_subparsers(dest="equation", required=True)
    for equation in VERIFY_CHECKS:
        e = equations.add_parser(equation)
        e.add_argument("--catalog", dest="name", required=True)
        common(e)
        family_options(e)
        e.set_defaults(func=cmd_verify)
    equations.choices["hecke-rep"].add_argument("--p", type=int, default=3)

    p = sub.add_parser("verify-suite",
                       help="QDYBE+Hecke for all X subsets up to rank n")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_verify_suite)

    p = sub.add_parser("limit", help="gamma-expansion of a quantum solution")
    p.add_argument("--catalog", dest="name", required=True,
                   choices=[name for name, (quantum, _, _) in FAMILIES.items() if quantum])
    common(p)
    family_options(p, ("X", "part"))
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--check-eq4", action="store_true")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("shapovalov", help="inverse Shapovalov vs universal J(0)")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--quantum", action="store_true")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_shapovalov)

    p = sub.add_parser("macdonald", help="Macdonald operators and trace residuals")
    actions = p.add_subparsers(dest="action", required=True)
    options = {"n": 2, "r": 1, "m": 0, "mu": "1,0", "depth": 3, "order": 3, "biorder": 2}
    for action, func, dests in (("operator", cmd_operator, "n r m"),
                                ("polynomial", cmd_polynomial, "n mu m"),
                                ("commute", cmd_commute, "n m"),
                                ("corollary91", cmd_corollary91, "m"),
                                ("trace-residual", cmd_trace_residual, "depth order biorder")):
        a = actions.add_parser(action)
        for dest in dests.split():
            a.add_argument(f"--{dest}", type=type(options[dest]), default=options[dest])
        a.add_argument("--output", "-o", default=None)
        a.set_defaults(func=func)

    p = sub.add_parser("acceptance", help="run the acceptance criteria")
    p.add_argument("--criterion", type=int, default=None)
    p.set_defaults(func=cmd_acceptance)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "output", None):
            # truncated before the work: an unwritable path fails at once
            _write_output(args.output, "")
        return args.func(args)
    except (PreconditionError,) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (CatalogError, VerifyError, RootDatumError, ScalarError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if args.stats:
            print(json.dumps({"scalars": context_stats()}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
