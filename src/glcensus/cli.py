"""Command-line interface: census, series, limit, oracle, clique, verify.

Every subcommand prints JSON, except that census and verify print a
human-readable table unless --json is given.  Execution is sequential, so
every output is deterministic; limit lq prints its exact endpoints as
hexadecimal num/den.
Each oracle, clique omega and verify request runs under one oracle.Budget.
Their option --budget N caps group enumeration at N elements and scan work
at 5000*N steps (the defaults are 200000 and 10^9); clique omega --timeout S
caps its search at S seconds.  census, series and limit run no group work
and take no --budget.

Exit codes: 0 on success; 1 when a check or search the command ran fails;
2 when the request is refused or invalid (bad input or usage, a path that
cannot be opened, a budget, a regime with no closed formula, l(q) endpoints
over asympt.MAX_ENDPOINT_BITS), which prints one line of JSON {"error": ...}
on stdout.  A budget refused by any verify check refuses the whole verify
request, with exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from glcensus import asympt, census, clique, exactalg, oracle, qseries, verify


def _emit(data) -> None:
    print(json.dumps(data, indent=2))


def _budget_from_args(args, **limits) -> oracle.Budget:
    if args.budget is not None:
        limits.update(elements=args.budget, steps=args.budget * 5000)
    return oracle.Budget(**limits)


# --- census ------------------------------------------------------------------


def cmd_census(args) -> int:
    n = args.n
    class_count = census.phi_count(n)
    b_n = census.b_coefficient(n)
    a_poly = census.a_polynomial(n)
    payload: dict = {
        "n": n,
        "class_count": class_count,
        "b_n": exactalg.rf_to_json(b_n),
        "a_polynomial": exactalg.poly_to_json(a_poly),
    }
    if args.q is not None:
        q = args.q
        census.check_prime_power(q)
        value = a_poly.eval(q)
        regime = "exact count" if q > 2 else "upper bound"
        payload["q"] = q
        payload["subgroup_count"] = {"value": str(value), "regime": regime}
        omega_entry: dict = {}
        try:
            omega_entry = {"value": str(census.omega_closed(n, q)),
                           "regime": "exact (q > n)" if q > n else "exact (q = n > 2)"}
        except census.UnsupportedRegimeError as exc:
            omega_entry = {"value": None, "regime": f"unsupported: {exc}"}
        payload["omega"] = omega_entry
    if args.json:
        _emit(payload)
    else:
        print(f"n = {n}")
        print(f"  abelian-cover classes : {class_count}")
        print(f"  b_n                   : {b_n}")
        print(f"  subgroup count        : {a_poly}")
        if args.q is not None:
            sc = payload["subgroup_count"]
            print(f"  {f'at q = {args.q}':<21} : {sc['value']} ({sc['regime']})")
            om = payload["omega"]
            if om["value"] is not None:
                print(f"  omega                 : {om['value']} ({om['regime']})")
            else:
                print(f"  omega                 : {om['regime']}")
    return 0


# --- series ------------------------------------------------------------------


def cmd_series(args) -> int:
    which = args.which.lower()
    form = args.form
    order = args.order
    u_order = args.u_order
    if which == "fbar":
        if form != "exp":
            raise ValueError("Fbar is built from the exp forms; use --form exp")
        series = qseries.build_fbar(order)
    elif which == "f1":
        series = qseries.build_f1(order, form, u_order)
    elif which == "f2":
        series = qseries.build_f2(order, form, u_order)
    else:
        raise ValueError(f"unknown series {args.which!r}")
    if isinstance(series.ring, qseries.USeriesRing):
        coeffs = [{"u_order": c.u_order, "coeffs": [str(x) for x in c.coeffs]}
                  for c in series.coeffs]
    else:
        coeffs = [exactalg.rf_to_json(c) for c in series.coeffs]
    _emit({"which": args.which, "form": form, "order": order, "coefficients": coeffs})
    return 0


# --- limit -------------------------------------------------------------------


def _limit_q(text: str) -> Fraction:
    """The rational --q of both limit commands; a zero denominator is a
    ValueError, like any other malformed rational."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--q {text} has a zero denominator") from None


def cmd_limit_lq(args) -> int:
    q = _limit_q(args.q)
    iv = asympt.l_of_q(q, args.terms)
    _emit({
        "q": str(q),
        "terms": args.terms,
        # hexadecimal: the exact endpoints outgrow Python's decimal conversion limit
        "lo": f"{iv.lo.numerator:x}/{iv.lo.denominator:x}",
        "hi": f"{iv.hi.numerator:x}/{iv.hi.denominator:x}",
        "decimal_lo": asympt.fraction_to_decimal(iv.lo),
        "decimal_hi": asympt.fraction_to_decimal(iv.hi, round_up=True),
    })
    return 0


def cmd_limit_check(args) -> int:
    q = _limit_q(args.q)
    report = asympt.check_estimates(q, args.terms)
    _emit({
        "q": str(q),
        "terms": args.terms,
        "interval": [asympt.fraction_to_decimal(report.interval.lo),
                     asympt.fraction_to_decimal(report.interval.hi, round_up=True)],
        "verdicts": report.verdicts,
        "all_hold": report.all_hold,
    })
    return 0 if report.all_hold else 1


# --- oracle ------------------------------------------------------------------


def cmd_oracle(args) -> int:
    n, q = args.n, args.q
    oracle.check_degree(n)
    budget = _budget_from_args(args)
    task = args.task
    payload: dict = {"task": task, "n": n, "q": q}
    if task == "cyclic-proportion":
        c, bounds, ok = oracle.wall_bound_task(n, q, budget)
        payload.update({
            "proportion": f"{c.numerator}/{c.denominator}",
            "estimate_minus_error": str(bounds["estimate_minus_error"]),
            "expanded_lower": str(bounds["expanded_lower"]),
            "bound_holds": ok,
        })
    elif task == "centralizer-count":
        count, value, ok = oracle.centralizer_count_task(n, q, budget)
        payload.update({
            "distinct_centralizers": count,
            "census_value": value,
            "regime": "equality expected (q > n)" if q > n else "strict inequality expected (q <= n)",
            "as_expected": ok,
        })
    elif task == "regular-unipotent":
        order, expect_c, norm, expect_n, ok = oracle.regular_unipotent_task(n, q, budget)
        payload.update({
            "centralizer_order": order,
            "centralizer_expected": expect_c,
            "normalizer_order": norm,
            "normalizer_expected": expect_n,
            "as_expected": ok,
        })
    elif task == "remark-matrix":
        if (n, q) != (4, 2):
            raise ValueError("the witness matrix lives in GL_4(2); use --n 4 --q 2")
        order, expect, cyclic_members, ok = oracle.remark_matrix_task(budget)
        payload.update({
            "centralizer_order": order,
            "expected_order": expect,
            "cyclic_members": cyclic_members,
            "as_expected": ok,
        })
    elif task == "jm-check":
        cases, failures, ok = oracle.jm_check_task(q, budget)
        payload.update({"cases": cases, "failures": [{"f": list(f), "m": m} for f, m in failures],
                        "as_expected": ok})
    else:
        raise ValueError(f"unknown oracle task {task!r}")
    payload["status"] = "pass" if ok else "fail"
    _emit(payload)
    return 0 if ok else 1


# --- clique ------------------------------------------------------------------


def cmd_clique(args) -> int:
    budget = _budget_from_args(args, seconds=args.timeout)
    # the witness file is opened before the search, so a bad path costs
    # nothing, and emptied only after it; a refused search leaves an existing
    # file as it was and removes one this request created
    path = args.emit_witness
    created = bool(path) and not os.path.lexists(path)
    with open(path, "a") if path else contextlib.nullcontext() as handle:
        try:
            result, seed_size = clique.compute_omega(args.n, args.q, budget)
        except BaseException:
            if created:
                os.remove(path)
            raise
        if handle is not None:
            group = oracle.gl_group(args.n, args.q, budget)
            handle.truncate(0)
            for entries in group.decode(group.elements[list(result.witness)]).reshape(-1, args.n**2).tolist():
                handle.write(" ".join(map(str, entries)) + "\n")
    _emit({
        "n": args.n,
        "q": args.q,
        "omega": result.size,
        "optimal": result.optimal,
        "seed_size": seed_size,
        "upper_bound": result.upper_bound_used,
        "steps": result.steps,
        "classes": result.classes,
        "seconds": round(result.seconds, 3),
    })
    return 0 if result.optimal else 1


# --- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    report = verify.verify_all(
        level=args.level,
        seed=args.seed,
        golden_dir=args.golden_dir,
        budget=_budget_from_args(args),
        command="verify --level " + args.level,
    )
    if args.json:
        _emit(report.to_json())
    else:
        for c in report.checks:
            print(f"[{c.status:>12}] {c.check_id:<28} {c.seconds:7.2f}s  {c.detail}")
        fails = sum(1 for c in report.checks if c.status == verify.FAIL)
        print(f"-- {len(report.checks)} checks, {fails} failures --")
    return report.exit_code


# --- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is a refused request: raised, so main reports it as one."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    # --json may appear before or after the subcommand, so it lives in a
    # parent parser with a SUPPRESS default (the last occurrence wins);
    # --budget is an option of the subcommands that run group work
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="force JSON output")
    budgeted = argparse.ArgumentParser(add_help=False, parents=[common])
    budgeted.add_argument("--budget", type=int, default=None,
                          help="max group elements to enumerate (scan steps scale with it)")

    parser = _Parser(
        prog="glcensus",
        description="Exact census of the abelian covers of GL_n(q), with brute-force verification.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", parents=[common],
                       help="class counts, b_n and the census polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("series", help="expand the generating functions")
    series_sub = p.add_subparsers(dest="series_command", required=True)
    pe = series_sub.add_parser("expand", parents=[common])
    pe.add_argument("--which", choices=["F1", "F2", "Fbar", "f1", "f2", "fbar"], required=True)
    pe.add_argument("--form", choices=["exp", "sum", "product"], default="exp")
    pe.add_argument("--order", type=int, required=True)
    pe.add_argument("--u-order", dest="u_order", type=int, default=qseries.DEFAULT_U_ORDER)
    pe.set_defaults(func=cmd_series)

    p = sub.add_parser("limit", help="certified intervals for the growth constant")
    limit_sub = p.add_subparsers(dest="limit_command", required=True)
    pl = limit_sub.add_parser("lq", parents=[common])
    pl.add_argument("--q", required=True)
    pl.add_argument("--terms", type=int, default=asympt.DEFAULT_TERMS)
    pl.set_defaults(func=cmd_limit_lq)
    pc = limit_sub.add_parser("check", parents=[common])
    pc.add_argument("--q", required=True)
    pc.add_argument("--terms", type=int, default=asympt.DEFAULT_TERMS)
    pc.set_defaults(func=cmd_limit_check)

    p = sub.add_parser("oracle", parents=[budgeted],
                       help="brute-force checks over a small GL_n(q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--task", required=True, choices=[
        "cyclic-proportion", "centralizer-count", "regular-unipotent",
        "remark-matrix", "jm-check",
    ])
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("clique", help="exact clique number of the non-commuting graph")
    clique_sub = p.add_subparsers(dest="clique_command", required=True)
    po = clique_sub.add_parser("omega", parents=[budgeted])
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--q", type=int, required=True)
    po.add_argument("--timeout", type=float, default=60.0)
    po.add_argument("--emit-witness", dest="emit_witness", default=None)
    po.set_defaults(func=cmd_clique)

    p = sub.add_parser("verify", parents=[budgeted], help="run the verification suite")
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomised spot checks")
    p.add_argument("--golden-dir", dest="golden_dir", default=None,
                   help="override the packaged golden files (for testing)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.json = getattr(args, "json", False)
        return args.func(args)
    except (ValueError, OSError, oracle.BudgetError) as exc:
        # UnsupportedRegimeError and DivergenceError are ValueErrors; an
        # OSError is a path given on the command line that cannot be opened
        print(json.dumps({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
