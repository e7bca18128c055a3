"""Command-line front end.

Subcommands: solve-rs, solve-pp, solve-ro, compare, evaluate, sweep,
tau-equiv.  References and true distributions are given as JSON files or
inline JSON.  Reports are written as JSON (schema "1"); mechanism tables as
CSV with header v,q,m,surplus.  Exit codes: 0 success, 1 usage error,
2 infeasible target or radius.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, pp_solver, ro_solver, rs_solver
from .distributions import ValuationDistribution, from_json
from .errors import (
    DomainError,
    InfeasibleTargetError,
    RadiusTooLargeError,
    RobustMechError,
)
from .mechanisms import Mechanism

SCHEMA = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the report schema reserves 2 for
    # infeasibility, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_usage_error(message))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load_dist(spec: str) -> ValuationDistribution:
    text = spec
    path = Path(spec)
    try:
        if path.exists() and path.is_file():
            text = path.read_text()
    except OSError:
        pass
    return from_json(text)


def _emit(report: dict, out: str | None) -> None:
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _mechanism_table(mech: Mechanism, points: int) -> list[list[float]]:
    grid = np.linspace(0.0, 1.0, points)
    q = mech.allocation(grid)
    m = mech.payment(grid)
    s = mech.buyer_surplus(grid)
    return [
        [float(v), float(qq), float(mm), float(ss)]
        for v, qq, mm, ss in zip(grid, q, m, s)
    ]


def _write_table(rows: list[list[float]], path: str) -> None:
    lines = ["v,q,m,surplus"]
    lines.extend(f"{v!r},{q!r},{m!r},{s!r}" for v, q, m, s in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _base_report(args, ref: ValuationDistribution) -> dict:
    return {
        "schema": SCHEMA,
        "command": args.command,
        "reference": ref.to_json(),
        "seed": args.seed,
    }


#: subcommand -> (solver module, function name, name of its second argument);
#: the solver is looked up on its module at call time, so a wrapper installed
#: there after import is the one that runs
_SOLVERS = {
    "solve-rs": (rs_solver, "solve", "tau"),
    "solve-pp": (pp_solver, "solve_pp", "tau"),
    "solve-ro": (ro_solver, "solve_ro", "r"),
}


def _cmd_solve(args) -> int:
    ref = _load_dist(args.reference)
    module, name, arg = _SOLVERS[args.command]
    report = getattr(module, name)(ref, getattr(args, arg))
    out = _base_report(args, ref)
    out.update(report.to_json())
    out["mechanism_table"] = rows = _mechanism_table(report.mechanism, args.table_points)
    _emit(out, args.out)
    if args.table:
        _write_table(rows, args.table)
    return EXIT_OK


def _cmd_tau_equiv(args) -> int:
    ref = _load_dist(args.reference)
    value = ro_solver.tau_equiv(ref, args.r)
    out = _base_report(args, ref)
    out.update({"r": args.r, "tau_equiv": value})
    _emit(out, args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    ref = _load_dist(args.reference)
    if (args.tau is None) == (args.r is None):
        return _usage_error("compare needs exactly one of --tau or --r")
    r = args.r if args.tau is None else ro_solver.radius_for_target(ref, args.tau)
    ro_rep = ro_solver.solve_ro(ref, r)
    # under --r the target is the worst-case revenue at that radius
    tau = ro_rep.pi_ro_star if args.tau is None else args.tau
    ro_mech = ro_rep.mechanism
    rs_rep = rs_solver.solve(ref, tau)
    pp_rep = pp_solver.solve_pp(ref, tau)
    crossings = evaluation.crossing_thresholds(rs_rep.mechanism, ro_mech)
    out = _base_report(args, ref)
    out.update(
        {
            "tau": tau,
            "r": r,
            "rs": rs_rep.to_json(),
            "pp": pp_rep.to_json(),
            "ro_mechanism": ro_mech.to_json(),
            "rs_vs_ro_crossings": crossings.to_json(),
            "rs_price_stats": rs_rep.mechanism.price_statistics().to_json(),
            "ro_price_stats": ro_mech.price_statistics().to_json(),
        }
    )
    if args.true:
        truth = _load_dist(args.true)
        out["out_of_sample"] = {
            "true_dist": truth.to_json(),
            "rev_rs": evaluation.expected_revenue(
                rs_rep.mechanism, truth
            ).expected_revenue,
            "rev_ro": evaluation.expected_revenue(ro_mech, truth).expected_revenue,
            "rev_pp": evaluation.expected_revenue(
                pp_rep.mechanism, truth
            ).expected_revenue,
        }
    _emit(out, args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    ref = _load_dist(args.reference)
    truth = _load_dist(args.true)
    opt = rs_solver.solve(ref, args.tau).mechanism
    pp = pp_solver.solve_pp(ref, args.tau).mechanism
    rs_opt = evaluation.expected_revenue(opt, truth)
    rs_pp = evaluation.expected_revenue(pp, truth)
    reports = {"rs_opt": rs_opt.to_json(), "rs_pp": rs_pp.to_json()}
    if args.mc_n:
        reports["rs_opt_mc"] = evaluation.expected_revenue(
            opt, truth, "monte_carlo", mc_n=args.mc_n, seed=args.seed
        ).to_json()
        reports["rs_pp_mc"] = evaluation.expected_revenue(
            pp, truth, "monte_carlo", mc_n=args.mc_n, seed=args.seed
        ).to_json()
    out = _base_report(args, ref)
    out.update(
        {
            "tau": args.tau,
            "true_dist": truth.to_json(),
            "reports": reports,
            "eta_rs": evaluation.revenue_ratio(rs_pp.expected_revenue, rs_opt.expected_revenue),
        }
    )
    _emit(out, args.out)
    return EXIT_OK


def _parse_grid(spec: str | None) -> evaluation.SweepConfig:
    if not spec:
        return evaluation.SweepConfig()
    names = {"alphas": None, "betas": None, "taus": None}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DomainError(f"bad grid component {part!r}")
        key, _, values = part.partition("=")
        key = key.strip()
        if key not in names:
            raise DomainError(f"unknown grid key {key!r} (use alphas/betas/taus)")
        names[key] = tuple(float(tok) for tok in values.split(",") if tok.strip())
    base = evaluation.SweepConfig()
    return evaluation.SweepConfig(
        alphas=names["alphas"] or base.alphas,
        betas=names["betas"] or base.betas,
        tau_fracs=names["taus"] or base.tau_fracs,
    )


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    ref = _load_dist(args.reference)
    config = dataclasses.replace(grid, reference=ref, seed=args.seed, mc_n=args.mc_n)
    cells = evaluation.beta_sweep(config)
    out = _base_report(args, ref)
    out.update(
        {
            "grid": config.to_json(),
            "cells": [c.to_json() for c in cells],
        }
    )
    _emit(out, args.out)
    if args.csv:
        Path(args.csv).write_text(evaluation.sweep_csv(cells))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robustmech", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tau=False, r=False, true=False, required=True, table=False):
        p.add_argument(
            "--reference", required=True, help="distribution JSON (path or inline)"
        )
        if tau:
            p.add_argument("--tau", type=float, required=required, help="revenue target")
        if r:
            p.add_argument("--r", type=float, required=required, help="ambiguity radius")
        if true:
            p.add_argument(
                "--true", required=required, help="true distribution JSON (path or inline)"
            )
        p.add_argument("--seed", type=int, default=42, help="PRNG seed (default 42)")
        p.add_argument("--out", help="write the JSON report here (default stdout)")
        if table:
            p.add_argument("--table", help="write a CSV mechanism table here")
            p.add_argument(
                "--table-points",
                type=int,
                default=201,
                help="rows in the mechanism table (default 201)",
            )

    common(sub.add_parser("solve-rs", help="optimal satisficing mechanism"), tau=True, table=True)
    common(sub.add_parser("solve-pp", help="optimal satisficing posted price"), tau=True, table=True)
    common(sub.add_parser("solve-ro", help="worst-case-optimal mechanism"), r=True, table=True)
    common(sub.add_parser("tau-equiv", help="framework-equivalence target"), r=True)
    cmp_p = sub.add_parser("compare", help="satisficing vs worst-case at matched target")
    common(cmp_p, tau=True, r=True, true=True, required=False)

    ev = sub.add_parser("evaluate", help="out-of-sample expected revenue")
    common(ev, tau=True, true=True)
    ev.add_argument("--mc-n", type=int, default=0, help="Monte Carlo sample size")

    sw = sub.add_parser("sweep", help="Beta-grid out-of-sample sweep")
    common(sw)
    sw.add_argument(
        "--grid", help='grid spec, e.g. "alphas=1,2,5;betas=1,5;taus=0.1,0.5,0.9"'
    )
    sw.add_argument("--csv", help="write sweep cells as CSV here")
    sw.add_argument("--mc-n", type=int, default=0, help="Monte Carlo sample size")
    return parser


_HANDLERS = {
    **dict.fromkeys(_SOLVERS, _cmd_solve),
    "tau-equiv": _cmd_tau_equiv,
    "compare": _cmd_compare,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a table needs both ends, v = 0 and v = 1; refused before any solve
    points = getattr(args, "table_points", 2)
    if points < 2:
        return _usage_error(f"--table-points must be an integer >= 2, got {points}")
    try:
        return _HANDLERS[args.command](args)
    except (InfeasibleTargetError, RadiusTooLargeError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (RobustMechError, OSError, ValueError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
