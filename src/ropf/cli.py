"""Command-line interface.

Commands: validate, powerflow, ropf, pricing. Exit codes: 0 success,
1 validation violations, 2 unreadable or malformed case data,
3 power flow or dispatch did not reach a feasible answer. With
--output-format machine-readable the output is JSON that is byte-identical
across runs with the same arguments except for the timestamp field.
Both layouts are written here, from a run's report, the parsed case and
the parsed arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from .dispatch import DispatchError, Payments, RopfReport, baseline_loss, run_pricing, run_ropf
from .netmodel import CaseError, NetworkCase, parse_case
from .pso import PsoParams

__all__ = ["build_parser", "main"]

OK = 0
EXIT_VIOLATIONS = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropf",
        description="Reactive power dispatch and pricing over an AC power flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The search settings and their defaults, from the dataclass that owns
    # them. Every command echoes them in its report's config, also the
    # commands that take no search flags.
    pso = PsoParams()
    search = {"seed": pso.seed, "swarm_size": pso.swarm_size, "iterations": pso.max_iterations}
    parser.set_defaults(**search)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("case_path", help="path to a case file")
        p.add_argument(
            "--output-format",
            choices=("text", "machine-readable"),
            default="text",
        )

    def add_search(p: argparse.ArgumentParser) -> None:
        for name, default in search.items():
            p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)

    add_common(sub.add_parser("validate", help="check a case file, list violations"))
    add_common(sub.add_parser("powerflow", help="solve the reference flow, print voltages"))
    p_ropf = sub.add_parser("ropf", help="optimize reactive dispatch")
    add_common(p_ropf)
    add_search(p_ropf)
    p_pricing = sub.add_parser("pricing", help="dispatch plus payment settlement")
    add_common(p_pricing)
    add_search(p_pricing)
    return parser


def _search(args: argparse.Namespace) -> PsoParams:
    return PsoParams(swarm_size=args.swarm_size, max_iterations=args.iterations, seed=args.seed)


def _load_case(path: str) -> NetworkCase:
    text = Path(path).read_text(encoding="utf-8")
    return parse_case(text)


def _emit(args: argparse.Namespace, body: dict, text: str) -> None:
    """Print the report; the machine-readable form embeds every parsed
    argument, which is everything that determines the run."""
    if args.output_format == "machine-readable":
        doc = {
            "config": vars(args),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        doc.update(body)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text, end="")


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        _load_case(args.case_path)
        violations = []
    except CaseError as exc:
        violations = list(exc.violations) or [str(exc)]
    body = {"violations": violations}
    lines = [f"violation: {v}" for v in violations]
    lines.append(f"{len(violations)} violation(s)")
    _emit(args, body, "\n".join(lines) + "\n")
    return EXIT_VIOLATIONS if violations else OK


def _cmd_powerflow(args: argparse.Namespace) -> int:
    case = _load_case(args.case_path)
    solution, loss = baseline_loss(case)
    slack = case.index_of(case.slack_bus().id)
    body = _buses(case, solution.v, solution.delta) | {
        "iterations": solution.iterations,
        "total_loss_pu": loss,
        "slack_p_pu": float(solution.p_injected[slack]),
        "slack_q_pu": float(solution.q_injected[slack]),
    }
    lines = [f"{'bus':>5}{'V (p.u.)':>12}{'angle (deg)':>14}"]
    for bus, v, d in zip(case.buses, solution.v, solution.delta):
        lines.append(f"{bus.id:>5}{v:>12.5f}{math.degrees(d):>14.4f}")
    lines.append(f"converged in {solution.iterations} iterations")
    lines.append(f"total loss  {loss:.6f} p.u.")
    _emit(args, body, "\n".join(lines) + "\n")
    return OK


def _cmd_dispatch(args: argparse.Namespace) -> int:
    """`ropf` runs one dispatch; `pricing` adds the settlement."""
    case = _load_case(args.case_path)
    params = _search(args)
    if args.command == "pricing":
        report, payments = run_pricing(case, params)
    else:
        report, payments = run_ropf(case, params), None
    _emit(args, _report_to_dict(report, case, payments), _render_text(report, params, payments))
    return OK if report.feasible else EXIT_NO_CONVERGENCE


def _buses(case: NetworkCase, v, delta) -> dict:
    """The bus keys of every solving command's JSON, in case bus order."""
    return {
        "bus_ids": [b.id for b in case.buses],
        "bus_voltages_pu": [float(x) for x in v],
        "bus_angles_rad": [float(x) for x in delta],
    }


def _report_to_dict(report: RopfReport, case: NetworkCase, payments: Payments | None = None) -> dict:
    """JSON-ready view of a dispatch report (plain lists and floats only)."""
    sources = zip(
        report.source_kinds, report.source_buses, report.var_requirements, report.cost_per_source
    )
    doc: dict = {
        "sources": [{"kind": k, "bus": b, "q_pu": q, "cost_per_h": c} for k, b, q, c in sources],
        "loss_before_pu": report.loss_before,
        "loss_after_pu": report.loss_after,
        "total_payment_per_h": report.total_payment,
        "feasible": report.feasible,
        "converged": report.converged,
        "gbest_fitness": report.gbest_fitness,
        "convergence_history": list(report.convergence_history),
        "seed": report.seed,
        **_buses(case, report.bus_voltages, report.bus_angles),
        "duty_cost_per_h": payments and payments.duty_cost,
        "load_allocated_per_h": payments and payments.load_allocated,
    }
    if payments is not None:
        doc["payments"] = {
            "generators": list(payments.generator_payments),
            "compensators": list(payments.compensator_payments),
            "duty_shares": list(payments.duty_shares),
            "total_per_h": payments.total,
        }
    return doc


def _render_text(report: RopfReport, params: PsoParams, payments: Payments | None = None) -> str:
    """Human-readable report: search settings, source table, losses, payment lines."""
    out: list[str] = []
    out.append("reactive support dispatch")
    out.append(f"seed {params.seed}  swarm {params.swarm_size}  iterations {params.max_iterations}")
    out.append("")
    out.append(f"{'source':<14}{'bus':>5}{'Q (p.u.)':>12}{'cost ($/h)':>14}")
    for kind, bus, q, cost in zip(
        report.source_kinds, report.source_buses, report.var_requirements, report.cost_per_source
    ):
        out.append(f"{kind:<14}{bus:>5}{q:>12.4f}{cost:>14.4f}")
    out.append("")
    out.append(f"power loss before compensation  {report.loss_before:.6f} p.u.")
    out.append(f"power loss after compensation   {report.loss_after:.6f} p.u.")
    out.append(f"payment to generators and compensators  {report.total_payment:.4f} $/h")
    out.append(f"feasible: {'yes' if report.feasible else 'NO'}")
    if payments is not None:
        out.append("")
        out.append(f"duty cost (unity power factor)  {payments.duty_cost:.4f} $/h")
        out.append(f"cost allocated to reactive loads  {payments.load_allocated:.4f} $/h")
        out.append("")
        out.append("settled payments ($/h)")
        paid = payments.generator_payments + payments.compensator_payments
        for kind, bus, pay in zip(report.source_kinds, report.source_buses, paid):
            out.append(f"  {kind} bus {bus:<4} {pay:>10.4f}")
        out.append(f"  total {payments.total:>10.4f}")
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "powerflow": _cmd_powerflow,
        "ropf": _cmd_dispatch,
        "pricing": _cmd_dispatch,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"error: cannot read case file {exc.filename!r}", file=sys.stderr)
        return EXIT_DATA
    except (CaseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DispatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
