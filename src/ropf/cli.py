"""Command-line interface.

Commands: validate, powerflow, ropf, pricing. Exit codes: 0 success,
1 validation violations, 2 unreadable or malformed case data,
3 power flow or dispatch did not reach a feasible answer. With
--output-format machine-readable the output is JSON that is byte-identical
across runs with the same arguments except for the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from .dispatch import (
    DispatchError,
    baseline_loss,
    render_text,
    report_to_dict,
    run_pricing,
    run_ropf,
)
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
    body = {
        "bus_ids": [b.id for b in case.buses],
        "bus_voltages_pu": [float(x) for x in solution.v],
        "bus_angles_rad": [float(x) for x in solution.delta],
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


def _cmd_ropf(args: argparse.Namespace) -> int:
    case = _load_case(args.case_path)
    report = run_ropf(case, _search(args))
    _emit(args, report_to_dict(report), render_text(report))
    return OK if report.feasible else EXIT_NO_CONVERGENCE


def _cmd_pricing(args: argparse.Namespace) -> int:
    case = _load_case(args.case_path)
    report, payments = run_pricing(case, _search(args))
    _emit(args, report_to_dict(report, payments), render_text(report, payments))
    return OK if report.feasible else EXIT_NO_CONVERGENCE


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "powerflow": _cmd_powerflow,
        "ropf": _cmd_ropf,
        "pricing": _cmd_pricing,
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
