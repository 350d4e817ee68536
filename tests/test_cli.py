"""Command-line front end: exit codes, output formats, determinism.

Exit code map: 0 success, 1 validation violations, 2 unreadable or
malformed input, 3 no converged/feasible result. Machine-readable output
must be byte-identical across reruns except for the timestamp field.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env, compensated_case, three_bus_case, two_bus_case
from test_dispatch import mk_report
from ropf.cli import _render_text, _report_to_dict, build_parser, main
from ropf.dispatch import allocate_payments, baseline_loss
from ropf.netmodel import CaseError, parse_case, serialize_case, validate_case
from ropf.pso import PsoParams

FAST = ["--swarm-size", "8", "--iterations", "10", "--seed", "3"]

SEARCH_DEFAULTS = {"seed": 1, "swarm_size": 30, "iterations": 300}


def write_case(tmp_path, case, name="net.case"):
    path = tmp_path / name
    path.write_text(serialize_case(case))
    return str(path)


def strip_timestamp(text):
    return re.sub(r'^\s*"timestamp": .*$', "", text, flags=re.MULTILINE)


def test_validate_fixture_passes(fixture_path, capsys):
    assert main(["validate", str(fixture_path)]) == 0
    assert "0 violation" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.case"
    path.write_text(
        "[BASE_MVA]\n100.0\n[BUS]\n1 load\n2 slack\n3 load\n[BRANCH]\n1 2 0.0 0.1 0.0\n"
    )
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "disconnected" in out


# An unknown load bus, inverted compensator limits, a negative rate and an
# island: four violations, each reported on its own.
FOUR_VIOLATIONS = """\
[BASE_MVA]
100.0
[BUS]
1 slack
2 compensator
3 load
[COMPENSATOR]
2 0.2 0.1 -1.0
[BRANCH]
1 2 0.0 0.1 0.0
[LOAD]
9 0.1 0.0
"""


def test_validate_lists_every_violation(tmp_path, capsys):
    path = tmp_path / "four.case"
    path.write_text(FOUR_VIOLATIONS)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("violation: ") == 4
    assert "load at bus 9: unknown bus 9" in out
    assert out.endswith("4 violation(s)\n")
    assert main(["validate", str(path), "--output-format", "machine-readable"]) == 1
    assert len(json.loads(capsys.readouterr().out)["violations"]) == 4


VALID_CASE = """\
[BASE_MVA]
100.0
[BUS]
1 generator
2 compensator
3 slack
[GENERATOR]
1 0.2 0.5 -0.3 0.3 45.0 750.0 450.0 0.07
[COMPENSATOR]
2 0.0 0.2 0.0354
[BRANCH]
1 2 0.01 0.05 0.0
[TRANSFORMER]
2 3 0.0 0.05 0.98
[LOAD]
2 0.1 0.02
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("3 slack\n", "3 slack\n3 load\n", "duplicate bus id 3"),
        ("1 generator", "1 slack", "duplicate slack"),
        ("1 generator", "1 turbine", "bus 1: unknown kind 'turbine'"),
        ("1 2 0.01", "1 9 0.01", "branch 1-9: unknown bus 9"),
        ("2 3 0.0", "2 9 0.0", "branch 2-9: unknown bus 9"),
        ("1 0.2 0.5", "9 0.2 0.5", "generator at bus 9: unknown bus 9"),
        ("2 0.0 0.2", "9 0.0 0.2", "compensator at bus 9: unknown bus 9"),
        ("2 0.0 0.2", "3 0.0 0.2", "compensator at bus 3: the slack bus"),
        ("2 0.1 0.02", "9 0.1 0.02", "load at bus 9: unknown bus 9"),
        ("100.0", "0", "base MVA must be positive"),
        ("[BUS]\n1 generator\n2 compensator\n3 slack\n", "", "case has no buses"),
        ("3 slack\n", "3 slack\n0 load\n", "bus 0: id must be positive"),
    ],
    ids=[
        "duplicate-bus-id", "duplicate-slack", "unknown-kind", "branch-bus", "transformer-bus",
        "generator-bus", "compensator-bus", "compensator-slack", "load-bus", "base-mva",
        "no-bus-section", "nonpositive-id",
    ],
)
def test_case_file_defects_are_violations(tmp_path, capsys, old, new, message):
    assert parse_case(VALID_CASE).n == 3
    text = VALID_CASE.replace(old, new, 1)
    with pytest.raises(CaseError) as exc:
        parse_case(text)
    assert any(message in v for v in exc.value.violations)
    path = tmp_path / "defect.case"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().out


def test_powerflow_rejects_a_tap_that_overflows_ybus(fixture_case, tmp_path, capsys):
    path = write_case(tmp_path, _spoil(fixture_case, "branches", "tap_ratio", 1e-200))
    assert main(["powerflow", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_powerflow_without_a_solution_exits_3(tmp_path, capsys):
    path = write_case(tmp_path, two_bus_case(p_load=100.0))
    assert main(["powerflow", path]) == 3
    assert capsys.readouterr().err.startswith("error: baseline power flow did not converge")


def test_missing_file_is_a_data_error(capsys):
    assert main(["validate", "does-not-exist.case"]) == 2
    assert "does-not-exist.case" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "powerflow"])
def test_unreadable_path_is_a_data_error(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 2
    assert "error: cannot read case file" in capsys.readouterr().err


def test_validate_reports_parse_defects_as_violations(tmp_path, capsys):
    path = tmp_path / "broken.case"
    path.write_text("[BASE_MVA]\nabc\n")
    assert main(["validate", str(path)]) == 1
    assert "violation" in capsys.readouterr().out


def test_malformed_file_is_a_data_error_for_solving(tmp_path, capsys):
    path = tmp_path / "broken.case"
    path.write_text("[BASE_MVA]\nabc\n")
    assert main(["powerflow", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.case"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--w-start", "--w-end", "--c1", "--c2", "--voltage-weight"])
def test_swarm_update_rule_is_not_a_flag(fixture_path, capsys, flag):
    # the inertia schedule and the acceleration coefficients are constants
    # of ropf.pso, and the voltage weight is ropf.dispatch.VOLTAGE_WEIGHT,
    # so their old flags are unknown options
    for command in ("ropf", "pricing"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(fixture_path), flag, "0.5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_powerflow_text_output(fixture_path, capsys):
    assert main(["powerflow", str(fixture_path)]) == 0
    out = capsys.readouterr().out
    assert "bus" in out
    assert "14" in out
    assert "0.079731" in out
    assert "converged" in out


def test_powerflow_json_roundtrips(fixture_path, capsys):
    assert main(["powerflow", str(fixture_path), "--output-format", "machine-readable"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["command"] == "powerflow"
    assert doc["total_loss_pu"] == pytest.approx(0.07973114908135254, rel=1e-9)
    assert len(doc["bus_voltages_pu"]) == 14


def test_powerflow_reports_the_slack_output_of_its_flow(fixture_case, fixture_path, capsys):
    # The slack keys are the slack entries of the reference flow's
    # injections, and so the balance: the loss plus the net demand of the
    # other buses, within one residual of each.
    assert main(["powerflow", str(fixture_path), "--output-format", "machine-readable"]) == 0
    doc = json.loads(capsys.readouterr().out)
    solution, _ = baseline_loss(fixture_case)
    slack_id = fixture_case.slack_bus().id
    slack = fixture_case.index_of(slack_id)
    assert doc["slack_p_pu"] == float(solution.p_injected[slack])
    assert doc["slack_q_pu"] == float(solution.q_injected[slack])
    demand = sum(load.p for load in fixture_case.loads if load.bus != slack_id)
    supply = sum(g.p_output for g in fixture_case.generators if g.bus != slack_id)
    bound = (fixture_case.n - 1) * solution.max_mismatch
    assert abs(doc["slack_p_pu"] - (doc["total_loss_pu"] + demand - supply)) <= bound


@pytest.mark.parametrize("command", ["ropf", "pricing"])
def test_machine_readable_is_deterministic_modulo_timestamp(command, tmp_path, capsys):
    path = write_case(tmp_path, compensated_case())
    argv = [command, path, "--output-format", "machine-readable", *FAST]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first != second  # timestamps differ
    assert strip_timestamp(first) == strip_timestamp(second)


def test_ropf_feasible_network_exits_zero(tmp_path, capsys):
    path = write_case(tmp_path, compensated_case())
    assert main(["ropf", path, *FAST]) == 0
    out = capsys.readouterr().out
    assert "feasible" in out.lower()
    assert "loss" in out.lower()


def test_ropf_fixture_flags_infeasible_run(fixture_path, capsys):
    argv = ["ropf", str(fixture_path), *FAST, "--output-format", "machine-readable"]
    assert main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is False
    assert doc["loss_after_pu"] > 0
    assert main(["powerflow", str(fixture_path), "--output-format", "machine-readable"]) == 0
    assert doc["bus_ids"] == json.loads(capsys.readouterr().out)["bus_ids"]


def test_infeasible_pricing_run_writes_nothing_to_stderr(fixture_path):
    # A subprocess, so no test plugin can take what the run writes: the
    # report on stdout and the exit code carry every fact of the run. The
    # child imports the same ropf as this test.
    proc = subprocess.run(
        [sys.executable, "-m", "ropf", "pricing", str(fixture_path), "--swarm-size", "4", "--iterations", "3"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 3
    assert "feasible: NO" in proc.stdout
    assert proc.stderr == ""


def test_negative_load_case_runs_with_nothing_on_stderr(tmp_path, fixture_text):
    # A negative load is a net injection: the case validates and runs, and
    # the parser says nothing about it on stderr.
    text, count = re.subn(r"(?m)^5\s+0\.076\s+0\.016$", "5 0.076 -0.016", fixture_text)
    assert count == 1
    path = tmp_path / "negative-load.case"
    path.write_text(text)
    runs = [["validate", str(path)], ["ropf", str(path), "--swarm-size", "4", "--iterations", "3"]]
    for args, codes in zip(runs, [(0,), (0, 3)]):
        proc = subprocess.run(
            [sys.executable, "-m", "ropf", *args], capture_output=True, text=True, timeout=120, env=child_env()
        )
        assert proc.returncode in codes, proc.stderr
        assert proc.stderr == ""


def test_pricing_emits_settlement(tmp_path, capsys):
    path = write_case(tmp_path, compensated_case())
    assert main(["pricing", path, *FAST, "--output-format", "machine-readable"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "payments" in doc
    assert doc["duty_cost_per_h"] >= 0.0
    total = sum(doc["payments"]["generators"]) + sum(doc["payments"]["compensators"])
    assert doc["payments"]["total_per_h"] == pytest.approx(total, abs=1e-9)
    # the load charge is reported once, at the top level
    assert doc["load_allocated_per_h"] == max(0.0, doc["total_payment_per_h"] - doc["duty_cost_per_h"])
    assert "load_allocated_per_h" not in doc["payments"]


def test_search_flags_are_echoed_in_config(tmp_path, capsys):
    path = write_case(tmp_path, compensated_case())
    flags = ["--seed", "9", "--swarm-size", "7", "--iterations", "6"]
    code = main(["ropf", path, *flags, "--output-format", "machine-readable"])
    assert code in (0, 3)
    doc = json.loads(capsys.readouterr().out)
    config = doc["config"]
    assert config["seed"] == 9
    assert config["swarm_size"] == 7
    assert config["iterations"] == 6
    # The text header echoes the same settings, for one run and for the settlement.
    for command in ("ropf", "pricing"):
        assert main([command, path, *flags]) in (0, 3)
        assert "\nseed 9  swarm 7  iterations 6\n" in capsys.readouterr().out


def test_report_to_dict_is_json_ready():
    report = mk_report(("generator", "compensator"), (1, 3), (3.0, 2.0))
    duty = mk_report(("generator", "compensator"), (1, 3), (1.0, 0.0))
    doc = _report_to_dict(report, three_bus_case(), allocate_payments(report, duty))
    text = json.dumps(doc)
    parsed = json.loads(text)
    assert parsed["total_payment_per_h"] == pytest.approx(5.0)
    assert len(parsed["sources"]) == 2
    assert "payments" in parsed


def test_render_text_mentions_the_essentials():
    report = mk_report(("generator", "compensator"), (1, 3), (3.0, 2.0))
    duty = mk_report(("generator", "compensator"), (1, 3), (1.0, 0.0))
    text = _render_text(report, PsoParams(), allocate_payments(report, duty))
    for needle in ("generator", "compensator", "loss", "feasible", "total"):
        assert needle in text.lower()
    # one payment line per source, in source order
    assert "\n  generator bus 1        2.0000\n  compensator bus 3        2.0000\n" in text


@pytest.mark.parametrize("command", ["validate", "powerflow"])
def test_config_echo_carries_search_defaults(command, fixture_path, capsys):
    # Commands without search flags still echo all six settings, the
    # search ones at their defaults; dumping again keeps ints and floats
    # apart, so the echo is pinned as printed.
    argv = [command, str(fixture_path), "--output-format", "machine-readable"]
    assert main(argv) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    expected = {
        "case_path": str(fixture_path),
        "command": command,
        "output_format": "machine-readable",
        **SEARCH_DEFAULTS,
    }
    assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)


def _spoil(case, section, name, value):
    """The case with one numeric field of one record replaced: the first
    record of the section (the first transformer for a tap)."""
    if section == "case":
        return dataclasses.replace(case, **{name: value})
    records = list(getattr(case, section))
    k = next(i for i, r in enumerate(records) if name != "tap_ratio" or r.is_transformer)
    records[k] = dataclasses.replace(records[k], **{name: value})
    return dataclasses.replace(case, **{section: tuple(records)})


@pytest.mark.parametrize(
    "section, name, value",
    [
        ("case", "base_mva", math.inf),
        ("buses", "v_max", math.nan),
        ("branches", "resistance", math.nan),
        ("branches", "reactance", math.inf),
        ("branches", "charging_susceptance", math.nan),
        ("branches", "tap_ratio", math.nan),
        ("generators", "p_output", math.nan),
        ("generators", "q_max", math.inf),
        ("compensators", "rate", math.inf),
        ("loads", "p", math.inf),
        ("loads", "q", math.nan),
    ],
)
def test_non_finite_case_data_is_rejected(fixture_case, tmp_path, capsys, section, name, value):
    case = _spoil(fixture_case, section, name, value)
    assert any(f"{name} must be finite" in v for v in validate_case(case))
    path = write_case(tmp_path, case)
    assert main(["validate", path]) == 1
    assert f"{name} must be finite" in capsys.readouterr().out
    for command in ("powerflow", "ropf", "pricing"):
        assert main([command, path]) == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--seed", "-1"),
        ("--swarm-size", "0"),
        ("--iterations", "0"),
    ],
)
def test_search_settings_that_break_the_fitness_are_rejected(fixture_path, capsys, flag, value):
    for command in ("ropf", "pricing"):
        # the flag under test comes last, so it overrides the small budget
        assert main([command, str(fixture_path), "--swarm-size", "4", "--iterations", "3", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


def test_parser_defaults_match_documented_interface():
    args = build_parser().parse_args(["ropf", "x.case"])
    assert args.seed == 1
    assert args.swarm_size == 30
    assert args.iterations == 300
    assert not hasattr(args, "voltage_weight")
    assert args.output_format == "text"


def _options(parser):
    return {o for action in parser._actions for o in action.option_strings}


def test_documented_search_flags_match_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = readme.split("Search parameters are flags:", 1)[1].split(".", 1)[0]
    documented = set(re.findall(r"`(--[a-z-]+)`", sentence))
    assert len(documented) == 3
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    common = _options(commands.choices["validate"])
    for command in ("ropf", "pricing"):
        assert _options(commands.choices[command]) - common == documented, command


def _resolves(dotted):
    module, _, name = dotted.rpartition(".")
    try:
        importlib.import_module(dotted)
    except ModuleNotFoundError:
        return hasattr(importlib.import_module(module), name)
    return True


def test_readme_names_only_real_homes():
    # The python blocks are parsed, not run: the first one runs a full
    # settlement. Every name they import, and every `ropf.<module>.<name>`
    # of the prose, must exist on the module it is named from.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    imported = set()
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert len(imported) == 5
    named = set(re.findall(r"`(ropf(?:\.\w+)+)[`(]", readme))
    assert [dotted for dotted in sorted(imported | named) if not _resolves(dotted)] == []
