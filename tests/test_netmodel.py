"""Case model: parsing, validation, serialization, admittance construction.

Admittance oracles are hand-computed from the branch pi model:
series y = 1/(r + jx); a line adds y + jb/2 on both diagonals and -y
off-diagonal; a tap-a transformer adds y/a^2 on the from side, y on the
to side and -y/a off-diagonal.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import two_bus_case
from ropf.netmodel import (
    _RECORDS,
    Branch,
    Bus,
    CaseError,
    Compensator,
    CostQuadratic,
    Generator,
    Load,
    NetworkCase,
    build_admittance,
    parse_case,
    serialize_case,
    validate_case,
)

MINIMAL_CASE = """
[BASE_MVA]
100.0
[BUS]
1 load
2 slack
[BRANCH]
1 2 0.0 0.1 0.0
[LOAD]
1 0.5 0.0
"""


def test_fixture_inventory(fixture_case):
    case = fixture_case
    assert case.base_mva == 100.0
    assert case.n == 14
    assert len(case.branches) == 20
    assert len(case.generators) == 2
    assert len(case.compensators) == 2
    assert len(case.loads) == 8
    assert case.slack_bus().id == 14
    taps = sorted(b.tap_ratio for b in case.branches if b.is_transformer)
    assert taps == [0.932, 0.969, 0.978]


def test_fixture_validates_clean(fixture_case):
    assert validate_case(fixture_case) == []


def test_parse_minimal_case():
    case = parse_case(MINIMAL_CASE)
    assert case.n == 2
    bus = case.buses[case.index_of(1)]
    assert bus.kind == "load"
    assert bus.v_min == 0.95 and bus.v_max == 1.05
    assert case.slack_bus().id == 2
    assert case.loads == (Load(1, 0.5, 0.0),)


def test_parse_explicit_voltage_band():
    text = MINIMAL_CASE.replace("1 load", "1 load 0.9 1.1")
    case = parse_case(text)
    bus = case.buses[case.index_of(1)]
    assert bus.v_min == 0.9 and bus.v_max == 1.1


def test_parse_rejects_duplicate_slack():
    text = MINIMAL_CASE.replace("1 load", "1 slack")
    with pytest.raises(CaseError, match="slack"):
        parse_case(text)


def test_parse_rejects_unknown_section():
    with pytest.raises(CaseError, match=r"\[SHUNT\]"):
        parse_case(MINIMAL_CASE + "\n[SHUNT]\n1 0.19\n")


def test_parse_rejects_empty_section():
    with pytest.raises(CaseError, match="empty"):
        parse_case(MINIMAL_CASE + "\n[GENERATOR]\n")


def test_parse_error_carries_line_number():
    bad = MINIMAL_CASE.replace("1 2 0.0 0.1 0.0", "1 2 0.0 oops 0.0")
    with pytest.raises(CaseError) as exc:
        parse_case(bad)
    assert exc.value.line == 8


def test_parse_reads_headers_and_comments_by_the_line():
    text = """# only a comment
[BASE_MVA]
100.0
[BUS]   # note
1 load # trailing comment
2 slack
#
[BRANCH]
1 2 0.0 0.1 0.0
  [LOAD]
1 0.5 0.0
"""
    assert parse_case(text) == parse_case(MINIMAL_CASE)


@pytest.mark.parametrize(
    "old, new, message",
    [
        # a header is a whole line in capitals; anything else is a record
        ("[BUS]\n", "[BUS]\n[bus]\n", "line 5: BUS record is 'id kind [v_min v_max]'"),
        ("\n[BASE_MVA]", "[bus]\n[BASE_MVA]", "line 1: record before any section header"),
        ("2 slack", "[BUS] 2 slack", "line 6: BUS record is 'id kind [v_min v_max]'"),
        ("1 load", "1x load", "line 5: bad bus id '1x'"),
        ("1 load", "1 load 0.9 1.1x", "line 5: bad v_max '1.1x'"),
        ("1 2 0.0 0.1 0.0", "1 2 0.0 oops 0.0", "line 8: bad x 'oops'"),
        ("1 2 0.0 0.1 0.0", "1 2 0.0 0.1", "line 8: BRANCH record is 'from to r x b'"),
        ("1 0.5 0.0", "1 0.5 0.0z", "line 10: bad q '0.0z'"),
        # the first bad record of a section is reported, whatever its fault
        ("1 load\n2 slack", "1x load\n2", "line 5: bad bus id '1x'"),
        ("1 load\n2 slack", "1\n2x slack", "line 5: BUS record is 'id kind [v_min v_max]'"),
    ],
)
def test_parse_names_the_line_of_a_syntax_error(old, new, message):
    with pytest.raises(CaseError) as exc:
        parse_case(MINIMAL_CASE.replace(old, new, 1))
    assert str(exc.value) == message
    assert exc.value.line == int(message.split(":")[0].split()[1])


def test_parse_warns_on_negative_load():
    # A negative load is a net injection: it parses silently and keeps its sign.
    text = MINIMAL_CASE.replace("1 0.5 0.0", "1 0.5 -0.04")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        case = parse_case(text)
    assert case.loads[0].q == -0.04


def test_roundtrip_through_serialization(fixture_case):
    again = parse_case(serialize_case(fixture_case))
    assert again == fixture_case


def random_valid_case(seed: int) -> NetworkCase:
    """A connected case with every record kind, drawn from seed: a slack
    machine, priced generators, compensators, charged lines, transformers,
    per-bus voltage bands and a non-default base."""
    rng = np.random.default_rng(seed)

    def u(lo: float, hi: float) -> float:
        return float(rng.uniform(lo, hi))

    n = int(rng.integers(3, 12))
    ids = [int(i) for i in rng.choice(np.arange(1, 1000), size=n, replace=False)]
    slack = int(rng.integers(n))
    kinds = ["generator", "compensator", "load"]
    buses = tuple(
        Bus(b, "slack" if k == slack else kinds[int(rng.integers(3))], u(0.85, 0.97), u(1.03, 1.15))
        for k, b in enumerate(ids)
    )
    pairs = [(ids[int(rng.integers(k))], ids[k]) for k in range(1, n)]
    pairs += [tuple(int(b) for b in rng.choice(ids, size=2, replace=False)) for _ in range(n // 2)]
    tapped = rng.random(len(pairs)) < 0.3
    # parse_case reads [BRANCH] before [TRANSFORMER], so lines come first
    branches = tuple(
        Branch(f, t, u(0.0, 0.05), u(0.02, 0.3), u(0.0, 0.1)) for (f, t), tap in zip(pairs, tapped) if not tap
    ) + tuple(
        Branch(f, t, u(0.0, 0.01), u(0.05, 0.3), tap_ratio=u(0.9, 1.1)) for (f, t), tap in zip(pairs, tapped) if tap
    )

    def generator(bus: int) -> Generator:
        s_max = u(0.5, 2.0)
        cost = CostQuadratic(u(0.0, 100.0), u(0.0, 1000.0), u(0.0, 500.0))
        return Generator(bus, u(0.0, s_max), s_max, u(-s_max, 0.0), u(0.0, s_max), cost, u(0.0, 0.2))

    others = [b for k, b in enumerate(ids) if k != slack]
    generators = (generator(ids[slack]),) + tuple(generator(int(b)) for b in rng.choice(others, size=2))
    compensators = tuple(
        Compensator(int(b), q_min, q_min + u(0.0, 0.5), u(0.0, 0.1))
        for b, q_min in zip(rng.choice(others, size=2), (0.0, u(0.0, 0.1)))
    )
    loads = tuple(Load(int(b), u(0.0, 1.0), u(0.0, 0.5)) for b in rng.choice(ids, size=n))
    return NetworkCase(u(10.0, 1000.0), buses, branches, generators, compensators, loads)


@pytest.mark.parametrize("seed", range(20))
def test_random_valid_cases_roundtrip(seed):
    case = random_valid_case(seed)
    assert any(b.is_transformer for b in case.branches)
    assert any(b.charging_susceptance > 0 for b in case.branches)
    assert validate_case(case) == []
    assert parse_case(serialize_case(case)) == case


def test_numpy_scalars_serialize_as_plain_numbers():
    f = np.float64
    case = NetworkCase(
        f(100.0),
        (Bus(np.int64(1), "load", f(0.94), f(1.06)), Bus(2, "slack")),
        (Branch(1, 2, 0.0, 0.1),),
        loads=(Load(np.int64(1), f(0.5), 0.0),),
    )
    assert validate_case(case) == []
    text = serialize_case(case)
    assert "np." not in text
    assert parse_case(text) == case


def test_numpy_tap_squares_without_a_warning():
    # A numpy tap of 1e200 squares to inf; numpy would warn where a Python
    # float does not, so both the validator and the assembly square a float.
    def case(tap):
        return NetworkCase(100.0, (Bus(1, "load"), Bus(2, "slack")), (Branch(1, 2, 0.0, 0.1, tap_ratio=tap),))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_case(case(np.float64(1e200))) == []
        ybus = build_admittance(case(np.float64(1e200)))
    assert ybus.matrix.tobytes() == build_admittance(case(1e200)).matrix.tobytes()


def test_validator_rejects_fractional_bus_id():
    # the writer reads bus ids with int, which would turn bus 1.5 into bus 1
    def case(bus_id):
        return NetworkCase(
            100.0,
            (Bus(bus_id, "load"), Bus(2, "slack")),
            (Branch(bus_id, 2, 0.0, 0.1),),
            loads=(Load(bus_id, 0.5, 0.0),),
        )

    assert validate_case(case(1.5)) == ["bus 1.5: id must be an integer"]
    assert validate_case(case(1.0)) == []
    assert parse_case(serialize_case(case(1.0))) == case(1)


def test_serialization_writes_lines_before_transformers():
    line = Branch(1, 2, 0.01, 0.05, 0.02)
    tap = Branch(2, 3, 0.0, 0.05, tap_ratio=0.98)
    buses = (Bus(1, "load"), Bus(2, "load"), Bus(3, "slack"))
    case = NetworkCase(100.0, buses, (tap, line), loads=(Load(1, 0.1, 0.0),))
    again = parse_case(serialize_case(case))
    assert again != case
    assert again == replace(case, branches=(line, tap))


def test_documented_layouts_match_the_record_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    formats = (parse_case.__doc__, readme.split("## Case file format", 1)[1].split("\n## ", 1)[0])
    for name, layout, *_ in _RECORDS:
        for text in formats:
            assert re.search(rf"^ *\[{name}\] +{re.escape(layout)}( {{2,}}|$)", text, re.M), (name, text)


def test_serialize_rejects_tapped_branch_with_charging():
    case = NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "load"), Bus(2, "slack")),
        branches=(Branch(1, 2, 0.0, 0.1, charging_susceptance=0.2, tap_ratio=0.95),),
        loads=(Load(1, 0.1, 0.0),),
    )
    with pytest.raises(ValueError):
        serialize_case(case)


def test_validator_reports_unknown_bus_reference():
    case = NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "load"), Bus(2, "slack")),
        branches=(Branch(1, 99, 0.0, 0.1),),
        loads=(Load(1, 0.1, 0.0),),
    )
    problems = validate_case(case)
    assert any("99" in p for p in problems)


def test_validator_reports_disconnected_island():
    case = NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "load"), Bus(2, "slack"), Bus(3, "load"), Bus(4, "load")),
        branches=(Branch(1, 2, 0.0, 0.1), Branch(3, 4, 0.0, 0.1)),
        loads=(Load(1, 0.1, 0.0),),
    )
    problems = validate_case(case)
    assert any("disconnected" in p for p in problems)
    assert any("3" in p and "4" in p for p in problems)


def test_validator_reports_bad_limits():
    gen = Generator(1, 0.5, 0.4, 0.3, -0.3, CostQuadratic(1.0, 1.0, 1.0), 0.07)
    case = NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "generator", v_min=1.05, v_max=0.95), Bus(2, "slack")),
        branches=(Branch(1, 2, 0.0, 0.1),),
        generators=(gen,),
        compensators=(Compensator(1, 0.2, 0.1, -1.0),),
    )
    problems = validate_case(case)
    # inverted voltage band, q_min > q_max twice, p_out > s_max, negative rate
    assert len(problems) >= 4


def test_validator_rejects_zero_impedance_branch():
    # A subnormal reactance or a tiny tap makes a Ybus term infinite (1e-310,
    # 1e-160, and the charging over the tap squared) or divides by the tap
    # squared, which underflows to zero (1e-200). A non-finite field is
    # reported once, as itself.
    for branch, message in [
        (Branch(1, 2, 0.0, 0.0), "zero impedance"),
        (Branch(1, 2, math.nan, 0.1), "resistance must be finite, got nan"),
        (Branch(1, 2, 0.0, 1e-310), "admittance is not finite"),
        (Branch(1, 2, 0.0, 0.1, tap_ratio=1e-200), "admittance is not finite"),
        (Branch(1, 2, 0.0, 0.1, tap_ratio=1e-160), "admittance is not finite"),
        (Branch(1, 2, 0.0, 1.0, charging_susceptance=1e300, tap_ratio=1e-10), "admittance is not finite"),
    ]:
        case = NetworkCase(
            base_mva=100.0,
            buses=(Bus(1, "load"), Bus(2, "slack")),
            branches=(branch,),
            loads=(Load(1, 0.1, 0.0),),
        )
        assert [p for p in validate_case(case) if "branch 1-2" in p] == [f"branch 1-2: {message}"]


def test_validator_reports_a_non_finite_bound_once():
    # A NaN bound fails every comparison, so the band and limit ordering
    # checks would report it a second time.
    case = NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "load", v_min=math.nan), Bus(2, "slack")),
        branches=(Branch(1, 2, 0.0, 0.1),),
        compensators=(Compensator(1, 0.0, math.nan, 0.0354),),
        loads=(Load(1, 0.1, 0.0),),
    )
    problems = validate_case(case)
    assert [p for p in problems if p.startswith("bus 1:")] == ["bus 1: v_min must be finite, got nan"]
    assert [p for p in problems if p.startswith("compensator")] == ["compensator at bus 1: q_max must be finite, got nan"]


def test_validator_lists_every_violation_once_in_order():
    # One violation or more in every section, so a reordered, dropped or
    # repeated message shows; non-finite numbers come first, section by
    # section, then the record checks in record order.
    case = NetworkCase(
        base_mva=100.0,
        buses=(
            Bus(1, "load", v_min=math.nan),
            Bus(2, "slack"),
            Bus(3, "generator", 1.05, 0.95),
            Bus(4, "compensator"),
            Bus(5, "load"),
            Bus(6, "load"),
        ),
        branches=(
            Branch(1, 2, 0.0, 0.1),
            Branch(2, 3, math.inf, 0.1),
            Branch(3, 4, 0.0, 0.0),
            Branch(1, 4, 0.0, 0.1, tap_ratio=0.0),
            Branch(1, 99, 0.0, 0.1),
            Branch(5, 6, 0.01, 0.1),
        ),
        generators=(
            Generator(3, 0.2, 0.5, -0.3, math.inf, CostQuadratic(45.0, 750.0, 450.0), 0.07),
            Generator(1, 0.1, 0.5, 0.3, -0.3, CostQuadratic(1.0, math.nan, 1.0), 0.07),
        ),
        compensators=(Compensator(2, 0.0, 0.2, 0.0354), Compensator(4, 0.0, 0.2, math.nan)),
        loads=(Load(1, 0.1, -math.inf), Load(98, 0.1, 0.0)),
    )
    assert validate_case(case) == [
        "bus 1: v_min must be finite, got nan",
        "branch 2-3: resistance must be finite, got inf",
        "generator at bus 3: q_max must be finite, got inf",
        "generator at bus 1 cost: b must be finite, got nan",
        "compensator at bus 4: rate must be finite, got nan",
        "load at bus 1: q must be finite, got -inf",
        "bus 3: voltage band [1.05, 0.95] is not ordered",
        "branch 3-4: zero impedance",
        "branch 1-4: tap ratio must be positive, got 0.0",
        "branch 1-99: unknown bus 99",
        "generator at bus 3: reactive limits exceed s_max 0.5",
        "generator at bus 1: q_min 0.3 exceeds q_max -0.3",
        "compensator at bus 2: the slack bus absorbs its output, so it changes no flow",
        "load at bus 98: unknown bus 98",
        "disconnected network: no path to buses 5, 6",
    ]


def test_validator_accepts_finite_numbers_whose_sum_overflows():
    # The charging of these two lines sums past the largest float; every
    # number is finite, so none is reported.
    line = Branch(1, 2, 0.0, 0.1, charging_susceptance=1e308)
    case = NetworkCase(100.0, (Bus(1, "load"), Bus(2, "slack")), (line, line), loads=(Load(1, 0.1, 0.0),))
    with pytest.raises(OverflowError):
        math.fsum([line.charging_susceptance] * 2)
    assert validate_case(case) == []


def test_admittance_single_line():
    ybus = build_admittance(two_bus_case(reactance=0.1))
    expect = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(ybus.matrix, expect, atol=1e-12)


def test_admittance_line_charging():
    case = two_bus_case()
    case = NetworkCase(
        base_mva=case.base_mva,
        buses=case.buses,
        branches=(Branch(1, 2, 0.0, 0.1, charging_susceptance=0.2),),
        loads=case.loads,
    )
    ybus = build_admittance(case)
    # half the 0.2 total charging lands on each terminal
    assert np.allclose(np.diag(ybus.matrix), [-9.9j, -9.9j], atol=1e-12)
    assert ybus.matrix[0, 1] == pytest.approx(10j, abs=1e-12)


def test_admittance_transformer_tap():
    case = NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "load"), Bus(2, "slack")),
        branches=(Branch(1, 2, 0.0, 0.25, tap_ratio=0.5),),
        loads=(Load(1, 0.1, 0.0),),
    )
    y = build_admittance(case).matrix
    # series y = -4j; from-side diag y/a^2, off-diag -y/a, to-side diag y
    assert y[0, 0] == pytest.approx(-16j, abs=1e-12)
    assert y[0, 1] == pytest.approx(8j, abs=1e-12)
    assert y[1, 0] == pytest.approx(8j, abs=1e-12)
    assert y[1, 1] == pytest.approx(-4j, abs=1e-12)


def test_admittance_parallel_branches_add():
    case = two_bus_case()
    doubled = NetworkCase(
        base_mva=case.base_mva,
        buses=case.buses,
        branches=case.branches + case.branches,
        loads=case.loads,
    )
    assert np.allclose(
        build_admittance(doubled).matrix, 2 * build_admittance(case).matrix
    )


def test_admittance_is_symmetric(fixture_case):
    y = build_admittance(fixture_case).matrix
    assert np.allclose(y, y.T)


def test_admittance_rejects_zero_impedance():
    case = NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "load"), Bus(2, "slack")),
        branches=(Branch(1, 2, 0.0, 0.0),),
        loads=(Load(1, 0.1, 0.0),),
    )
    with pytest.raises(ValueError):
        build_admittance(case)


def scalar_admittance(case):
    """Ybus from scratch, one scalar update per term in branch order."""
    n = case.n
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        i, j = case.index_of(br.from_bus), case.index_of(br.to_bus)
        series = 1.0 / complex(br.resistance, br.reactance)
        shunt = 0.5j * br.charging_susceptance
        a = br.tap_ratio
        y[i, i] += (series + shunt) / (a * a)
        y[j, j] += series + shunt
        y[i, j] -= series / a
        y[j, i] -= series / a
    return y


def random_branchy_case(rng, n):
    """A chain of charged lines on shuffled bus ids, a parallel line, a
    transformer listed in both directions and a few chords, some tapped."""
    ids = [int(k) for k in rng.permutation(np.arange(1, 3 * n + 1))[:n]]
    buses = tuple(Bus(b, "slack" if k == 0 else "load") for k, b in enumerate(ids))

    def impedance():
        return float(rng.uniform(0.005, 0.1)), float(rng.uniform(0.02, 0.4))

    branches = [Branch(f, t, *impedance(), float(rng.uniform(0.0, 0.3))) for f, t in zip(ids, ids[1:])]
    twin = branches[int(rng.integers(len(branches)))]
    branches.append(Branch(twin.from_bus, twin.to_bus, *impedance(), float(rng.uniform(0.0, 0.3))))
    f, t = ids[int(rng.integers(n - 1))], ids[-1]
    branches.append(Branch(f, t, *impedance(), tap_ratio=float(rng.uniform(0.9, 1.1))))
    branches.append(Branch(t, f, *impedance(), tap_ratio=float(rng.uniform(0.9, 1.1))))
    for _ in range(int(rng.integers(0, 4))):
        f, t = (int(b) for b in rng.choice(ids, size=2, replace=False))
        tap = float(rng.uniform(0.9, 1.1)) if rng.random() < 0.5 else 1.0
        branches.append(Branch(f, t, *impedance(), float(rng.uniform(0.0, 0.2)), tap))
    order = rng.permutation(len(branches))
    return NetworkCase(base_mva=100.0, buses=buses, branches=tuple(branches[k] for k in order))


def test_admittance_sums_each_entry_in_branch_order():
    # Bit for bit the scalar assembly, and its pattern is the diagonal plus
    # both ends of every branch.
    rng = np.random.default_rng(27)
    for _ in range(40):
        case = random_branchy_case(rng, int(rng.integers(3, 16)))
        ybus = build_admittance(case)
        assert ybus.matrix.tobytes() == scalar_admittance(case).tobytes()
        mask = np.eye(case.n, dtype=bool)
        ends = [(case.index_of(br.from_bus), case.index_of(br.to_bus)) for br in case.branches]
        for i, j in ends:
            mask[i, j] = mask[j, i] = True
        assert case._branch_ends.tolist() == [list(e) for e in ends] and not case._branch_ends.flags.writeable
        assert np.array_equal((ybus.matrix != 0) | np.eye(case.n, dtype=bool), mask)


def test_cost_quadratic_evaluates():
    cost = CostQuadratic(45.0, 750.0, 450.0)
    assert cost(0.0) == 45.0
    assert cost(0.9) == pytest.approx(45.0 + 675.0 + 364.5, abs=1e-12)


def test_bus_lookup_errors(fixture_case):
    with pytest.raises(CaseError, match="99"):
        fixture_case.index_of(99)
