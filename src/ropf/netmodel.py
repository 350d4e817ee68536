"""Network data model: buses, branches, reactive sources, loads.

Includes the case-file parser, structural validation, and construction of
the bus admittance matrix. The parser reports syntax errors with their line
number; validate_case judges everything else and reports every violation at
once. All electrical quantities are per-unit on the case MVA base unless a
field says otherwise ($ figures use base_mva to convert). Bus ids are
arbitrary positive integers; matrix work uses the 0-based position of a bus
in the case bus list (see NetworkCase.index_of).
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "AdmittanceMatrix",
    "Branch",
    "Bus",
    "CaseError",
    "Compensator",
    "CostQuadratic",
    "Generator",
    "Load",
    "NetworkCase",
    "build_admittance",
    "parse_case",
    "serialize_case",
    "validate_case",
]

DEFAULT_V_MIN = 0.95
DEFAULT_V_MAX = 1.05

BUS_KINDS = ("slack", "generator", "load", "compensator")


class CaseError(ValueError):
    """Malformed case file or structurally unusable network data. line is
    set on syntax errors; violations holds validate_case's list, if any."""

    def __init__(self, message: str, line: int | None = None, violations: tuple[str, ...] = ()):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.violations = violations


@dataclass(frozen=True)
class Bus:
    """A network node.

    kind is one of BUS_KINDS. "slack" marks the reference machine (angle
    fixed at zero, absorbs the power balance residual); the other kinds are
    descriptive. A bus may host a load together with a generator or
    compensator. Voltage bounds are per-unit magnitudes.
    """

    id: int
    kind: str
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX


@dataclass(frozen=True)
class Branch:
    """A transmission line or transformer between two buses.

    Plain lines use the pi model: series impedance r + jx with the total
    charging susceptance split half to each terminal. Transformers carry an
    off-nominal tap on the from side and no charging. tap_ratio = 1 means a
    plain line.
    """

    from_bus: int
    to_bus: int
    resistance: float
    reactance: float
    charging_susceptance: float = 0.0
    tap_ratio: float = 1.0

    @property
    def is_transformer(self) -> bool:
        return self.tap_ratio != 1.0


@dataclass(frozen=True)
class CostQuadratic:
    """Active generation cost a + b*p + c*p**2, p in per-unit, result $/h."""

    a: float
    b: float
    c: float

    def __call__(self, p: float) -> float:
        return self.a + self.b * p + self.c * p * p


@dataclass(frozen=True)
class Generator:
    """A dispatchable machine offering reactive support.

    p_output is the scheduled active output, s_max the apparent power
    capability. Reactive output is bounded by [q_min, q_max]. profit_rate
    is the fraction of lost active-power revenue recovered as the reactive
    opportunity cost.
    """

    bus: int
    p_output: float
    s_max: float
    q_min: float
    q_max: float
    cost: CostQuadratic
    profit_rate: float


@dataclass(frozen=True)
class Compensator:
    """A switched reactive source paid at a flat $/MVArh rate."""

    bus: int
    q_min: float
    q_max: float
    rate: float


@dataclass(frozen=True)
class Load:
    """Demand drawn at a bus, per-unit. Positive values consume."""

    bus: int
    p: float
    q: float


@dataclass(frozen=True)
class NetworkCase:
    """An immutable snapshot of the whole network."""

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...] = ()
    generators: tuple[Generator, ...] = ()
    compensators: tuple[Compensator, ...] = ()
    loads: tuple[Load, ...] = ()

    @property
    def n(self) -> int:
        return len(self.buses)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {bus.id: pos for pos, bus in enumerate(self.buses)}

    def index_of(self, bus_id: int) -> int:
        """0-based matrix position of a bus id."""
        try:
            return self._index[bus_id]
        except KeyError:
            raise CaseError(f"unknown bus {bus_id}") from None

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.index_of(bus_id)]

    def slack_bus(self) -> Bus:
        slacks = [b for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise CaseError(f"expected one slack bus, found {len(slacks)}")
        return slacks[0]


@dataclass(frozen=True, eq=False)
class AdmittanceMatrix:
    """Dense complex bus admittance matrix (Ybus), read-only; its size is
    len(matrix)."""

    matrix: np.ndarray

    @cached_property
    def _pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The diagonal and the nonzero entries of the matrix, row-major:
        their rows, columns and values, and where each diagonal entry sits
        among them."""
        n = len(self.matrix)
        mask = self.matrix.ravel() != 0
        mask[:: n + 1] = True
        flat = np.flatnonzero(mask)
        rows, cols = np.divmod(flat, n)
        pattern = (rows, cols, self.matrix.ravel()[flat], np.flatnonzero(rows == cols))
        for arr in pattern:
            arr.flags.writeable = False
        return pattern

    @cached_property
    def _jacobian_layouts(self) -> dict:
        """powerflow's memo of where the pattern's entries go in the Newton
        Jacobian, one entry per bus ordering (pvpq, pq) in use."""
        return {}


# The five element sections in file order, each as (section, layout, case
# field, build, values). layout names the record's fields in file order;
# bus ids (bus, from, to) are read as int and every other field as float.
# build makes an element from a record's values, and values gives them back,
# or None for an element the section does not hold. parse_case and
# serialize_case both read this table, so it is the one home of the format.
_RECORDS = (
    (
        "GENERATOR",
        "bus p_out s_max q_min q_max a b c k",
        "generators",
        lambda bus, p, s, q_min, q_max, a, b, c, k: Generator(
            bus, p, s, q_min, q_max, CostQuadratic(a, b, c), k
        ),
        lambda g: (
            g.bus, g.p_output, g.s_max, g.q_min, g.q_max, g.cost.a, g.cost.b, g.cost.c, g.profit_rate
        ),
    ),
    (
        "COMPENSATOR",
        "bus q_min q_max rate",
        "compensators",
        Compensator,
        lambda c: (c.bus, c.q_min, c.q_max, c.rate),
    ),
    (
        "BRANCH",
        "from to r x b",
        "branches",
        Branch,
        lambda b: (
            None if b.is_transformer
            else (b.from_bus, b.to_bus, b.resistance, b.reactance, b.charging_susceptance)
        ),
    ),
    (
        "TRANSFORMER",
        "from to r x tap",
        "branches",
        lambda f, t, r, x, tap: Branch(f, t, r, x, tap_ratio=tap),
        lambda b: (
            (b.from_bus, b.to_bus, b.resistance, b.reactance, b.tap_ratio)
            if b.is_transformer else None
        ),
    ),
    ("LOAD", "bus p q", "loads", Load, lambda ld: (ld.bus, ld.p, ld.q)),
)

_SECTIONS = ("BASE_MVA", "BUS") + tuple(entry[0] for entry in _RECORDS)

_HEADER_RE = re.compile(r"\[([A-Z_]+)\]")


def _readers(layout: str) -> list:
    """How each field of a record layout is read: bus ids as int, the rest as float."""
    return [int if f in ("bus", "from", "to") else float for f in layout.split()]


def _read(read, token: str, line: int, what: str):
    try:
        return read(token)
    except ValueError:
        raise CaseError(f"bad {what} {token!r}", line) from None


def parse_case(text: str) -> NetworkCase:
    """Parse case-file text into a validated NetworkCase.

    Format: sections introduced by a [NAME] header, one whitespace-separated
    record per line, '#' starts a comment. Sections:

        [BASE_MVA]     base
        [BUS]          id kind [v_min v_max]
        [GENERATOR]    bus p_out s_max q_min q_max a b c k
        [COMPENSATOR]  bus q_min q_max rate
        [BRANCH]       from to r x b
        [TRANSFORMER]  from to r x tap
        [LOAD]         bus p q

    The five element layouts have one home, the module table _RECORDS, which
    drives this parser and serialize_case alike; a test holds the list above
    to it.

    Raises CaseError with a line number on syntax problems (unknown section,
    stray record, field count, unreadable number), on a declared-but-empty
    section, and with every violation validate_case finds in the parsed case
    (in its violations). A negative load is a net injection (a capacitive
    load or embedded generation) and parses like any other.
    """
    rows: dict[str, list[tuple[int, list[str]]]] = {name: [] for name in _SECTIONS}
    declared: list[str] = []
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER_RE.fullmatch(line)
        if m:
            name = m.group(1)
            if name not in _SECTIONS:
                raise CaseError(f"unknown section [{name}]", lineno)
            if name not in declared:
                declared.append(name)
            current = name
            continue
        if current is None:
            raise CaseError("record before any section header", lineno)
        rows[current].append((lineno, line.split()))

    for name in declared:
        if not rows[name]:
            raise CaseError(f"empty section [{name}]")

    base_mva = 100.0
    if rows["BASE_MVA"]:
        base_rows = rows["BASE_MVA"]
        lineno, tok = base_rows[0]
        if len(base_rows) != 1 or len(tok) != 1:
            raise CaseError("[BASE_MVA] holds exactly one value", lineno)
        base_mva = _read(float, tok[0], lineno, "base MVA")

    buses: list[Bus] = []
    for lineno, tok in rows["BUS"]:
        if len(tok) not in (2, 4):
            raise CaseError("BUS record is 'id kind [v_min v_max]'", lineno)
        bus_id = _read(int, tok[0], lineno, "bus id")
        kind = tok[1].lower()
        if len(tok) == 4:
            v_min = _read(float, tok[2], lineno, "v_min")
            v_max = _read(float, tok[3], lineno, "v_max")
        else:
            v_min, v_max = DEFAULT_V_MIN, DEFAULT_V_MAX
        buses.append(Bus(bus_id, kind, v_min, v_max))

    elements: dict[str, list] = {entry[2]: [] for entry in _RECORDS}
    for name, layout, field, build, _ in _RECORDS:
        fields, reads = layout.split(), _readers(layout)
        for lineno, tok in rows[name]:
            if len(tok) != len(fields):
                raise CaseError(f"{name} record is '{layout}'", lineno)
            try:
                values = [read(t) for read, t in zip(reads, tok)]
            except ValueError:  # read again field by field to name the bad one
                values = [_read(read, t, lineno, f) for read, t, f in zip(reads, tok, fields)]
            elements[field].append(build(*values))

    case = NetworkCase(base_mva, tuple(buses), **{k: tuple(v) for k, v in elements.items()})
    violations = validate_case(case)
    if violations:
        raise CaseError("invalid case: " + "; ".join(violations), violations=tuple(violations))
    return case


def serialize_case(case: NetworkCase) -> str:
    """Render a NetworkCase back to case-file text. The element sections
    come from _RECORDS, the format's one home, which parse_case reads too.

    Each value goes through its field's reader (int for bus ids, float
    otherwise) and is written with repr, so numpy scalars come out as plain
    numbers and floats round-trip bit for bit. The format
    lists every [BRANCH] record before every [TRANSFORMER] record, so
    parse_case(serialize_case(case)) == case when the case's lines come
    before its transformers; otherwise it holds the same branches, lines
    first.
    """
    for b in case.branches:
        if b.is_transformer and b.charging_susceptance != 0.0:
            raise CaseError(
                f"branch {b.from_bus}-{b.to_bus}: the file format cannot "
                "express both an off-nominal tap and line charging"
            )
    out: list[str] = ["[BASE_MVA]", repr(float(case.base_mva)), "", "[BUS]"]
    for bus in case.buses:
        out.append(f"{int(bus.id)} {bus.kind} {float(bus.v_min)!r} {float(bus.v_max)!r}")
    for name, layout, field, _, values in _RECORDS:
        reads = _readers(layout)
        records = [
            " ".join([repr(read(x)) for read, x in zip(reads, v)])
            for v in map(values, getattr(case, field))
            if v
        ]
        if records:
            out += ["", f"[{name}]", *records]
    return "\n".join(out) + "\n"


def validate_case(case: NetworkCase) -> list[str]:
    """Check structural invariants; returns human-readable violations.

    An empty list means the case is usable for power-flow and dispatch work.
    Checks: finite numbers throughout, positive base, unique positive integer bus ids,
    exactly one slack, sane voltage bands, branch endpoints that exist and
    differ, nonzero branch impedance, positive taps, finite Ybus terms,
    source limits ordered and within capability, referenced buses present,
    no compensator at the slack bus, and a connected network.
    """
    bad: list[str] = []
    records = (
        [("case", case)]
        + [(f"bus {b.id}", b) for b in case.buses]
        + [(f"branch {br.from_bus}-{br.to_bus}", br) for br in case.branches]
        + [(f"generator at bus {g.bus}", g) for g in case.generators]
        + [(f"generator at bus {g.bus} cost", g.cost) for g in case.generators]
        + [(f"compensator at bus {c.bus}", c) for c in case.compensators]
        + [(f"load at bus {ld.bus}", ld) for ld in case.loads]
    )
    for label, record in records:
        for name, value in vars(record).items():
            if isinstance(value, float) and not math.isfinite(value):
                bad.append(f"{label}: {name} must be finite, got {value}")

    if case.base_mva <= 0:
        bad.append(f"base MVA must be positive, got {case.base_mva}")

    seen: set[int] = set()
    slack_ids: list[int] = []
    for bus in case.buses:
        if bus.id in seen:
            bad.append(f"duplicate bus id {bus.id}")
        seen.add(bus.id)
        if bus.id < 1:
            bad.append(f"bus {bus.id}: id must be positive")
        elif bus.id % 1 > 0:
            bad.append(f"bus {bus.id}: id must be an integer")
        if bus.kind not in BUS_KINDS:
            bad.append(f"bus {bus.id}: unknown kind {bus.kind!r}")
        if bus.kind == "slack":
            slack_ids.append(bus.id)
        if not (0.0 < bus.v_min < bus.v_max):
            bad.append(f"bus {bus.id}: voltage band [{bus.v_min}, {bus.v_max}] is not ordered")
    if not case.buses:
        bad.append("case has no buses")
    elif len(slack_ids) == 0:
        bad.append("no slack bus")
    elif len(slack_ids) > 1:
        bad.append("duplicate slack: buses " + ", ".join(str(i) for i in slack_ids))

    for br in case.branches:
        label = f"branch {br.from_bus}-{br.to_bus}"
        for end in (br.from_bus, br.to_bus):
            if end not in seen:
                bad.append(f"{label}: unknown bus {end}")
        if br.from_bus == br.to_bus:
            bad.append(f"{label}: endpoints must differ")
        if br.resistance == 0.0 and br.reactance == 0.0:
            bad.append(f"{label}: zero impedance")
        if br.tap_ratio <= 0.0:
            bad.append(f"{label}: tap ratio must be positive, got {br.tap_ratio}")
        elif br.resistance or br.reactance:
            # The Ybus terms y/a**2 and y/a; a tap whose square underflows to
            # zero would divide by zero.
            y = 1.0 / complex(br.resistance, br.reactance)
            a2 = br.tap_ratio * br.tap_ratio
            finite = a2 > 0.0 and cmath.isfinite(y / a2) and cmath.isfinite(y / br.tap_ratio)
            if not finite and all(map(math.isfinite, vars(br).values())):  # else reported above
                bad.append(f"{label}: admittance is not finite")

    for g in case.generators:
        label = f"generator at bus {g.bus}"
        if g.bus not in seen:
            bad.append(f"{label}: unknown bus {g.bus}")
        if g.s_max <= 0:
            bad.append(f"{label}: s_max must be positive")
        if g.q_min > g.q_max:
            bad.append(f"{label}: q_min {g.q_min} exceeds q_max {g.q_max}")
        if max(abs(g.q_min), abs(g.q_max)) > g.s_max:
            bad.append(f"{label}: reactive limits exceed s_max {g.s_max}")
        if g.p_output > g.s_max:
            bad.append(f"{label}: p_output {g.p_output} exceeds s_max {g.s_max}")
        if g.p_output < 0:
            bad.append(f"{label}: p_output must be nonnegative")
        if g.cost.c < 0:
            bad.append(f"{label}: quadratic cost coefficient must be nonnegative")
        if g.profit_rate < 0:
            bad.append(f"{label}: profit rate must be nonnegative")

    for c in case.compensators:
        label = f"compensator at bus {c.bus}"
        if c.bus not in seen:
            bad.append(f"{label}: unknown bus {c.bus}")
        elif c.bus in slack_ids:
            bad.append(f"{label}: the slack bus absorbs its output, so it changes no flow")
        if not (0.0 <= c.q_min <= c.q_max):
            bad.append(f"{label}: limits [{c.q_min}, {c.q_max}] must satisfy 0 <= q_min <= q_max")
        if c.rate < 0:
            bad.append(f"{label}: rate must be nonnegative")

    for ld in case.loads:
        if ld.bus not in seen:
            bad.append(f"load at bus {ld.bus}: unknown bus {ld.bus}")

    if case.buses and not any(b.startswith("duplicate bus id") for b in bad):
        adjacency: dict[int, set[int]] = {bus.id: set() for bus in case.buses}
        for br in case.branches:
            if br.from_bus in adjacency and br.to_bus in adjacency:
                adjacency[br.from_bus].add(br.to_bus)
                adjacency[br.to_bus].add(br.from_bus)
        reached = {case.buses[0].id}
        frontier = [case.buses[0].id]
        while frontier:
            nxt = frontier.pop()
            for other in adjacency[nxt]:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        missing = sorted(seen - reached)
        if missing:
            bad.append("disconnected network: no path to buses " + ", ".join(map(str, missing)))

    return bad


def build_admittance(case: NetworkCase) -> AdmittanceMatrix:
    """Assemble the dense complex bus admittance matrix.

    Plain line (tap 1): series y = 1/(r + jx) plus half the charging at
    each terminal. Off-nominal tap a on the from side: y/a**2 at the from
    diagonal, y at the to diagonal, -y/a on both off-diagonals, which keeps
    the matrix symmetric. Each branch's four terms are formed in Python
    complex arithmetic and added up in one unbuffered scatter, so every
    entry sums its terms in branch order.
    """
    n = case.n
    flat, terms = [], []
    for br in case.branches:
        if br.resistance == 0.0 and br.reactance == 0.0:
            raise CaseError(f"branch {br.from_bus}-{br.to_bus}: zero impedance")
        i = case.index_of(br.from_bus)
        j = case.index_of(br.to_bus)
        series = 1.0 / complex(br.resistance, br.reactance)
        shunt = 0.5j * br.charging_susceptance
        a = br.tap_ratio
        flat += (i * n + i, j * n + j, i * n + j, j * n + i)
        terms += ((series + shunt) / (a * a), series + shunt, -(series / a), -(series / a))
    y = np.zeros(n * n, dtype=complex)
    np.add.at(y, np.array(flat, dtype=int), np.array(terms, dtype=complex))
    y = y.reshape(n, n)
    y.flags.writeable = False
    return AdmittanceMatrix(y)
