"""Network data model: buses, branches, reactive sources, loads.

Includes the case-file parser, structural validation, and construction of
the bus admittance matrix. The parser reports syntax errors with their line
number; validate_case judges everything else and reports every violation at
once, formatting a record's label only for a record it reports. All
electrical quantities are per-unit on the case MVA base unless a field says
otherwise ($ figures use base_mva to convert). Bus ids are arbitrary positive
integers; matrix work uses the 0-based position of a bus in the case bus list
(see NetworkCase.index_of). A case computes its branch ends' positions once
(NetworkCase._branch_ends), for build_admittance and powerflow.total_losses.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter

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

    @cached_property
    def _branch_ends(self) -> np.ndarray:
        """Bus positions of the branches' (from, to) ends, read-only (B, 2) in
        branch order; an unknown bus raises index_of's CaseError."""
        ends = chain.from_iterable(map(attrgetter("from_bus", "to_bus"), self.branches))
        try:
            pos = np.fromiter(map(self._index.__getitem__, ends), int, 2 * len(self.branches)).reshape(-1, 2)
        except KeyError as err:
            self.index_of(*err.args)  # raises, naming the first unknown bus
        pos.flags.writeable = False
        return pos

    def index_of(self, bus_id: int) -> int:
        """0-based matrix position of a bus id."""
        try:
            return self._index[bus_id]
        except KeyError:
            raise CaseError(f"unknown bus {bus_id}") from None

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
        Jacobian, one entry per bus ordering (pvpq, pq) in use, and beside
        it the Newton solve's block order for that ordering. A solve splits
        into blocks of breadth-first levels when there are at least
        powerflow.MIN_BLOCKS of at least powerflow.MIN_BLOCK unknowns each;
        otherwise it is one block, which is the dense solve."""
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


def _build(rows: list, reads, fields, widths: tuple[int, ...], usage: str, build) -> list:
    """A section's elements from its (line, tokens) rows, read a column at a
    time when they share an allowed width, or else row by row, which raises
    CaseError(usage) at a row of another width and names an unreadable field."""
    toks = [tok for _, tok in rows]
    if len(set(map(len, toks))) == 1 and len(toks[0]) in widths:
        try:
            return list(map(build, *[list(map(read, col)) for read, col in zip(reads, zip(*toks))]))
        except ValueError:
            pass
    elements = []
    for lineno, tok in rows:
        if len(tok) not in widths:
            raise CaseError(usage, lineno)
        elements.append(build(*[_read(read, t, lineno, f) for read, t, f in zip(reads, tok, fields)]))
    return elements


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
    section: list | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.partition("#")[0]
        tok = raw.split()
        if not tok:
            continue
        if tok[0][0] == "[" and (m := _HEADER_RE.fullmatch(raw.strip())):
            name = m.group(1)
            if name not in _SECTIONS:
                raise CaseError(f"unknown section [{name}]", lineno)
            if name not in declared:
                declared.append(name)
            section = rows[name]
            continue
        if section is None:
            raise CaseError("record before any section header", lineno)
        section.append((lineno, tok))

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

    bus_fields, bus_usage = ("bus id", "kind", "v_min", "v_max"), "BUS record is 'id kind [v_min v_max]'"
    buses = _build(rows["BUS"], (int, str.lower, float, float), bus_fields, (2, 4), bus_usage, Bus)
    elements: dict[str, list] = {entry[2]: [] for entry in _RECORDS}
    for name, layout, field, build, _ in _RECORDS:
        fields = layout.split()
        usage = f"{name} record is '{layout}'"
        elements[field] += _build(rows[name], _readers(layout), fields, (len(fields),), usage, build)

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
    no compensator at the slack bus, and a connected network. A non-finite
    number is reported once, as itself: a section's floats are scanned one by
    one only when their math.fsum is not finite, and a record's label is
    formatted only when the record has a violation.
    """
    bad: list[str] = []
    for label, owners, records in (
        ("case", (case,), (case,)),
        ("bus {0.id}", case.buses, case.buses),
        ("branch {0.from_bus}-{0.to_bus}", case.branches, case.branches),
        ("generator at bus {0.bus}", case.generators, case.generators),
        ("generator at bus {0.bus} cost", case.generators, [g.cost for g in case.generators]),
        ("compensator at bus {0.bus}", case.compensators, case.compensators),
        ("load at bus {0.bus}", case.loads, case.loads),
    ):
        # math.fsum of finite floats is finite or raises OverflowError
        values = filter(float.__instancecheck__, chain.from_iterable(map(dict.values, map(vars, records))))
        try:
            if math.isfinite(math.fsum(values)):
                continue
        except (OverflowError, ValueError):
            pass
        for owner, record in zip(owners, records):
            for name, value in vars(record).items():
                if isinstance(value, float) and not math.isfinite(value):
                    bad.append(f"{label.format(owner)}: {name} must be finite, got {value}")

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
        if not (0.0 < bus.v_min < bus.v_max) and all(map(math.isfinite, (bus.v_min, bus.v_max))):
            bad.append(f"bus {bus.id}: voltage band [{bus.v_min}, {bus.v_max}] is not ordered")
    if not case.buses:
        bad.append("case has no buses")
    elif len(slack_ids) == 0:
        bad.append("no slack bus")
    elif len(slack_ids) > 1:
        bad.append("duplicate slack: buses " + ", ".join(str(i) for i in slack_ids))

    adjacency: dict[int, list[int]] = {bus.id: [] for bus in case.buses}
    for br in case.branches:
        f, t, r, x, tap = br.from_bus, br.to_bus, br.resistance, br.reactance, br.tap_ratio
        if f in adjacency and t in adjacency:
            adjacency[f].append(t)
            adjacency[t].append(f)
        if f not in seen:
            bad.append(f"branch {f}-{t}: unknown bus {f}")
        if t not in seen:
            bad.append(f"branch {f}-{t}: unknown bus {t}")
        if f == t:
            bad.append(f"branch {f}-{t}: endpoints must differ")
        if r == 0.0 and x == 0.0:
            bad.append(f"branch {f}-{t}: zero impedance")
        if tap <= 0.0:
            bad.append(f"branch {f}-{t}: tap ratio must be positive, got {tap}")
        elif r or x:
            # The Ybus terms y/a**2 and y/a; a tap whose square underflows to
            # zero would divide by zero.
            y = 1.0 / complex(r, x)
            a2 = tap * tap
            finite = a2 > 0.0 and cmath.isfinite(y / a2) and cmath.isfinite(y / tap)
            if not finite and all(map(math.isfinite, vars(br).values())):  # else reported above
                bad.append(f"branch {f}-{t}: admittance is not finite")

    for g in case.generators:
        if g.bus not in seen:
            bad.append(f"generator at bus {g.bus}: unknown bus {g.bus}")
        if g.s_max <= 0:
            bad.append(f"generator at bus {g.bus}: s_max must be positive")
        if g.q_min > g.q_max:
            bad.append(f"generator at bus {g.bus}: q_min {g.q_min} exceeds q_max {g.q_max}")
        if max(abs(g.q_min), abs(g.q_max)) > g.s_max:
            bad.append(f"generator at bus {g.bus}: reactive limits exceed s_max {g.s_max}")
        if g.p_output > g.s_max:
            bad.append(f"generator at bus {g.bus}: p_output {g.p_output} exceeds s_max {g.s_max}")
        if g.p_output < 0:
            bad.append(f"generator at bus {g.bus}: p_output must be nonnegative")
        if g.cost.c < 0:
            bad.append(f"generator at bus {g.bus}: quadratic cost coefficient must be nonnegative")
        if g.profit_rate < 0:
            bad.append(f"generator at bus {g.bus}: profit rate must be nonnegative")

    for c in case.compensators:
        if c.bus not in seen:
            bad.append(f"compensator at bus {c.bus}: unknown bus {c.bus}")
        elif c.bus in slack_ids:
            bad.append(f"compensator at bus {c.bus}: the slack bus absorbs its output, so it changes no flow")
        if not (0.0 <= c.q_min <= c.q_max) and all(map(math.isfinite, (c.q_min, c.q_max))):
            bad.append(f"compensator at bus {c.bus}: limits [{c.q_min}, {c.q_max}] must satisfy 0 <= q_min <= q_max")
        if c.rate < 0:
            bad.append(f"compensator at bus {c.bus}: rate must be nonnegative")

    for ld in case.loads:
        if ld.bus not in seen:
            bad.append(f"load at bus {ld.bus}: unknown bus {ld.bus}")

    if case.buses and not any(b.startswith("duplicate bus id") for b in bad):
        reached, frontier = {case.buses[0].id}, {case.buses[0].id}
        while frontier:
            frontier = {other for b in frontier for other in adjacency[b]} - reached
            reached |= frontier
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
    i, j = case._branch_ends.T
    terms = []
    for br in case.branches:
        if br.resistance == 0.0 and br.reactance == 0.0:
            raise CaseError(f"branch {br.from_bus}-{br.to_bus}: zero impedance")
        series = 1.0 / complex(br.resistance, br.reactance)
        shunt = 0.5j * br.charging_susceptance
        a = br.tap_ratio
        terms += ((series + shunt) / (a * a), series + shunt, -(series / a), -(series / a))
    flat = np.stack([i * (n + 1), j * (n + 1), i * n + j, j * n + i], axis=1)
    y = np.zeros(n * n, dtype=complex)
    np.add.at(y, flat.ravel(), np.array(terms, dtype=complex))
    y = y.reshape(n, n)
    y.flags.writeable = False
    return AdmittanceMatrix(y)
