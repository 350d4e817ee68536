"""Newton-Raphson AC power flow in polar form.

Sign convention: specified injections are net (generation minus demand).
Computed injections at a voltage state follow S = V * conj(Y @ V), which in
polar terms is

    P_i =  |V_i| * sum_j |V_j| |Y_ij| cos(theta_ij + delta_j - delta_i)
    Q_i = -|V_i| * sum_j |V_j| |Y_ij| sin(theta_ij + delta_j - delta_i)

Mismatch is specified minus computed. The slack bus contributes no residual
(it absorbs the balance), PV buses contribute only an active residual.
Non-convergence is reported through the converged flag, never an exception,
so an optimizer can penalize it.

One Newton loop (`solve_stack`) solves a stack of S injection sets that
share a network, its admittance matrix and the bus roles, each member with
its own injections, setpoints, convergence and failure mask, from a flat
or a supplied start, and forms the injections of each member's final
state once; the slack machine's output is read from them, as the slack
entries. `solve_power_flow` is that loop run from flat on a stack of
one, and `total_losses` sums a solution's own injections and checks them
against the case's branch records. Every member's arithmetic is the one
a lone solve does (one matrix-vector product per member, elementwise
Jacobian terms, LAPACK solves and matrix products per member), so a
member's result does not depend on the rest of its stack. The Jacobian's
terms are formed only at Ybus's nonzeros and its diagonal (1.8% of the
entries at 224 buses), and scattered into a dense matrix that one solve
allocates once and refills at every step.

The Newton step is solved block by block. Ordered by the breadth-first
levels of Ybus's pattern from the slack bus (Cuthill & McKee, 1969), the
unknowns of a branch's two ends lie in one level or in adjacent ones, so
the Jacobian is block-tridiagonal over runs of consecutive levels and
factors without fill-in outside its blocks. The runs hold at least
MIN_BLOCK unknowns each; a network with fewer than MIN_BLOCKS of them
(the bundled 14-bus case, and tilings of it up to 56 buses) stays one
block in natural order, which is a plain dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .netmodel import AdmittanceMatrix, NetworkCase, build_admittance

__all__ = [
    "BusRole",
    "InjectionSpec",
    "PowerFlowSolution",
    "compute_mismatch",
    "mismatch_jacobian",
    "solve_power_flow",
    "solve_stack",
    "total_losses",
]

# A solve converges when its largest residual reaches TOLERANCE and gives
# up after MAX_ITERATIONS Newton steps.
TOLERANCE = 1e-6
MAX_ITERATIONS = 50

# The Newton step splits into level blocks of at least MIN_BLOCK unknowns
# when there are at least MIN_BLOCKS of them. With fewer, the numpy calls
# of each block cost more than the dense LU they save: on tilings of the
# bundled case, a one-member split solve lost at 74 and 99 unknowns and won
# from 149 up (one BLAS thread on a 2-vCPU Xeon host).
MIN_BLOCK = 24
MIN_BLOCKS = 4


class BusRole(IntEnum):
    SLACK = 0
    PQ = 1
    PV = 2


@dataclass(frozen=True, eq=False)
class InjectionSpec:
    """Specified net injections and bus roles, index-aligned with a case.

    p and q are per-unit net injections, shape (n,) for one injection set
    or (S, n) for a stack of S sets sharing roles. The slack entry of both
    and the q entry of PV buses are ignored; those quantities are outcomes,
    not inputs. v_setpoint holds the magnitude targets for the slack and
    PV buses (entries elsewhere are ignored), (n,) for every member or one
    row per member like p and q.
    """

    p: np.ndarray
    q: np.ndarray
    roles: np.ndarray
    v_setpoint: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        roles = np.asarray(self.roles, dtype=int)
        v_set = np.asarray(self.v_setpoint, dtype=float)
        per_bus = p.shape == q.shape and p.ndim in (1, 2) and p.shape[-1:] == roles.shape
        if not (per_bus and v_set.shape in (roles.shape, p.shape)):
            raise ValueError("injection arrays must share one shape per bus")
        if int(np.sum(roles == BusRole.SLACK)) != 1:
            raise ValueError("exactly one slack bus required")
        held = (roles == BusRole.SLACK) | (roles == BusRole.PV)
        if not np.all(np.isfinite(v_set[..., held]) & (v_set[..., held] > 0)):
            raise ValueError("slack and PV setpoints must be positive and finite")
        for name, arr in (("p", p), ("q", q), ("roles", roles), ("v_setpoint", v_set)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    """Solved (or last attempted) operating point, or one per member of a
    stack: every field then has one row per member, (S, n) for the bus
    arrays and (S,) for the rest, like InjectionSpec's (n,) or (S, n).

    p_injected / q_injected are the net injections computed from the final
    voltages; at a converged solution the non-slack entries match the
    specification within tolerance and the slack entries are the balance,
    the slack machine's output.
    """

    v: np.ndarray
    delta: np.ndarray
    p_injected: np.ndarray
    q_injected: np.ndarray
    iterations: int | np.ndarray
    max_mismatch: float | np.ndarray
    converged: bool | np.ndarray


def _matvec(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x for x of shape (..., n), one matrix-vector product per row
    (a stacked matmul equals its per-row products bit for bit; x @ matrix.T
    does not)."""
    return (matrix @ x[..., None])[..., 0]


def _injections(volt: np.ndarray, ybus: AdmittanceMatrix) -> np.ndarray:
    """Complex power injections S = V * conj(Y @ V) of voltages (..., n)."""
    return volt * np.conj(_matvec(ybus.matrix, volt))


def compute_mismatch(
    v: np.ndarray,
    delta: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    ybus: AdmittanceMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus residuals (specified minus computed) at a voltage state.

    v and delta are (n,) or a stack (S, n) matching the specified net
    injections p and q (an InjectionSpec's p and q, or rows of them).
    Returns full arrays for inspection; the entries that are not solver
    constraints (slack rows, PV reactive rows) are included at face value
    of p / q and must be masked by the caller.
    """
    volt = np.asarray(v, float) * np.exp(1j * np.asarray(delta, float))
    s_calc = _injections(volt, ybus)
    return p - s_calc.real, q - s_calc.imag


def _jacobian_layout(ybus: AdmittanceMatrix, pvpq: np.ndarray, pq: np.ndarray) -> tuple:
    """Where each Jacobian entry comes from and goes, memoized on ybus per
    bus ordering (pvpq, pq), each listing distinct buses. Sources index the
    float view of mismatch_jacobian's (..., 2, nnz) complex array, dS/d delta
    then dS/d |V| at the pattern's entries; destinations are the Jacobian's
    rows and columns."""
    key = (pvpq.tobytes(), pq.tobytes())
    layout = ybus._jacobian_layouts.get(key)
    if layout is None:
        rows, cols = ybus._pattern[:2]
        nnz = rows.size
        # each bus's row or column among the angle unknowns (pvpq), then
        # the magnitude unknowns (pq); -1 where it has none
        place = np.full((2, len(ybus.matrix)), -1)
        place[0, pvpq] = np.arange(pvpq.size)
        place[1, pq] = pvpq.size + np.arange(pq.size)
        # blocks dP/d delta, dP/d |V|, dQ/d delta, dQ/d |V|: P rows read real
        # parts and Q rows imaginary ones (+ 1), |V| columns dS/d |V| (+ 2 nnz)
        dest_row = place[[0, 0, 1, 1]][:, rows]
        dest_col = place[[0, 1, 0, 1]][:, cols]
        source = 2 * np.arange(nnz) + np.array([[0], [2 * nnz], [1], [2 * nnz + 1]])
        keep = (dest_row >= 0) & (dest_col >= 0)
        layout = (source[keep], dest_row[keep], dest_col[keep])
        ybus._jacobian_layouts[key] = layout
    return layout


def _bfs_levels(ybus: AdmittanceMatrix, root: int) -> np.ndarray:
    """Each bus's breadth-first distance from root over Ybus's pattern;
    buses root does not reach come one level after the farthest."""
    rows, cols = ybus._pattern[:2]
    n = len(ybus.matrix)
    start = np.searchsorted(rows, np.arange(n + 1)).tolist()
    neighbours = cols.tolist()
    level = [-1] * n
    level[root] = 0
    frontier, depth = [root], 0
    while frontier:
        depth += 1
        reached = []
        for i in frontier:
            for j in neighbours[start[i] : start[i + 1]]:
                if level[j] < 0:
                    level[j] = depth
                    reached.append(j)
        frontier = reached
    level = np.array(level)
    level[level < 0] = depth
    return level


def _block_layout(ybus: AdmittanceMatrix, pvpq: np.ndarray, pq: np.ndarray) -> tuple:
    """solve_stack's order of the unknowns, memoized beside
    _jacobian_layout's entry: the layout's sources with destinations in
    block order, the natural index of each unknown in block order and the
    block order of each natural one (None and None for one block), and the
    bounds of the diagonal blocks.

    The unknowns (angles at pvpq, then magnitudes at pq; the bus outside
    pvpq is the slack) are stably sorted by their bus's breadth-first level
    from the slack, and consecutive levels are merged into blocks of at
    least MIN_BLOCK unknowns, the last remainder joining the block before
    it. A branch joins buses of one level or adjacent levels, so the
    Jacobian in this order is block-tridiagonal. Fewer than MIN_BLOCKS
    blocks leave one block in natural order.
    """
    key = ("blocks", pvpq.tobytes(), pq.tobytes())
    layout = ybus._jacobian_layouts.get(key)
    if layout is None:
        source, dest_row, dest_col = _jacobian_layout(ybus, pvpq, pq)
        m = pvpq.size + pq.size
        slack = np.ones(len(ybus.matrix), dtype=bool)
        slack[pvpq] = False
        level = _bfs_levels(ybus, int(np.argmax(slack)))[np.concatenate([pvpq, pq])]
        order = np.argsort(level, kind="stable")
        bounds = [0]
        for end in np.flatnonzero(np.diff(level[order])) + 1:
            if end - bounds[-1] >= MIN_BLOCK and m - end >= MIN_BLOCK:
                bounds.append(int(end))
        bounds.append(m)
        if len(bounds) - 1 < MIN_BLOCKS:
            layout = (source, dest_row, dest_col, None, None, (0, m))
        else:
            rank = np.argsort(order)
            layout = (source, rank[dest_row], rank[dest_col], order, rank, tuple(bounds))
        ybus._jacobian_layouts[key] = layout
    return layout


def mismatch_jacobian(
    v: np.ndarray,
    delta: np.ndarray,
    ybus: AdmittanceMatrix,
    pvpq: np.ndarray,
    pq: np.ndarray,
    out: np.ndarray | None = None,
    *,
    _blocked: bool = False,
) -> np.ndarray:
    """Jacobian of the computed injections w.r.t. angles (pvpq) and magnitudes (pq).

    Rows: d P[pvpq], d Q[pq]; columns: d delta[pvpq], d |V|[pq]. The solver
    uses it as J dx = residual since residual = spec - computed. Voltages
    of shape (S, n) give a stack of S Jacobians, every entry elementwise in
    its row. With I = Y @ V and u = V/|V| (MATPOWER's dSbus_dV in vector
    form, Zimmerman et al., IEEE TPWRS 26(1), 2011):
    dS_i/d delta_j = -j V_i conj(Y_ij V_j), plus j V_i conj(I_i) if i = j;
    dS_i/d |V_j| = V_i conj(Y_ij u_j), plus conj(I_i) u_i if i = j.
    Both are formed only at Ybus's nonzeros and the diagonal (Tinney &
    Hart, IEEE TPAS 86(11), 1967); every other entry of the Jacobian is
    zero.

    The result is written into out when given, of shape (..., m, m) with
    m = pvpq.size + pq.size; out must be zero wherever ybus's pattern puts
    no entry (a Jacobian it held before of the same ybus, pvpq and pq
    qualifies), and only the pattern's entries are rewritten. solve_stack
    asks for its rows and columns in its block order (_blocked).
    """
    volt = np.asarray(v, float) * np.exp(1j * np.asarray(delta, float))
    rows, cols, values, diag = ybus._pattern
    current_conj = np.conj(_matvec(ybus.matrix, volt))
    unit = volt / np.abs(volt)
    ds = np.empty(volt.shape[:-1] + (2, rows.size), dtype=complex)
    # Named operands and explicit ufunc calls: numpy evaluates `a * tmp` as
    # `tmp *= a` once the temporary tmp passes 256 KiB, and a complex
    # product's rounding depends on its operand order, so a large stack
    # would no longer match its lone members bit for bit.
    volt_rows, volt_cols, unit_cols = volt[..., rows], volt[..., cols], unit[..., cols]
    np.multiply(-1j * volt_rows, np.conj(values * volt_cols), out=ds[..., 0, :])
    np.multiply(volt_rows, np.conj(values * unit_cols), out=ds[..., 1, :])
    ds[..., 0, diag] += 1j * volt * current_conj
    ds[..., 1, diag] += current_conj * unit

    layout = _block_layout if _blocked else _jacobian_layout
    source, dest_row, dest_col = layout(ybus, pvpq, pq)[:3]
    if out is None:
        m = pvpq.size + pq.size
        out = np.zeros(volt.shape[:-1] + (m, m))
    out[..., dest_row, dest_col] = ds.reshape(volt.shape[:-1] + (-1,)).view(float)[..., source]
    return out


def _block_solve(jac: np.ndarray, rhs: np.ndarray, bounds: tuple) -> np.ndarray:
    """Solve each member's jac x = rhs, jac (S, m, m) block-tridiagonal with
    diagonal blocks between consecutive bounds, by block LU without pivoting
    between blocks: (G_k | g_k) = S_k^-1 (U_k | r_k), S_k+1 = D_k+1 - L_k G_k
    and r_k+1 -= L_k g_k forward, x_k = g_k - G_k x_k+1 back, where D, L
    and U are the diagonal, lower and upper blocks (views of jac) and S_0 =
    D_0. One block is one stacked LAPACK solve. Raises LinAlgError when a
    member's S_k is singular; a non-finite value raises no floating-point
    warning, as the caller checks the result.
    """
    if len(bounds) == 2:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    schur = jac[:, : bounds[1], : bounds[1]]
    r = rhs[:, : bounds[1], None]
    eliminated = []
    with np.errstate(all="ignore"):
        for lo, mid, hi in zip(bounds, bounds[1:], bounds[2:]):
            solved = np.linalg.solve(schur, np.concatenate([jac[:, lo:mid, mid:hi], r], axis=2))
            update = jac[:, mid:hi, lo:mid] @ solved
            schur = jac[:, mid:hi, mid:hi] - update[:, :, :-1]
            r = rhs[:, mid:hi, None] - update[:, :, -1:]
            eliminated.append(solved)
        x = [np.linalg.solve(schur, r)]
        for solved in reversed(eliminated):
            x.append(solved[:, :, -1:] - solved[:, :, :-1] @ x[-1])
    return np.concatenate(x[::-1], axis=1)[..., 0]


def _member_step(jac: np.ndarray, rhs: np.ndarray, bounds: tuple) -> np.ndarray:
    """One member's step alone: by blocks, or densely when a block is
    singular or the result is not finite, or NaN when jac is singular."""
    try:
        step = _block_solve(jac[None], rhs[None], bounds)[0]
        if np.all(np.isfinite(step)):
            return step
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError:
        return np.full(rhs.shape, np.nan)


def _newton_steps(jac: np.ndarray, residual: np.ndarray, blocks: tuple) -> np.ndarray:
    """Solve each member's J dx = residual, J in the block order that
    blocks = (order, rank, bounds) of _block_layout describes and residual
    and dx in natural order.

    The stacked solve raises for the whole stack when one member meets a
    singular block, so it is then repeated member by member; a member whose
    split solve fails or is not finite is solved again alone, densely, and
    gets a NaN step only when that is singular too. Its stack-mates are
    unaffected. One block is the dense solve already, so its non-finite
    steps stand.
    """
    order, rank, bounds = blocks
    rhs = residual if order is None else residual[:, order]
    try:
        steps = _block_solve(jac, rhs, bounds)
        retry = () if len(bounds) == 2 else np.flatnonzero(~np.all(np.isfinite(steps), axis=1))
    except np.linalg.LinAlgError:
        steps, retry = np.empty_like(rhs), range(len(jac))
    for k in retry:
        steps[k] = _member_step(jac[k], rhs[k], bounds)
    return steps if rank is None else steps[:, rank]


def total_losses(solution: PowerFlowSolution, case: NetworkCase) -> float:
    """Total active loss, cross-checked two ways.

    The loss is the sum of the solution's own net injections (slack
    included), checked against the sum of branch series I**2 R at its
    voltages over the case's branch records; a disagreement beyond 1e-8
    means the admittance model and the branch model have diverged, which
    is an internal bug, so it raises. It builds no admittance matrix.
    """
    branches = case.branches
    start, end = case._branch_ends.T
    rxt = np.array([(b.resistance, b.reactance, b.tap_ratio) for b in branches], dtype=float).reshape(-1, 3)
    z, tap = rxt[:, :2].view(complex)[:, 0], rxt[:, 2]  # z is exactly complex(r, x)
    volt = solution.v * np.exp(1j * solution.delta)
    by_injection = float(np.sum(solution.p_injected))
    i_series = (volt[start] / tap - volt[end]) / z
    by_branch = float(np.sum(z.real * np.abs(i_series) ** 2))
    if abs(by_injection - by_branch) > 1e-8:
        raise AssertionError(
            f"loss cross-check failed: injections {by_injection!r} vs branches {by_branch!r}"
        )
    return by_injection


def solve_stack(
    spec: InjectionSpec,
    ybus: AdmittanceMatrix,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> PowerFlowSolution:
    """Solve the AC power flow of every injection set in a stack.

    spec.p and spec.q are (S, n), or (n,) for a stack of one; Ybus's size
    must be n. Starts from the supplied (v, delta) pair, (n,) or (S, n),
    or flat, (1.0, 0.0), without one.
    Voltage magnitudes of the slack and PV buses are held at each member's
    setpoints (spec.v_setpoint, (n,) or one row per member); the slack
    angle is zero. A member stops as converged when its residual norm
    reaches TOLERANCE, and as not converged after MAX_ITERATIONS steps, or
    when its Newton step is singular or non-finite or would leave a
    non-finite or non-positive voltage magnitude; it then keeps its last
    usable state. The other members are unaffected. Returns one row per
    member in every field, with the injections of each member's final
    state, the slack's output among them.
    """
    roles = spec.roles
    if len(ybus.matrix) != roles.size:
        raise ValueError("injection spec and admittance matrix sizes disagree")
    pv = np.flatnonzero(roles == BusRole.PV)
    pq = np.flatnonzero(roles == BusRole.PQ)
    pvpq = np.concatenate([pv, pq])
    slack = int(np.flatnonzero(roles == BusRole.SLACK)[0])

    p, q = np.atleast_2d(spec.p), np.atleast_2d(spec.q)
    shape = p.shape
    v0, delta0 = (1.0, 0.0) if start is None else start
    v = np.array(np.broadcast_to(v0, shape), dtype=float)
    delta = np.array(np.broadcast_to(delta0, shape), dtype=float)
    held = np.concatenate([[slack], pv])
    v[:, held] = np.broadcast_to(spec.v_setpoint, shape)[:, held]
    delta[:, slack] = 0.0

    k = pvpq.size
    blocks = _block_layout(ybus, pvpq, pq)[3:]
    # One Jacobian buffer per call, in block order: each step rewrites only
    # the pattern's entries of its leading rows, so the rest stays zero.
    jac = np.zeros((shape[0], k + pq.size, k + pq.size))
    iterations = np.zeros(shape[0], dtype=int)
    max_mismatch = np.full(shape[0], np.inf)
    converged = np.zeros(shape[0], dtype=bool)
    active = np.arange(shape[0])
    # While every member steps, the loop works on the stack's own arrays;
    # once one stops, on copies of the rows still stepping, written back
    # after each step.
    v_now, delta_now, p_now, q_now = v, delta, p, q
    while active.size:
        dp, dq = compute_mismatch(v_now, delta_now, p_now, q_now, ybus)
        residual = np.concatenate([dp[:, pvpq], dq[:, pq]], axis=1)
        worst = np.max(np.abs(residual), axis=1, initial=0.0)
        done = worst <= TOLERANCE
        converged[active[done]] = True
        max_mismatch[active] = worst
        stepping = ~done & (iterations[active] < MAX_ITERATIONS)
        if not stepping.all():
            if not stepping.any():
                break
            active, residual = active[stepping], residual[stepping]
            v_now, delta_now, p_now, q_now = v[active], delta[active], p[active], q[active]
        step_jac = mismatch_jacobian(
            v_now, delta_now, ybus, pvpq, pq, out=jac[: active.size], _blocked=True
        )
        dx = _newton_steps(step_jac, residual, blocks)
        v_pq = v_now[:, pq] + dx[:, k:]
        usable = np.all(np.isfinite(dx), axis=1) & np.all(np.isfinite(v_pq) & (v_pq > 0), axis=1)
        if not usable.all():
            active, dx, v_pq = active[usable], dx[usable], v_pq[usable]
            v_now, delta_now, p_now, q_now = v[active], delta[active], p[active], q[active]
        delta_now[:, pvpq] += dx[:, :k]
        v_now[:, pq] = v_pq
        if v_now is not v:
            v[active] = v_now
            delta[active] = delta_now
        iterations[active] += 1
    s_calc = _injections(v * np.exp(1j * delta), ybus)
    return PowerFlowSolution(v, delta, s_calc.real, s_calc.imag, iterations, max_mismatch, converged)


def solve_power_flow(
    case: NetworkCase,
    spec: InjectionSpec,
    ybus: AdmittanceMatrix | None = None,
) -> PowerFlowSolution:
    """Solve the AC power flow for one set of injections from a flat start:
    the one row of `solve_stack` on a stack of one, which carries the
    injections of the final state, with Python scalars for iterations,
    max_mismatch and converged.

    Returns converged=False (with the last usable state) when the residual
    norm is still above TOLERANCE after MAX_ITERATIONS, or when a Newton
    step produces a singular system or an unusable voltage profile.
    """
    if ybus is None:
        ybus = build_admittance(case)
    if len(spec.roles) != case.n:
        raise ValueError("case and injection spec sizes disagree")
    if spec.p.ndim != 1:
        raise ValueError("solve_power_flow takes one injection set; solve_stack takes a stack")
    flows = solve_stack(spec, ybus)
    v, delta = flows.v[0], flows.delta[0]
    v.flags.writeable = False
    delta.flags.writeable = False
    return PowerFlowSolution(
        v=v,
        delta=delta,
        p_injected=flows.p_injected[0],
        q_injected=flows.q_injected[0],
        iterations=int(flows.iterations[0]),
        max_mismatch=float(flows.max_mismatch[0]),
        converged=bool(flows.converged[0]),
    )
