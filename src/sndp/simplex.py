"""Dense primal simplex with bounded variables, two phases and dual values.

Supported model shape: minimization, every variable with a finite lower
bound (the upper bound may be +inf), rows ``<=``, ``=`` or ``>=``.  This is
the shape of every model sndp builds; a maximization is written as the
minimization of the negated objective.

The solver keeps an explicit tableau (basis inverse times the constraint
matrix) in a numpy array, supports lower/upper variable bounds directly
(nonbasic variables may sit at either bound), detects infeasibility through a
phase-one artificial objective, and reports unboundedness with a certificate
ray.  On termination the basic solution and the row duals are recomputed from
a fresh factorization of the final basis, which removes accumulated pivot
drift before the built-in feasibility, complementary-slackness and
strong-duality checks run.

Dual sign convention: the reported row duals satisfy

    objective == sum_i dual_i * rhs_i  (+ reduced-cost terms for variables
                                        sitting at nonzero finite bounds)

so duals of ``<=`` rows are <= 0 and duals of ``>=`` rows are >= 0.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

PIVOT_TOL = 1e-10      # smallest usable pivot element
FEAS_TOL = 1e-9        # primal feasibility tolerance
DUAL_TOL = 1e-7        # duality-gap / complementary-slackness tolerance
STEP_TOL = 1e-12       # ratio-test steps at or below this are degenerate
BLAND_TRIGGER = 1000   # degenerate pivots before switching to Bland's rule
MAX_ITERS = 50000      # pivots per solve before LpNumericalError

RELATIONS = ("<=", "=", ">=")


class LpError(RuntimeError):
    """Base class for solver failures."""


class LpNumericalError(LpError):
    """Numerical failure (cycling guard exhausted or singular basis)."""


class SolveTimeout(LpError):
    """Raised when a caller's deadline expires inside a solve."""


def check_deadline(stamp: float | None, message: str) -> None:
    """Raise SolveTimeout(message) once the absolute time.monotonic() stamp
    has passed; a None stamp never expires."""
    if stamp is not None and time.monotonic() > stamp:
        raise SolveTimeout(message)


class LpModel:
    """A linear program with named variables and rows.

    The objective is minimized.  Variables carry a finite lower bound, an
    upper bound (+inf allowed) and an objective coefficient; rows are linear
    constraints with relation ``<=``, ``=`` or ``>=``.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.var_names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.objective: list[float] = []
        self.row_names: list[str] = []
        self.row_coeffs: list[dict[int, float]] = []
        self.row_relations: list[str] = []
        self.rhs: list[float] = []
        self._var_lookup: dict[str, int] = {}
        self._row_lookup: dict[str, int] = {}
        self._dense: np.ndarray | None = None

    # -- construction -------------------------------------------------------

    def add_var(self, name: str, *, lb: float = 0.0, ub: float = math.inf,
                obj: float = 0.0) -> int:
        if name in self._var_lookup:
            raise ValueError(f"duplicate variable name {name!r}")
        if math.isnan(lb) or math.isnan(ub) or not math.isfinite(obj):
            raise ValueError(f"variable {name!r}: bad bounds or objective")
        if lb > ub:
            raise ValueError(f"variable {name!r}: lower bound exceeds upper bound")
        if math.isinf(lb):
            raise ValueError(f"variable {name!r}: lower bound must be finite")
        idx = len(self.var_names)
        self.var_names.append(name)
        self.lower.append(float(lb))
        self.upper.append(float(ub))
        self.objective.append(float(obj))
        self._var_lookup[name] = idx
        self._dense = None
        return idx

    def add_row(self, name: str, coeffs, relation: str, rhs: float) -> int:
        if name in self._row_lookup:
            raise ValueError(f"duplicate row name {name!r}")
        if relation not in RELATIONS:
            raise ValueError(f"row {name!r}: relation must be one of {RELATIONS}")
        if not math.isfinite(rhs):
            raise ValueError(f"row {name!r}: right-hand side must be finite")
        clean: dict[int, float] = {}
        for key, value in coeffs.items():
            idx = self._var_lookup[key] if isinstance(key, str) else int(key)
            if not 0 <= idx < len(self.var_names):
                raise ValueError(f"row {name!r}: unknown variable {key!r}")
            if not math.isfinite(value):
                raise ValueError(f"row {name!r}: non-finite coefficient")
            if value != 0.0:
                clean[idx] = clean.get(idx, 0.0) + float(value)
        pos = len(self.row_names)
        self.row_names.append(name)
        self.row_coeffs.append(clean)
        self.row_relations.append(relation)
        self.rhs.append(float(rhs))
        self._row_lookup[name] = pos
        self._dense = None
        return pos

    def var_id(self, name: str) -> int:
        return self._var_lookup[name]

    def row_id(self, name: str) -> int:
        if name not in self._row_lookup:
            raise KeyError(f"unknown row {name!r}")
        return self._row_lookup[name]

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.row_names)

    def dense_matrix(self) -> np.ndarray:
        """Row-major coefficient matrix, cached until the model grows."""
        if self._dense is None or self._dense.shape != (self.num_rows,
                                                        self.num_vars):
            a = np.zeros((self.num_rows, self.num_vars))
            for pos, coeffs in enumerate(self.row_coeffs):
                for idx, coef in coeffs.items():
                    a[pos, idx] = coef
            self._dense = a
        return self._dense


@dataclasses.dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    objective: float
    values: np.ndarray
    duals: np.ndarray
    reduced_costs: np.ndarray
    var_names: tuple[str, ...]
    row_names: tuple[str, ...]
    ray: np.ndarray | None = None
    iterations: int = 0

    def value(self, name: str) -> float:
        return float(self.values[self.var_names.index(name)])

    def dual(self, name: str) -> float:
        try:
            pos = self.row_names.index(name)
        except ValueError:
            raise KeyError(f"unknown row {name!r}") from None
        return float(self.duals[pos])


# ---------------------------------------------------------------------------
# Standard-form translation
#
# Internally every variable is shifted by its lower bound to have lower bound
# zero, one column each; each row gets b >= 0 by sign normalization and a
# slack (<=), a surplus plus artificial (>=), or an artificial (=).


@dataclasses.dataclass
class _Standard:
    a: np.ndarray           # m x k constraint matrix, all equalities
    b: np.ndarray           # m, nonnegative
    cost: np.ndarray        # k, phase-two objective
    upper: np.ndarray       # k, upper bounds (inf allowed)
    row_sigma: np.ndarray   # +-1 per kept row
    kept_rows: np.ndarray   # original row index per tableau row
    artificials: np.ndarray  # bool per column
    basis_hint: np.ndarray  # starting basic column per row


def _standardize(model: LpModel, lower: np.ndarray, upper: np.ndarray
                 ) -> tuple[_Standard | None, str | None]:
    """Translate to computational form; returns (standard, infeasible_reason)."""
    n = model.num_vars
    if (lower > upper + FEAS_TOL).any():
        j = int(np.argmax(lower > upper + FEAS_TOL))
        return None, f"variable {model.var_names[j]} has empty bound interval"

    dense = model.dense_matrix()
    b_adj = np.asarray(model.rhs) - dense @ lower
    rels = np.array(model.row_relations, dtype="U2")
    le, ge = rels == "<=", rels == ">="
    nonempty = dense.any(axis=1)
    # an empty row is either trivially satisfied or infeasible
    unsat = ~nonempty & np.where(le, b_adj < -FEAS_TOL, np.where(
        ge, b_adj > FEAS_TOL, np.abs(b_adj) > FEAS_TOL))
    if unsat.any():
        i = int(np.argmax(unsat))
        return None, f"row {model.row_names[i]} is unsatisfiable"

    kept = np.flatnonzero(nonempty)
    flip = b_adj[kept] < 0
    sigma = np.where(flip, -1.0, 1.0)
    le, ge = (np.where(flip, ge[kept], le[kept]),
              np.where(flip, le[kept], ge[kept]))
    # per row: a slack (<=), a surplus then an artificial (>=), or an
    # artificial (=); the row's last column starts basic
    width = np.where(ge, 2, 1)
    last = n - 1 + np.cumsum(width)
    m, k = kept.size, n + int(width.sum())
    rows = np.arange(m)
    a = np.zeros((m, k))
    a[:, :n] = sigma[:, None] * dense[kept]
    a[rows[ge], last[ge] - 1] = -1.0
    a[rows, last] = 1.0
    artificials = np.zeros(k, dtype=bool)
    artificials[last[~le]] = True
    std = _Standard(
        a=a,
        b=sigma * b_adj[kept],
        cost=np.concatenate([np.asarray(model.objective), np.zeros(k - n)]),
        upper=np.concatenate([np.maximum(upper - lower, 0.0),
                              np.full(k - n, math.inf)]),
        row_sigma=sigma,
        kept_rows=kept,
        artificials=artificials,
        basis_hint=last,
    )
    return std, None


# ---------------------------------------------------------------------------
# Core simplex loop


class _Tableau:
    def __init__(self, std: _Standard, deadline: float | None):
        self.std = std
        self.m, self.k = std.a.shape
        self.t = std.a.copy()
        self.xb = std.b.copy()
        self.basis = std.basis_hint.copy()
        self.in_basis = np.zeros(self.k, dtype=bool)
        self.in_basis[self.basis] = True
        self.at_upper = np.zeros(self.k, dtype=bool)
        self.allowed = np.ones(self.k, dtype=bool)
        self.deadline = deadline
        self.iterations = 0
        self.degenerate = 0
        self.bland = False
        self.unbounded_col: tuple[int, float] | None = None

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        z = cost - self.t.T @ cost[self.basis] if self.m else cost.copy()
        z[self.basis] = 0.0
        return z

    def run(self, cost: np.ndarray, phase_one: bool) -> str:
        """Pivot until optimal for the given costs; returns 'optimal'/'unbounded'."""
        std = self.std
        z = self.reduced_costs(cost)
        refresh = 0
        while True:
            if self.iterations >= MAX_ITERS:
                raise LpNumericalError(
                    "pivot limit reached; basis: "
                    + ",".join(str(b) for b in self.basis[:50])
                )
            movable = self.allowed & ~self.in_basis & (std.upper > STEP_TOL)
            down = movable & ~self.at_upper & (z < -FEAS_TOL)
            up = movable & self.at_upper & (z > FEAS_TOL)
            eligible = down | up
            if not eligible.any():
                return "optimal"
            # a clock read is about 0.1 us against a pivot's ~200 us
            check_deadline(self.deadline,
                           f"LP deadline expired after {self.iterations} pivots")
            if self.bland:
                j = int(np.flatnonzero(eligible)[0])
            else:
                score = np.where(eligible, np.abs(z), -1.0)
                j = int(np.argmax(score))
            delta = -1.0 if self.at_upper[j] else 1.0
            d = self.t[:, j] if self.m else np.zeros(0)
            e = delta * d

            # ratio test: entering bound flip vs basic variables hitting bounds
            t_own = std.upper[j]
            t_rows = np.full(self.m, math.inf)
            to_upper = np.zeros(self.m, dtype=bool)
            if self.m:
                basic_upper = std.upper[self.basis]
                pos = e > PIVOT_TOL
                t_rows[pos] = np.maximum(self.xb[pos], 0.0) / e[pos]
                neg = (e < -PIVOT_TOL) & np.isfinite(basic_upper)
                if neg.any():
                    t_rows[neg] = np.maximum(basic_upper[neg] - self.xb[neg], 0.0) \
                        / (-e[neg])
                    to_upper[neg] = True
            t_row_min = float(t_rows.min()) if self.m else math.inf
            step = min(t_own, t_row_min)
            if math.isinf(step):
                if phase_one:
                    return self._fail_unbounded()
                self.unbounded_col = (j, delta)
                return "unbounded"
            self.iterations += 1
            if math.isfinite(t_own) and t_own <= t_row_min:
                # bound flip, no basis change
                if self.m:
                    self.xb -= t_own * e
                self.at_upper[j] = ~self.at_upper[j]
                continue
            # pivot: pick leaving row among minimizers
            cand = np.flatnonzero(t_rows <= step + STEP_TOL)
            if cand.size == 0:
                cand = np.array([int(np.argmin(t_rows))])
            if self.bland:
                r = int(cand[np.argmin(self.basis[cand])])
            else:
                r = int(cand[np.argmax(np.abs(e[cand]))])
            if abs(self.t[r, j]) <= PIVOT_TOL:
                usable = cand[np.abs(self.t[cand, j]) > PIVOT_TOL]
                if usable.size == 0:
                    raise LpNumericalError(
                        f"no usable pivot in column {j}; basis: "
                        + ",".join(str(b) for b in self.basis[:50]))
                r = int(usable[np.argmax(np.abs(self.t[usable, j]))])
            if step <= STEP_TOL:
                self.degenerate += 1
                if self.degenerate >= BLAND_TRIGGER:
                    self.bland = True
            leaving = int(self.basis[r])
            entering_value = (std.upper[j] if self.at_upper[j] else 0.0) + delta * step
            self.xb -= step * e
            self.xb[r] = entering_value
            self.at_upper[leaving] = bool(to_upper[r])
            self.in_basis[leaving] = False
            self.at_upper[j] = False
            self.in_basis[j] = True
            self.basis[r] = j
            piv = self.t[r, j]
            self.t[r] /= piv
            factors = self.t[:, j].copy()
            factors[r] = 0.0
            self.t -= np.outer(factors, self.t[r])
            self.t[:, j] = 0.0
            self.t[r, j] = 1.0
            zj = z[j]
            if abs(zj) > 0:
                z -= zj * self.t[r]
            z[j] = 0.0
            refresh += 1
            if refresh >= 200:
                z = self.reduced_costs(cost)
                refresh = 0

    def _fail_unbounded(self):  # pragma: no cover - phase one is always bounded
        raise LpNumericalError("phase-one objective unbounded")

    def drive_out_artificials(self) -> None:
        std = self.std
        for r in range(self.m):
            col = int(self.basis[r])
            if not std.artificials[col]:
                continue
            row = self.t[r]
            candidates = np.flatnonzero(
                (~std.artificials) & self.allowed & (np.abs(row) > PIVOT_TOL))
            candidates = candidates[~self.in_basis[candidates]]
            if candidates.size == 0:
                continue  # redundant row; artificial stays basic at zero
            j = int(candidates[0])
            piv = self.t[r, j]
            self.t[r] /= piv
            factors = self.t[:, j].copy()
            factors[r] = 0.0
            self.t -= np.outer(factors, self.t[r])
            self.t[:, j] = 0.0
            self.t[r, j] = 1.0
            self.in_basis[col] = False
            self.in_basis[j] = True
            was_upper = self.at_upper[j]
            self.at_upper[j] = False
            self.basis[r] = j
            # entering keeps its bound value; basic value unchanged (zero row)
            self.xb[r] = std.upper[j] if was_upper else 0.0


def _nonbasic_values(tab: _Tableau) -> np.ndarray:
    std = tab.std
    vals = np.zeros(tab.k)
    finite_upper = np.where(np.isfinite(std.upper), std.upper, 0.0)
    vals[tab.at_upper] = finite_upper[tab.at_upper]
    vals[tab.in_basis] = 0.0
    return vals


def solve_lp(model: LpModel, *,
             bounds_override: dict[int, tuple[float, float]] | None = None,
             deadline: float | None = None) -> LpSolution:
    """Solve a linear program, returning primal values and row duals.

    ``bounds_override`` maps variable indices to replacement (lb, ub) pairs
    without mutating the model (used heavily by the tree search).
    ``deadline`` is an absolute time.monotonic() stamp, checked before every
    pivot; crossing it raises SolveTimeout.  The returned solution is
    verified by direct substitution: primal feasibility within 1e-9,
    complementary slackness and strong duality within 1e-7 (scaled by
    problem magnitude).
    """
    if model.num_vars == 0:
        raise ValueError("model has no variables")
    lower = np.array(model.lower)
    upper = np.array(model.upper)
    if bounds_override:
        for idx, (lo, hi) in bounds_override.items():
            lower[idx], upper[idx] = lo, hi
    std, reason = _standardize(model, lower, upper)
    if std is None:
        return _no_optimum(model, "infeasible", 0)

    tab = _Tableau(std, deadline)
    scale = 1.0 + (float(np.abs(std.b).max()) if std.b.size else 0.0)

    if std.artificials.any():
        cost1 = np.where(std.artificials, 1.0, 0.0)
        tab.run(cost1, phase_one=True)
        phase1 = float(cost1[tab.basis] @ tab.xb) if tab.m else 0.0
        if phase1 > DUAL_TOL * scale:
            return _no_optimum(model, "infeasible", tab.iterations)
        tab.drive_out_artificials()
        tab.allowed[std.artificials] = False
        # nonbasic artificials are pinned at zero
        tab.at_upper[std.artificials & ~tab.in_basis] = False

    status = tab.run(std.cost, phase_one=False)
    if status == "unbounded":
        # certificate ray from the entering column that had no blocking bound
        j, delta = tab.unbounded_col
        step = np.zeros(tab.k)
        step[j] = delta
        step[tab.basis] = -delta * tab.t[:, j]
        return _no_optimum(model, "unbounded", tab.iterations,
                           ray=step[:model.num_vars])
    return _finalize(model, std, tab, lower, upper)


def _no_optimum(model: LpModel, status: str, iterations: int,
                ray: np.ndarray | None = None) -> LpSolution:
    """An infeasible or unbounded result: NaN values and duals."""
    return LpSolution(
        status=status,
        objective=-math.inf if status == "unbounded" else math.nan,
        values=np.full(model.num_vars, math.nan),
        duals=np.full(model.num_rows, math.nan),
        reduced_costs=np.full(model.num_vars, math.nan),
        var_names=tuple(model.var_names), row_names=tuple(model.row_names),
        ray=ray, iterations=iterations)


def _finalize(model: LpModel, std: _Standard, tab: _Tableau,
              lower: np.ndarray, upper: np.ndarray) -> LpSolution:
    m = tab.m
    if m:
        basis_cols = std.a[:, tab.basis]
        nb_vals = _nonbasic_values(tab)
        nb_vals[tab.basis] = 0.0
        rhs_eff = std.b - std.a @ nb_vals
        try:
            xb = np.linalg.solve(basis_cols, rhs_eff)
            y = np.linalg.solve(basis_cols.T, std.cost[tab.basis])
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise LpNumericalError(f"singular final basis: {exc}") from exc
        x_std = nb_vals
        x_std[tab.basis] = xb
    else:
        x_std = _nonbasic_values(tab)
        y = np.zeros(0)

    values = lower + x_std[:model.num_vars]

    duals = np.zeros(model.num_rows)
    duals[std.kept_rows] = std.row_sigma * y

    objective = float(np.asarray(model.objective) @ values)

    dense = model.dense_matrix()
    reduced = np.asarray(model.objective) - dense.T @ duals

    _verify(model, dense, values, duals, reduced, objective, lower, upper)
    return LpSolution(
        status="optimal", objective=objective, values=values, duals=duals,
        reduced_costs=reduced, var_names=tuple(model.var_names),
        row_names=tuple(model.row_names), iterations=tab.iterations)


def _verify(model: LpModel, dense: np.ndarray, values: np.ndarray,
            duals: np.ndarray, reduced: np.ndarray, objective: float,
            lower: np.ndarray, upper: np.ndarray) -> None:
    """Check the reported solution by direct substitution."""
    scale = 1.0 + float(np.abs(values).max(initial=0.0))
    obj_scale = max(1.0, abs(objective))
    bound_tol = FEAS_TOL * scale * 10
    if model.num_rows:
        rhs = np.asarray(model.rhs)
        resid = dense @ values - rhs
        tol = FEAS_TOL * np.maximum(scale, 1.0 + np.abs(rhs)) * 10
        rels = np.array(model.row_relations)
        viol = ((rels == "<=") & (resid > tol)) \
            | ((rels == ">=") & (resid < -tol)) \
            | ((rels == "=") & (np.abs(resid) > tol))
        if viol.any():
            i = int(np.argmax(viol))
            raise LpNumericalError(
                f"row {model.row_names[i]} violated by {resid[i]:g}")
        slackness = (rels != "=") & (np.abs(duals * resid)
                                     > DUAL_TOL * obj_scale * 10)
        if slackness.any():
            i = int(np.argmax(slackness))
            raise LpNumericalError(
                f"complementary slackness violated on row {model.row_names[i]}")
    if ((values < lower - bound_tol) | (values > upper + bound_tol)).any():
        raise LpNumericalError("variable bound violated in reported solution")
    # strong duality including reduced-cost contributions at finite bounds
    at_lower = np.isfinite(lower) & (np.abs(values - lower) <= bound_tol + 1e-12)
    at_upper = ~at_lower & np.isfinite(upper) \
        & (np.abs(values - upper) <= bound_tol + 1e-12)
    interior = ~at_lower & ~at_upper
    if (np.abs(reduced[interior]) > DUAL_TOL * obj_scale * 10).any():
        j = int(np.flatnonzero(interior)[
            int(np.argmax(np.abs(reduced[interior])))])
        raise LpNumericalError(
            f"nonzero reduced cost on interior variable {model.var_names[j]}")
    dual_obj = float(duals @ np.asarray(model.rhs)) if model.num_rows else 0.0
    dual_obj += float(reduced[at_lower] @ lower[at_lower])
    dual_obj += float(reduced[at_upper] @ upper[at_upper])
    if abs(dual_obj - objective) > DUAL_TOL * (1.0 + abs(objective)) * 10:
        raise LpNumericalError(
            f"duality gap {dual_obj - objective:g} exceeds tolerance")
