"""Dense simplex with bounded variables: two-phase primal, warm dual, duals.

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

Warm start.  A model caches its standard form, built once at its own bounds;
a solve in that form reports its final basis (basic columns plus the
nonbasic columns at their upper bound).  Given such a basis and tighter
bounds (a branch-and-bound child), ``solve_lp`` rebuilds the tableau with one
factorization of the basis, which stays dual feasible, and runs the bounded
dual simplex (Koberstein, "The dual simplex method: techniques for a fast and
stable implementation", PhD thesis, Paderborn 2005): the basic variable most
outside its bounds leaves, and the entering column minimizes
``|z_j| / |alpha_rj|`` over the nonbasic columns that move it back, ties to
the largest ``|alpha_rj|``; no such column proves the node infeasible, which
a Farkas row from a fresh factorization confirms.  The primal loop then
confirms optimality by its own test, and the result passes the same final
factorization and checks as a cold solve.  Whenever this path cannot finish
the LP is solved cold.  All three loops (primal, dual and the drive-out of
artificials after phase one) share one pivot routine.

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
        self._standard: tuple[_Standard | None] | None = None

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
        self._dense = self._standard = None
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
        self._dense = self._standard = None
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

    def standard_form(self) -> _Standard | None:
        """Computational form at the model's own bounds, None when an empty
        row makes the model infeasible; cached until the model grows."""
        if self._standard is None:
            self._standard = (_standardize(self, np.array(self.lower),
                                           np.array(self.upper)),)
        return self._standard[0]


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
    # (basic column per row, nonbasic columns at their upper bound) in the
    # model's cached standard form; None after a solve in another form
    basis: tuple[np.ndarray, np.ndarray] | None = None

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
# Internally every variable is shifted by a lower bound to have lower bound
# zero, one column each; each row gets b >= 0 by sign normalization and a
# slack (<=), a surplus plus artificial (>=), or an artificial (=).


@dataclasses.dataclass
class _Standard:
    a: np.ndarray           # m x k constraint matrix, all equalities
    b: np.ndarray           # m, nonnegative at the shift
    cost: np.ndarray        # k, phase-two objective
    upper: np.ndarray       # k, upper bounds (inf allowed)
    shift: np.ndarray       # n, lower bound each variable is shifted by
    row_sigma: np.ndarray   # +-1 per kept row
    kept_rows: np.ndarray   # original row index per tableau row
    artificials: np.ndarray  # bool per column
    basis_hint: np.ndarray  # starting basic column per row


def _standardize(model: LpModel, lower: np.ndarray, upper: np.ndarray
                 ) -> _Standard | None:
    """Translate to computational form; None when a bound interval is empty
    or an empty row is unsatisfiable."""
    n = model.num_vars
    if (lower > upper + FEAS_TOL).any():
        return None

    dense = model.dense_matrix()
    b_adj = np.asarray(model.rhs) - dense @ lower
    rels = np.array(model.row_relations, dtype="U2")
    le, ge = rels == "<=", rels == ">="
    nonempty = dense.any(axis=1)
    # an empty row is either trivially satisfied or infeasible
    unsat = ~nonempty & np.where(le, b_adj < -FEAS_TOL, np.where(
        ge, b_adj > FEAS_TOL, np.abs(b_adj) > FEAS_TOL))
    if unsat.any():
        return None

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
    return _Standard(
        a=a,
        b=sigma * b_adj[kept],
        cost=np.concatenate([np.asarray(model.objective), np.zeros(k - n)]),
        upper=np.concatenate([np.maximum(upper - lower, 0.0),
                              np.full(k - n, math.inf)]),
        shift=lower,
        row_sigma=sigma,
        kept_rows=kept,
        artificials=artificials,
        basis_hint=last,
    )


# ---------------------------------------------------------------------------
# Core simplex loops


class _Tableau:
    """B^-1 A and the basic values of one basis, with per-column bounds
    ``lo``/``hi`` in the shifted space.  A nonbasic column sits at ``hi``
    where ``at_upper`` is set and at ``lo`` elsewhere, so a fixed column
    (lo == hi) is its own bound whichever flag it carries."""

    def __init__(self, std: _Standard, lo: np.ndarray, hi: np.ndarray,
                 deadline: float | None, basis: np.ndarray | None = None,
                 at_upper: np.ndarray | None = None,
                 factor: np.ndarray | None = None):
        """Start at the slack basis, or at ``basis`` with ``at_upper`` from a
        copy of its ``factor``, ``B^-1 [A | b]`` (see ``_factorize``)."""
        self.std = std
        self.m, self.k = std.a.shape
        self.lo, self.hi = lo, hi
        if basis is None:
            self.t = std.a.copy()
            self.xb = std.b.copy()
            self.basis = std.basis_hint.copy()
            self.at_upper = np.zeros(self.k, dtype=bool)
        else:
            solved = factor.copy()
            self.t, self.xb = solved[:, :-1], solved[:, -1]
            self.basis = basis.copy()
            self.at_upper = at_upper & np.isfinite(hi)
        self.in_basis = np.zeros(self.k, dtype=bool)
        self.in_basis[self.basis] = True
        if basis is not None:
            self.at_upper &= ~self.in_basis
            self.xb -= self.t @ self.nonbasic_values()
        self.deadline = deadline
        self.iterations = 0
        self.degenerate = 0
        self.bland = False
        self.unbounded_col: tuple[int, float] | None = None

    def nonbasic_values(self) -> np.ndarray:
        """Every column's value with the basic ones set to zero."""
        vals = np.where(self.at_upper, self.hi, self.lo)
        vals[self.in_basis] = 0.0
        return vals

    def movable(self) -> np.ndarray:
        return ~self.in_basis & (self.hi - self.lo > STEP_TOL)

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        z = cost - self.t.T @ cost[self.basis] if self.m else cost.copy()
        z[self.basis] = 0.0
        return z

    def check_pivot_limit(self) -> None:
        if self.iterations >= MAX_ITERS:
            raise LpNumericalError(
                "pivot limit reached; basis: "
                + ",".join(str(b) for b in self.basis[:50])
            )

    def pivot(self, r: int, j: int, dx: float, z: np.ndarray | None = None,
              leaving_at_upper: bool = False) -> None:
        """Column j enters the basis at row r, having moved by ``dx`` from
        its bound; the leaving column rests at its upper bound when
        ``leaving_at_upper`` and at its lower bound otherwise.  The reduced
        costs ``z``, when given, are updated in place."""
        entering_value = (self.hi[j] if self.at_upper[j] else self.lo[j]) + dx
        if dx:
            self.xb -= dx * self.t[:, j]
        self.xb[r] = entering_value
        self.t[r] /= self.t[r, j]
        factors = self.t[:, j].copy()
        factors[r] = 0.0
        self.t -= np.outer(factors, self.t[r])
        self.t[:, j] = 0.0
        self.t[r, j] = 1.0
        if z is not None:
            zj = z[j]
            if abs(zj) > 0:
                z -= zj * self.t[r]
            z[j] = 0.0
        leaving = int(self.basis[r])
        self.at_upper[leaving] = leaving_at_upper
        self.in_basis[leaving] = False
        self.at_upper[j] = False
        self.in_basis[j] = True
        self.basis[r] = j

    def run(self, cost: np.ndarray, phase_one: bool) -> str:
        """Primal simplex until optimal for the given costs; returns
        'optimal'/'unbounded'."""
        z = self.reduced_costs(cost)
        refresh = 0
        while True:
            self.check_pivot_limit()
            movable = self.movable()
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
            t_own = self.hi[j] - self.lo[j]
            t_rows = np.full(self.m, math.inf)
            to_upper = np.zeros(self.m, dtype=bool)
            if self.m:
                basic_lower = self.lo[self.basis]
                basic_upper = self.hi[self.basis]
                pos = e > PIVOT_TOL
                t_rows[pos] = np.maximum(self.xb[pos] - basic_lower[pos], 0.0) \
                    / e[pos]
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
            self.pivot(r, j, delta * step, z, bool(to_upper[r]))
            refresh += 1
            if refresh >= 200:
                z = self.reduced_costs(cost)
                refresh = 0

    def _fail_unbounded(self):  # pragma: no cover - phase one is always bounded
        raise LpNumericalError("phase-one objective unbounded")

    def run_dual(self, cost: np.ndarray) -> str:
        """Bounded dual simplex from a dual feasible basis: 'optimal' once
        every basic value lies within its bounds, 'infeasible' when the row
        of the leaving variable has no entering candidate and a fresh
        factorization confirms it.  A basis that is not dual feasible, or an
        unconfirmed infeasibility, raises LpNumericalError."""
        z = self.reduced_costs(cost)
        movable = self.movable()
        if ((movable & ~self.at_upper & (z < -DUAL_TOL))
                | (movable & self.at_upper & (z > DUAL_TOL))).any():
            raise LpNumericalError("start basis is not dual feasible")
        while True:
            self.check_pivot_limit()
            if not self.m:
                return "optimal"
            basic_lower = self.lo[self.basis]
            basic_upper = self.hi[self.basis]
            below = basic_lower - self.xb
            outside = np.maximum(below, self.xb - basic_upper)
            r = int(np.argmax(outside))
            if outside[r] <= FEAS_TOL:
                return "optimal"
            check_deadline(self.deadline,
                           f"LP deadline expired after {self.iterations} pivots")
            rise = bool(below[r] > 0)  # the leaving variable climbs to lo
            alpha = self.t[r]
            # a nonbasic moving off its lower (upper) bound changes the
            # leaving variable at rate -alpha (+alpha)
            rate = np.where(self.at_upper, alpha, -alpha)
            toward = rate > PIVOT_TOL if rise else rate < -PIVOT_TOL
            cand = np.flatnonzero(self.movable() & toward)
            if cand.size == 0:
                if self._certifies_infeasible(r):
                    return "infeasible"
                raise LpNumericalError(f"row {r} infeasibility not confirmed")
            ratio = np.abs(z[cand]) / np.abs(alpha[cand])
            ties = cand[ratio <= ratio.min() + STEP_TOL]
            j = int(ties[np.argmax(np.abs(alpha[ties]))])
            target = basic_lower[r] if rise else basic_upper[r]
            self.iterations += 1
            self.pivot(r, j, (self.xb[r] - target) / alpha[j], z,
                       leaving_at_upper=not rise)

    def _certifies_infeasible(self, r: int) -> bool:
        """Whether row r of a fresh factorization, y^T A x = y^T b, is out of
        reach for every x within the column bounds (a Farkas proof)."""
        std = self.std
        unit = np.zeros(self.m)
        unit[r] = 1.0
        y = np.linalg.solve(std.a[:, self.basis].T, unit)
        row, target = y @ std.a, float(y @ std.b)
        # entries below the pivot tolerance are rounding (the other basic
        # columns' are zero in exact arithmetic), not directions to reach
        pos, neg = row > PIVOT_TOL, row < -PIVOT_TOL
        reach_low = row[pos] @ self.lo[pos] + row[neg] @ self.hi[neg]
        reach_high = row[pos] @ self.hi[pos] + row[neg] @ self.lo[neg]
        tol = DUAL_TOL * (1.0 + float(np.abs(std.b).max()))
        return bool(reach_low > target + tol or reach_high < target - tol)

    def drive_out_artificials(self) -> None:
        std = self.std
        for r in range(self.m):
            if not std.artificials[self.basis[r]]:
                continue
            candidates = np.flatnonzero(
                ~std.artificials & ~self.in_basis
                & (np.abs(self.t[r]) > PIVOT_TOL))
            if candidates.size == 0:
                continue  # redundant row; artificial stays basic at zero
            # entering keeps its bound value; basic values unchanged
            self.pivot(r, int(candidates[0]), 0.0)


def _factorize(std: _Standard, columns: np.ndarray) -> np.ndarray:
    """``B^-1 [A | b]`` for the basis ``columns`` (LinAlgError when
    singular)."""
    return np.linalg.solve(std.a[:, columns], np.column_stack((std.a, std.b)))


def solve_lp(model: LpModel, *,
             bounds_override: dict[int, tuple[float, float]] | None = None,
             basis: tuple[np.ndarray, np.ndarray] | None = None,
             shared: dict | None = None,
             deadline: float | None = None) -> LpSolution:
    """Solve a linear program, returning primal values and row duals.

    ``bounds_override`` maps variable indices to replacement (lb, ub) pairs
    without mutating the model (used heavily by the tree search).
    ``basis``, the ``basis`` of an earlier solution of this model, warm
    starts the solve: one factorization rebuilds its tableau and the bounded
    dual simplex re-solves under the overridden bounds.  When that cannot
    finish (a corrupt or singular basis, dual feasibility lost to drift, the
    pivot limit or a failed check) the LP is solved cold, and the result
    counts the pivots of both.  ``shared``, one dict handed to the warm
    solves of sibling nodes, keeps the first one's factorization of
    ``basis`` for the others, so the basis is factorized once.
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
    spent = 0
    if basis is not None:
        warm, spent = _solve_warm(model, lower, upper, basis, shared,
                                  deadline)
        if warm is not None:
            return warm
    cold = _solve_cold(model, lower, upper, bool(bounds_override), deadline)
    return dataclasses.replace(cold, iterations=cold.iterations + spent) \
        if spent else cold


def _solve_cold(model: LpModel, lower: np.ndarray, upper: np.ndarray,
                overridden: bool, deadline: float | None) -> LpSolution:
    """Two-phase primal simplex from the slack basis.  Without overridden
    bounds it runs in the model's cached standard form and reports its
    final basis."""
    std = _standardize(model, lower, upper) if overridden \
        else model.standard_form()
    if std is None:
        return _no_optimum(model, "infeasible", 0)

    tab = _Tableau(std, np.zeros(std.a.shape[1]), std.upper.copy(), deadline)
    scale = 1.0 + (float(np.abs(std.b).max()) if std.b.size else 0.0)

    if std.artificials.any():
        cost1 = np.where(std.artificials, 1.0, 0.0)
        tab.run(cost1, phase_one=True)
        phase1 = float(cost1[tab.basis] @ tab.xb) if tab.m else 0.0
        if phase1 > DUAL_TOL * scale:
            return _no_optimum(model, "infeasible", tab.iterations)
        tab.drive_out_artificials()
        tab.hi[std.artificials] = 0.0  # artificials are pinned at zero

    status = tab.run(std.cost, phase_one=False)
    if status == "unbounded":
        # certificate ray from the entering column that had no blocking bound
        j, delta = tab.unbounded_col
        step = np.zeros(tab.k)
        step[j] = delta
        step[tab.basis] = -delta * tab.t[:, j]
        return _no_optimum(model, "unbounded", tab.iterations,
                           ray=step[:model.num_vars])
    return _finalize(model, std, tab, lower, upper, keep_basis=not overridden)


def _solve_warm(model: LpModel, lower: np.ndarray, upper: np.ndarray,
                basis: tuple[np.ndarray, np.ndarray], shared: dict | None,
                deadline: float | None) -> tuple[LpSolution | None, int]:
    """Bounded dual simplex from ``basis`` in the cached standard form,
    factorized once per ``shared`` dict (keyed by the basis columns).

    Returns the solution and the pivots spent; the solution is None when
    this path cannot finish and the LP must be solved cold.
    """
    std = model.standard_form()
    if std is None:
        return None, 0
    m, k = std.a.shape
    columns, at_upper = (np.asarray(part) for part in basis)
    if columns.shape != (m,) or at_upper.shape != (k,) \
            or at_upper.dtype != bool or columns.dtype.kind not in "iu" \
            or ((columns < 0) | (columns >= k)).any() \
            or np.bincount(columns, minlength=k).max(initial=0) > 1:
        return None, 0
    n = model.num_vars
    lo = np.zeros(k)
    hi = std.upper.copy()
    lo[:n] = lower - std.shift
    hi[:n] = upper - std.shift
    hi[std.artificials] = 0.0
    if (lo > hi).any():
        return None, 0
    shared = {} if shared is None else shared
    key = columns.tobytes()
    if key not in shared:
        try:
            shared[key] = _factorize(std, columns)
        except np.linalg.LinAlgError:
            return None, 0
    tab = _Tableau(std, lo, hi, deadline, columns, at_upper, shared[key])
    try:
        if tab.run_dual(std.cost) == "infeasible":
            return (_no_optimum(model, "infeasible", tab.iterations),
                    tab.iterations)
        # the primal loop confirms optimality by the cold solve's own test
        # and repairs reduced costs that drifted past it
        if tab.run(std.cost, phase_one=False) != "optimal":
            return None, tab.iterations
        return (_finalize(model, std, tab, lower, upper, keep_basis=True),
                tab.iterations)
    except (LpNumericalError, np.linalg.LinAlgError):
        return None, tab.iterations


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
              lower: np.ndarray, upper: np.ndarray,
              keep_basis: bool) -> LpSolution:
    x_std = tab.nonbasic_values()
    if tab.m:
        basis_cols = std.a[:, tab.basis]
        rhs_eff = std.b - std.a @ x_std
        try:
            xb = np.linalg.solve(basis_cols, rhs_eff)
            y = np.linalg.solve(basis_cols.T, std.cost[tab.basis])
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular final basis: {exc}") from exc
        x_std[tab.basis] = xb
    else:
        y = np.zeros(0)

    values = std.shift + x_std[:model.num_vars]

    duals = np.zeros(model.num_rows)
    duals[std.kept_rows] = std.row_sigma * y

    objective = float(np.asarray(model.objective) @ values)

    dense = model.dense_matrix()
    reduced = np.asarray(model.objective) - dense.T @ duals

    _verify(model, dense, values, duals, reduced, objective, lower, upper)
    return LpSolution(
        status="optimal", objective=objective, values=values, duals=duals,
        reduced_costs=reduced, var_names=tuple(model.var_names),
        row_names=tuple(model.row_names), iterations=tab.iterations,
        basis=(tab.basis.copy(), tab.at_upper.copy()) if keep_basis else None)


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
