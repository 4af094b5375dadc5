"""Convex trajectory planning on B-spline coefficients.

Every mission requirement is compiled into a constraint on derivative
control points of the flat-output spline. Because each derivative curve
lies in the convex hull of d - r + 1 of its control points on every knot
span, a finite list of second-order cone constraints certifies the bound
for all continuous time. The compiled program minimizes the integral of
squared snap minus the sum of per-span thrust floors zeta, whose cones
linearize the body-rate bound.

Variable layout: x = [P_x (n+1), P_y (n+1), P_z (n+1), zeta (K), s_x, s_y, s_z]
with axis blocks first, then rate floors, then snap epigraph variables.

Row layout: a constraint on a derivative control point touches only the
control points that point is made from. The order-r point j is the stencil
KnotVector.derivative_stencil(r)[j - r] over control points j - r .. j, so
its rows carry 3(r + 1) coefficients, one run of r + 1 per axis, together
with those 3(r + 1) column indices; a waypoint reads the d + 1 basis
functions alive at its time, and an endpoint pin the first or last stencil
row of its order. Every family reaches the cone program as one batch of such
narrow rows per cone kind.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .documents import checked, object_schema
from .flatness import GRAVITY
from .socp import DEFAULT_TOL, MAX_TOL, MIN_TOL, OPTIMAL, ConeProgram, Solution
from .splines import KnotVector, SplineCurve, plan_knots, snap_gram
from .tracker import CbfParams


class PlanInfeasibleError(RuntimeError):
    """The compiled cone program has no solution (or the solver failed).

    Carries the solver status and the census of constraint blocks so the
    caller can see which requirement families were active.
    """

    def __init__(self, status: str, block_counts: dict[str, int]):
        self.status = status
        self.block_counts = dict(block_counts)
        census = ", ".join(f"{k}={v}" for k, v in sorted(block_counts.items()))
        super().__init__(f"plan is {status}; constraint blocks: {census}")


class MarginInfeasibleError(ValueError):
    """Tracking margins leave no room for the planner (hover excluded)."""


# --------------------------------------------------------------------- regions


def _finite(name: str, value) -> np.ndarray:
    """value as a float array; ValueError naming the field unless every entry is a finite number.

    The error names the first non-finite entry, with its index unless value is a scalar.
    """
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be numbers: {exc}") from None
    finite = np.isfinite(arr)
    if not finite.all():
        at = tuple(int(i) for i in np.argwhere(~finite)[0])
        where = f" at {at if len(at) > 1 else at[0]}" if at else ""
        raise ValueError(f"{name} must be finite, got {arr[at]}{where}")
    return arr


@dataclass(frozen=True, eq=False)
class SocSet:
    """One membership constraint ||A p + b|| <= c' p + d on a point p in R^3.

    A linear half-space is the degenerate case with zero rows in A
    (the norm of an empty vector is zero).
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float).reshape(-1, 3)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=float).reshape(3)
        if b.size != A.shape[0]:
            raise ValueError("offset length must match the number of rows")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def is_linear(self) -> bool:
        return self.A.shape[0] == 0 or not self.A.any()

    def margin(self, p: np.ndarray) -> np.ndarray:
        """Signed slack c'p + d - ||Ap + b||; nonnegative inside. Batched.

        The squares of y = Ap + b are summed left to right, one column of y
        at a time. For up to 7 rows of A that is np.linalg.norm(y, axis=-1)
        bit for bit, without numpy's per-sample inner loop.
        """
        p = np.asarray(p, dtype=float)
        lhs = 0.0
        if self.A.shape[0]:
            y = p @ self.A.T + self.b
            lhs = np.sqrt(reduce(np.add, [y[..., j] * y[..., j] for j in range(y.shape[-1])]))
        return p @ self.c + self.d - lhs


@dataclass(frozen=True)
class ConvexRegion:
    """Intersection of one or more SocSet constraints, with constructors for common shapes."""

    cones: tuple[SocSet, ...]
    name: str = ""

    def __post_init__(self):
        if not self.cones:
            raise ValueError(f"region '{self.name}' needs at least one cone")

    @staticmethod
    def box(lo, hi, name: str = "box") -> "ConvexRegion":
        lo = _finite("box lo", lo)
        hi = _finite("box hi", hi)
        if np.any(hi <= lo):
            raise ValueError(f"box bounds must satisfy lo < hi, got {lo} {hi}")
        empty = np.zeros((0, 3))
        cones = []
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            cones.append(SocSet(empty, np.zeros(0), -e, float(hi[k])))
            cones.append(SocSet(empty, np.zeros(0), e, -float(lo[k])))
        return ConvexRegion(tuple(cones), name)

    @staticmethod
    def ball(center, radius: float, name: str = "ball") -> "ConvexRegion":
        c = _finite("ball center", center)
        if _finite("ball radius", radius) <= 0:
            raise ValueError("ball radius must be positive")
        return ConvexRegion((SocSet(np.eye(3), -c, np.zeros(3), float(radius)),), name)

    @staticmethod
    def ellipsoid(A, b, name: str = "ellipsoid") -> "ConvexRegion":
        """Region ||A p + b|| <= 1."""
        A, b = _finite("ellipsoid A", A), _finite("ellipsoid b", b)
        return ConvexRegion((SocSet(A, b, np.zeros(3), 1.0),), name)

    @staticmethod
    def halfspace(normal, offset: float, name: str = "halfspace") -> "ConvexRegion":
        """Region normal' p <= offset."""
        a = _finite("halfspace normal", normal)
        offset = float(_finite("halfspace offset", offset))
        return ConvexRegion((SocSet(np.zeros((0, 3)), np.zeros(0), -a, offset),), name)

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, ...]:
        """The member cones as arrays (sizes, c, d, A, b, first), in member order.

        sizes[i] is the row count of cone i's A, or -1 if the cone is linear
        and compiles to the half-space c'p + d >= 0; its d then holds
        d - ||b||, since ||A p + b|| = ||b|| when A is zero. The rows of every
        A are stacked in A (rows, 3) and b (rows,), cone i's from row first[i] on.
        """
        cones = self.cones
        rows = np.array([cone.A.shape[0] for cone in cones], dtype=int)
        linear = np.array([cone.is_linear for cone in cones], dtype=bool)
        sizes = np.where(linear, -1, rows)
        c = np.array([cone.c for cone in cones]).reshape(-1, 3)
        d = np.array([cone.d for cone in cones], dtype=float)
        d[linear] -= [np.linalg.norm(cone.b) for cone in cones if cone.is_linear]
        A = np.concatenate([cone.A for cone in cones])
        b = np.concatenate([cone.b for cone in cones])
        return sizes, c, d, A, b, np.cumsum(rows) - rows

    @cached_property
    def _margin_split(self) -> tuple[list[SocSet], np.ndarray, np.ndarray]:
        """(cones, normals, offsets): _stacked split once for margin().

        cones are the member cones that _stacked does not mark linear, in
        member order; normals (3, k) and offsets (k,) are c.T and d of the
        k that it does.
        """
        sizes, c, d = self._stacked[:3]
        linear = sizes < 0
        cones = [cone for cone, lin in zip(self.cones, linear.tolist()) if not lin]
        return cones, c[linear].T, d[linear]

    @cached_property
    def _table_key(self) -> tuple[bytes, ...]:
        """The bytes of _stacked: regions with equal keys have bitwise-equal margins."""
        return tuple(part.tobytes() for part in self._stacked)

    def margin(self, p: np.ndarray) -> np.ndarray:
        """Worst slack over the member cones; nonnegative inside.

        Batched over the leading axes of p, shape (..., 3). The half-spaces
        are the cones that _stacked, the compiler's table, marks linear;
        _margin_split picks them out once per region. They are evaluated
        together, as one product with their stacked normals, and reduced
        one face of that product at a time: the minimum is exact, so this
        is .min(axis=-1) without numpy's per-sample inner loop over the faces.
        """
        p = np.asarray(p, dtype=float)
        cones, normals, offsets = self._margin_split
        worst = [cone.margin(p) for cone in cones]
        if offsets.size:
            worst.append(reduce(np.minimum, np.moveaxis(p @ normals + offsets, -1, 0)))
        return reduce(np.minimum, worst)


# ----------------------------------------------------------------- scenario IO


@dataclass(frozen=True)
class SafetyBounds:
    """Dynamic limits the plan must certify for all continuous time.

    tilt_max bounds |roll| and |pitch|; thrust values are mass-normalized;
    omega_max bounds the first two body rates. regions, if any, constrain
    position globally. tilt_margin is an internal offset subtracted from the
    gravity side of the tilt cone when tracking margins are applied.
    """

    v_max: float
    tilt_max: float
    thrust_min: float
    thrust_max: float
    omega_max: float
    regions: tuple[ConvexRegion, ...] = ()
    tilt_margin: float = 0.0

    def __post_init__(self):
        for name in ("v_max", "tilt_max", "thrust_min", "thrust_max", "omega_max", "tilt_margin"):
            _finite(name, getattr(self, name))
        if self.v_max <= 0:
            raise ValueError("v_max must be positive")
        if not 0.0 < self.tilt_max <= np.pi / 2:
            raise ValueError("tilt_max must lie in (0, pi/2]")
        if not 0.0 <= self.thrust_min <= self.thrust_max:
            raise ValueError("need 0 <= thrust_min <= thrust_max")
        if self.omega_max <= 0:
            raise ValueError("omega_max must be positive")
        if self.tilt_margin < 0:
            raise ValueError("tilt_margin must be nonnegative")


@dataclass(frozen=True, eq=False)
class Waypoint:
    """Pass within `radius` of `position` at time `time` (radius 0 pins it)."""

    position: np.ndarray
    time: float
    radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", _finite("waypoint position", self.position).reshape(3))
        _finite("waypoint time", self.time)
        if _finite("waypoint radius", self.radius) < 0:
            raise ValueError("waypoint radius must be nonnegative")


@dataclass(frozen=True, eq=False)
class EndpointPins:
    """Pinned derivatives at t0 and tf; entry r of each tuple is order r, a finite (3,) vector."""

    initial: tuple[np.ndarray, ...]
    final: tuple[np.ndarray, ...]

    def __post_init__(self):
        for attr in ("initial", "final"):
            vals = tuple(
                _finite(f"pins.{attr}[{r}]", v).reshape(3) for r, v in enumerate(getattr(self, attr))
            )
            object.__setattr__(self, attr, vals)


@dataclass(frozen=True)
class IntervalConstraint:
    """Extra requirement on a time window: position membership or a speed cap.

    The window's ends and the bound, when given, must be finite.
    """

    t_start: float
    t_end: float
    kind: str  # "position" | "speed"
    region: ConvexRegion | None = None
    bound: float | None = None

    def __post_init__(self):
        _finite("interval t_start", self.t_start)
        _finite("interval t_end", self.t_end)
        if self.bound is not None:
            _finite("interval bound", self.bound)
        if self.t_end <= self.t_start:
            raise ValueError("interval must have t_start < t_end")
        if self.kind == "position":
            if self.region is None:
                raise ValueError("position interval needs a region")
        elif self.kind == "speed":
            if self.bound is None or self.bound <= 0:
                raise ValueError("speed interval needs a positive bound")
        else:
            raise ValueError(f"unknown interval kind '{self.kind}'")


@dataclass(frozen=True)
class PlanningScenario:
    """Everything the planner needs for one solve.

    Requires a spline (t0, tf, n, degree) that splines.plan_knots admits,
    waypoint and window times in [t0, tf], at most degree + 1 pinned orders
    at each end, a positive gravity and a solver_tol in [MIN_TOL, MAX_TOL);
    a ValueError names the field otherwise, by its path in a scenario file.
    """

    name: str
    t0: float
    tf: float
    n: int
    degree: int
    bounds: SafetyBounds
    pins: EndpointPins
    waypoints: tuple[Waypoint, ...] = ()
    intervals: tuple[IntervalConstraint, ...] = ()
    corridor: tuple[ConvexRegion, ...] | None = None
    zeta_mode: str = "per-span"
    cbf: CbfParams | None = None
    apply_tracking_margins: bool = False
    gravity: float = GRAVITY
    solver_tol: float = DEFAULT_TOL

    def __post_init__(self):
        plan_knots(self.t0, self.tf, self.n, self.degree, "spline.")
        t0, tf = self.t0, self.tf
        times = [(f"waypoints/{i}/time", w.time) for i, w in enumerate(self.waypoints)]
        for i, w in enumerate(self.intervals):
            times += [(f"windows/{i}/t_start", w.t_start), (f"windows/{i}/t_end", w.t_end)]
        for where, t in times:
            if not t0 <= t <= tf:
                raise ValueError(f"{where} = {t} lies outside the spline's [{t0}, {tf}]")
        for end in ("initial", "final"):
            count = len(getattr(self.pins, end))
            if count > self.degree + 1:
                raise ValueError(
                    f"endpoints.{end} pins {count} derivative orders, but degree "
                    f"{self.degree} has only {self.degree + 1} (orders 0..{self.degree})"
                )
        if _finite("gravity", self.gravity) <= 0:
            raise ValueError(f"gravity must be positive, got {self.gravity}")
        if self.zeta_mode not in ("per-span", "scalar"):
            raise ValueError("zeta_mode must be 'per-span' or 'scalar'")
        if self.apply_tracking_margins and self.cbf is None:
            raise ValueError("tracking margins need cbf parameters")
        if self.corridor is not None and self.n != len(self.corridor) + self.degree - 1:
            raise ValueError(
                f"corridor with {len(self.corridor)} sets needs n = "
                f"{len(self.corridor) + self.degree - 1}, got n = {self.n}"
            )
        if not MIN_TOL <= (tol := self.solver_tol) < MAX_TOL:
            raise ValueError(
                f"solver_tol must be a number in [{MIN_TOL:g}, {MAX_TOL:g}), got {tol!r}"
            )


@dataclass(frozen=True)
class SolveStats:
    status: str
    solve_time: float
    iterations: int
    max_residual: float
    num_vars: int
    block_counts: dict[str, int]


_NUMBER = {"type": "number"}
_NUMBERS = {"type": "array", "items": _NUMBER}

# The plan document that TrajectoryPlan.to_dict writes and from_dict reads.
PLAN_SCHEMA = object_schema(
    {
        "format": {"const": "safeflight-plan"},
        "version": {"const": 1},
        "name": {"type": "string"},
        "t0": _NUMBER,
        "tf": _NUMBER,
        "n": {"type": "integer"},
        "degree": {"type": "integer"},
        "gravity": _NUMBER,
        "zeta_mode": {"enum": ["per-span", "scalar"]},
        "control_points": {"type": "array", "items": _NUMBERS, "minItems": 3, "maxItems": 3},
        "zeta": _NUMBERS,
        "objective": _NUMBER,
        "snap": _NUMBER,
        "max_residual": _NUMBER,
    },
    ["format", "t0", "tf", "n", "degree", "gravity", "zeta_mode", "control_points", "zeta"],
)


@dataclass(frozen=True, eq=False)
class TrajectoryPlan:
    """A solved spline plan plus its rate floors and solve diagnostics.

    Equality and hash go by identity: the fields hold arrays.
    """

    curve: SplineCurve
    zeta: np.ndarray
    zeta_mode: str
    objective: float
    snap: float
    gravity: float
    name: str
    solve_stats: SolveStats

    @cached_property
    def span_zeta(self) -> np.ndarray:
        """Read-only rate floor of each nonempty span l = d..n, at l - d; scalar mode repeats it."""
        return np.broadcast_to(self.zeta, len(self.curve.knots.nonempty_spans()))

    def to_dict(self) -> dict:
        """The plan document, in the format PLAN_SCHEMA describes.

        An optional field that the plan does not know, one that is not a
        finite number (a loaded document without it reads NaN), is left
        out, so the document is strict JSON.
        """
        kv = self.curve.knots
        optional = {
            "objective": self.objective,
            "snap": self.snap,
            "max_residual": self.solve_stats.max_residual,
        }
        return {
            "format": "safeflight-plan",
            "version": 1,
            "name": self.name,
            "t0": kv.t0,
            "tf": kv.tf,
            "n": kv.n,
            "degree": kv.degree,
            "gravity": self.gravity,
            "zeta_mode": self.zeta_mode,
            "control_points": [row.tolist() for row in np.asarray(self.curve.ctrl)],
            "zeta": np.asarray(self.zeta).tolist(),
            **{key: value for key, value in optional.items() if math.isfinite(value)},
        }

    @staticmethod
    def from_dict(doc) -> "TrajectoryPlan":
        """The plan that to_dict wrote, checked against PLAN_SCHEMA as a scenario is.

        Raises:
            ValueError: naming the field, where doc breaks PLAN_SCHEMA, a
                number is too large for a float, an integer lies beyond
                +-2**53, splines.plan_knots, a scenario's spline rule, refuses
                (t0, tf, n, degree), gravity, control_points, zeta or an optional
                objective, snap or max_residual holds a number that is not finite,
                gravity is not positive, control_points is not of shape (3, n + 1),
                or zeta does not hold n - degree + 1 values (one in scalar mode).
        """
        doc = checked(doc, PLAN_SCHEMA)
        n, degree, zeta_mode = doc["n"], doc["degree"], doc["zeta_mode"]
        kv = plan_knots(doc["t0"], doc["tf"], n, degree)
        if not math.isfinite(gravity := doc["gravity"]):
            raise ValueError(f"gravity must be finite, got {gravity}")
        if gravity <= 0:
            raise ValueError(f"gravity must be positive, got {gravity}")
        rows = doc["control_points"]
        if any(len(row) != n + 1 for row in rows):
            lengths = [len(row) for row in rows]
            raise ValueError(f"control_points must have shape (3, {n + 1}), got rows of {lengths}")
        ctrl = _finite("control_points", rows)
        zeta = _finite("zeta", doc["zeta"])
        size = 1 if zeta_mode == "scalar" else n - degree + 1
        if zeta.shape != (size,):
            raise ValueError(
                f"zeta must hold {size} value(s) in {zeta_mode} mode, got shape {zeta.shape}"
            )
        for key in ("objective", "snap", "max_residual"):  # optional: an absent one reads NaN
            if key in doc and not math.isfinite(doc[key]):
                raise ValueError(f"{key} must be finite, got {doc[key]}")
        stats = SolveStats("loaded", 0.0, 0, doc.get("max_residual", np.nan), 0, {})
        return TrajectoryPlan(
            curve=SplineCurve(kv, ctrl),
            zeta=zeta,
            zeta_mode=zeta_mode,
            objective=doc.get("objective", np.nan),
            snap=doc.get("snap", np.nan),
            gravity=gravity,
            name=doc.get("name", "plan"),
            solve_stats=stats,
        )


# ------------------------------------------------------------------- assembly


class PlanAssembly:
    """Cone-program builder over the spline coefficient layout.

    Exposes the compile_* steps individually so constraint families can be
    tested in isolation; plan() runs the standard full pipeline. Every
    family reaches the cone program as one batch per cone kind.
    """

    def __init__(self, kv: KnotVector, gravity: float = GRAVITY):
        self.kv = kv
        self.g = float(gravity)
        self.n = kv.n
        self.ctrl_cols = np.arange(3 * (kv.n + 1))
        self.cp = ConeProgram(self.ctrl_cols.size)
        self._point_blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # order -> block

    # -- variable addressing

    def _axis_blocks(self, W: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows applying weights W[k] on every axis, and their columns.

        W[k], of width w, weighs control points first[k] .. first[k] + w - 1.
        Returns rows (k, 3, 3w) and cols (k, 3w): cols[k] holds those points
        on the x, y and z axes in turn, and row [k, a] carries W[k] in the
        run of axis a.
        """
        k, w = W.shape
        rows = np.zeros((k, 3, 3 * w))
        for a in range(3):
            rows[:, a, a * w : (a + 1) * w] = W
        cols = np.asarray(first)[:, None, None] + (self.n + 1) * np.arange(3)[:, None]
        return rows, (cols + np.arange(w)).reshape(k, 3 * w)

    def point_rows(self, r: int, js) -> tuple[np.ndarray, np.ndarray]:
        """Rows picking derivative control points js of order r on every axis.

        Returns (rows, cols) of shapes (k, 3, 3(r+1)) and (k, 3(r+1)): point
        js[k] is made from control points js[k] - r .. js[k], so row [k, a]
        applied to x[cols[k]] gives entry [a, js[k]] of
        derivative_control_points(curve, r). They are picked from the
        order's block of every point r .. n, which the assembly builds once
        and keeps read-only, so families on the same order share it.
        """
        at = np.asarray(js, dtype=int).reshape(-1) - r  # rows of the block
        if at.size and (at.min() < 0 or at.max() > self.n - r):
            raise ValueError(f"order-{r} derivative points lie in [{r}, {self.n}]")
        block = self._point_blocks.get(r)
        if block is None:
            block = self._axis_blocks(self.kv.derivative_stencil(r), np.arange(self.n - r + 1))
            for part in block:
                part.flags.writeable = False
            self._point_blocks[r] = block
        return block[0].take(at, axis=0), block[1].take(at, axis=0)

    def _add_membership(self, js: np.ndarray, cones: np.ndarray, stack, label: str) -> None:
        """Control point js[i] inside cone cones[i] of the stack, for every i.

        stack is _stack_regions' (counts, sizes, c, d, A, b, first). Each
        constraint reads the point's three columns, so its coefficients are
        the cone's own. Linear cones become one batch of inequalities, the
        others one batch of second-order cones per row count, in order of
        first use; each batch keeps the order of js.
        """
        _, sizes, c, d, A, b, first = stack
        kinds = sizes[cones]
        used, seen = np.unique(kinds, return_index=True)
        cols = js[:, None] + (self.n + 1) * np.arange(3)
        for m in used[np.argsort(seen)]:
            pick = kinds == m
            i = cones[pick]
            if m < 0:
                self.cp.add_inequality(-c[i], cols[pick], d[i], label)
            else:
                rows = first[i, None] + np.arange(m)
                self.cp.add_soc(A[rows], b[rows], c[i], d[i], cols[pick], label)

    # -- constraint families

    def compile_position(self, regions, js=None, label: str = "position") -> None:
        """Every control point (or the given ones) inside every region."""
        js = np.arange(self.n + 1) if js is None else np.asarray(js, dtype=int)
        stack = _stack_regions(regions)
        count = stack[1].size
        self._add_membership(
            np.repeat(js, count), np.tile(np.arange(count), js.size), stack, label
        )

    def compile_velocity(self, v_max: float, js=None, label: str = "velocity") -> None:
        """||velocity point j|| <= v_max for j in 1..n (or the given ones)."""
        rows, cols = self.point_rows(1, np.arange(1, self.n + 1) if js is None else js)
        k = rows.shape[0]
        zeros = np.zeros(cols.shape)
        self.cp.add_soc(rows, np.zeros((k, 3)), zeros, np.full(k, v_max), cols, label)

    def compile_tilt_cone(self, tilt_max: float, margin: float = 0.0) -> None:
        """Acceleration points inside the tilt cone of half-angle tilt_max.

        ||cot(tilt_max) * (V_j,x, V_j,y)|| <= g - margin + V_j,z for j = 2..n;
        by the flat map this bounds max(|roll|, |pitch|) over all yaw.
        """
        if margin >= self.g:
            raise MarginInfeasibleError(f"tilt margin {margin:.3f} exceeds gravity")
        cot = abs(1.0 / np.tan(tilt_max))
        rows, cols = self.point_rows(2, np.arange(2, self.n + 1))
        k = rows.shape[0]
        d = np.full(k, self.g - margin)
        self.cp.add_soc(cot * rows[:, :2], np.zeros((k, 2)), rows[:, 2], d, cols, "tilt")

    def compile_thrust(self, thrust_min: float, thrust_max: float) -> None:
        """Thrust band on acceleration points j = 2..n.

        ||V_j + g e3|| <= thrust_max and V_j,z >= thrust_min - g.
        """
        rows, cols = self.point_rows(2, np.arange(2, self.n + 1))
        k = rows.shape[0]
        b, zeros = np.tile([0.0, 0.0, self.g], (k, 1)), np.zeros(cols.shape)
        self.cp.add_soc(rows, b, zeros, np.full(k, thrust_max), cols, "thrust-upper")
        self.cp.add_inequality(-rows[:, 2], cols, np.full(k, self.g - thrust_min), "thrust-lower")

    def compile_rate(self, omega_max: float, zeta_mode: str) -> np.ndarray:
        """Body-rate cones with thrust-floor variables zeta.

        Per span l: zeta_k <= g + V_j,z for the span's acceleration points
        and ||jerk point j|| <= omega_max * zeta_k for its jerk points. The
        scalar mode shares one zeta across all spans.
        """
        if zeta_mode == "scalar":
            last, width = np.array([self.n]), self.n  # one group over all spans
        else:
            last, width = np.arange(self.kv.degree, self.n + 1), self.kv.degree
        zeta = self.cp.add_variables(last.size)

        def points(r):
            """Rows of points last - width + r .. last of each group, and their columns."""
            offsets = np.arange(r - width, 1)
            rows, cols = self.point_rows(r, (last[:, None] + offsets).ravel())
            return rows, np.column_stack([cols, np.repeat(zeta, offsets.size)])

        rows, cols = points(2)  # zeta - V_j,z <= g
        k = rows.shape[0]
        floor = np.column_stack([-rows[:, 2], np.ones(k)])
        self.cp.add_inequality(floor, cols, np.full(k, self.g), "rate-floor")
        rows, cols = points(3)
        k = rows.shape[0]
        A = np.concatenate([rows, np.zeros((k, 3, 1))], axis=2)
        c = np.zeros((k, cols.shape[1]))
        c[:, -1] = omega_max
        self.cp.add_soc(A, np.zeros((k, 3)), c, np.zeros(k), cols, "rate-jerk")
        return zeta

    def compile_waypoints(self, waypoints) -> None:
        """Curve within each waypoint ball at its time (equality if radius 0).

        The curve at time t is the d + 1 basis functions alive on its span
        applied to their control points.
        """
        if not waypoints:
            return
        l, basis = self.kv.basis_values(np.array([wp.time for wp in waypoints]))
        rows, cols = self._axis_blocks(basis, l - self.kv.degree)
        pos = np.array([wp.position for wp in waypoints])
        radius = np.array([wp.radius for wp in waypoints])
        pin, ball = radius == 0.0, radius != 0.0
        if pin.any():
            self.cp.add_equality(rows[pin], cols[pin], pos[pin], "waypoint")
        if ball.any():
            c = np.zeros((int(ball.sum()), cols.shape[1]))
            self.cp.add_soc(rows[ball], -pos[ball], c, radius[ball], cols[ball], "waypoint")

    def compile_endpoints(self, pins: EndpointPins) -> None:
        """Equality pins on derivatives at t0 and tf.

        All pins form one batch over control points 0..d at t0 and n-d..n at
        tf, with weights KnotVector.end_weights.
        """
        kv = self.kv
        d = kv.degree
        counts = [len(pins.initial), len(pins.final)]
        if max(counts) > d + 1:
            raise ValueError(f"cannot pin derivative order {d + 1} of degree {d}")
        W = np.concatenate([kv.end_weights[0, : counts[0]], kv.end_weights[1, : counts[1]]])
        rows, cols = self._axis_blocks(W, np.repeat([0, self.n - d], counts))
        values = np.reshape(pins.initial + pins.final, (-1, 3))
        self.cp.add_equality(rows, cols, values, "endpoint")

    def compile_corridor(self, sets) -> None:
        """Sequential membership: control point j-1 in S_l for j = l..l+d.

        Requires n = len(sets) + degree - 1 so the corridor exactly covers
        the control points; consecutive sets overlap on d points, which
        makes the spline pass through the common regions in order.
        """
        d = self.kv.degree
        if self.n != len(sets) + d - 1:
            raise ValueError(
                f"corridor with {len(sets)} sets needs n = {len(sets) + d - 1}, got {self.n}"
            )
        stack = _stack_regions(sets)
        counts = stack[0]
        # Set s constrains points s..s+d, each against every cone of the set.
        per_set = counts * (d + 1)
        s = np.repeat(np.arange(len(sets)), per_set)
        q = np.arange(s.size) - np.repeat(np.cumsum(per_set) - per_set, per_set)
        cones = np.repeat(np.cumsum(counts) - counts, per_set) + q % counts[s]
        self._add_membership(s + q // counts[s], cones, stack, "corridor")

    def compile_interval(self, ic: IntervalConstraint) -> range:
        """Window constraint via outward rounding to whole knot spans.

        Returns the range of derivative-point columns that were constrained
        (order 0 for position membership, order 1 for a speed cap).
        """
        r = 0 if ic.kind == "position" else 1
        js = interval_window_columns(self.kv, ic.t_start, ic.t_end, r)
        if ic.kind == "position":
            self.compile_position([ic.region], js=js, label="window-position")
        else:
            self.compile_velocity(ic.bound, js=js, label="window-speed")
        return js

    def compile_objective(self, zeta_cols: np.ndarray) -> None:
        """Snap epigraph per axis minus the sum of rate floors.

        ||G P_a||^2 <= s_a is the cone ||(2 G P_a, s_a - 1)|| <= s_a + 1, which forces s_a >= 0.
        """
        G = snap_gram(self.kv)
        (m, w), s = G.shape, self.cp.add_variables(3)
        A, b, c = np.zeros((3, m + 1, w + 1)), np.zeros((3, m + 1)), np.zeros((3, w + 1))
        A[:, :m, :w], A[:, m, w], b[:, m], c[:, w] = 2.0 * G, 1.0, -1.0, 1.0
        cols = np.column_stack([self.ctrl_cols.reshape(3, -1), s])
        self.cp.add_soc(A, b, c, np.ones(3), cols, "snap-epigraph")
        self.cp.add_objective(s, np.ones(3))
        if zeta_cols.size:
            self.cp.add_objective(zeta_cols, -np.ones(zeta_cols.size))


def _stack_regions(regions) -> tuple[np.ndarray, ...]:
    """The cones of several regions stacked into one table, in region order.

    Returns (counts, sizes, c, d, A, b, first): counts[s] is the cone count of
    regions[s], and the rest is ConvexRegion._stacked of all their cones.
    """
    parts = [region._stacked for region in regions]
    if not parts:
        raise ValueError("no regions given: stacking needs at least one region")
    sizes, c, d, A, b, first = (np.concatenate([part[i] for part in parts]) for i in range(6))
    counts = np.array([part[0].size for part in parts], dtype=int)
    rows = np.array([part[3].shape[0] for part in parts], dtype=int)
    first += np.repeat(np.cumsum(rows) - rows, counts)
    return counts, sizes, c, d, A, b, first


def interval_window_columns(kv: KnotVector, t_start: float, t_end: float, r: int) -> range:
    """Derivative-point columns governing [t_start, t_end] for order r.

    The window is rounded outward to whole knot spans; the union of the
    per-span hulls for those spans is controlled by columns
    span_lo - degree + r .. span_hi (inclusive), returned as a range.
    """
    if not kv.t0 <= t_start < t_end <= kv.tf:
        raise ValueError("window must satisfy t0 <= t_start < t_end <= tf")
    lo = kv.span_index(t_start)
    hi = int(np.searchsorted(kv.tau, t_end, side="left"))  # first knot >= t_end
    return range(lo - kv.degree + r, hi)


def compile_tracking_margins(
    bounds: SafetyBounds, cbf: CbfParams, gravity: float = GRAVITY
) -> SafetyBounds:
    """Shrink planning bounds so tracked flight still meets the originals.

    The filtered tracker deviates from the reference acceleration by at most
    dev = cbf.input_deviation_bound = 4 delta a2 per axis, hence sqrt(3) dev
    in Euclidean norm. The thrust band shrinks by that amount and the tilt
    cone retreats by dev * (1 + sqrt(2) |cot(tilt_max)|) on its gravity side.

    Raises:
        MarginInfeasibleError: if the shrunk band cannot contain hover.
    """
    dev = cbf.input_deviation_bound
    ball = float(np.sqrt(3.0) * dev)
    tilt_margin = float(dev * (1.0 + np.sqrt(2.0) * abs(1.0 / np.tan(bounds.tilt_max))))
    new_max = bounds.thrust_max - ball
    new_min = bounds.thrust_min + ball if bounds.thrust_min > 0 else bounds.thrust_min
    problems = []
    if new_max < gravity:
        problems.append(f"thrust_max - sqrt(3)*4*delta*a2 = {new_max:.3f} < g")
    if new_min > gravity:
        problems.append(f"thrust_min + sqrt(3)*4*delta*a2 = {new_min:.3f} > g")
    if bounds.tilt_margin + tilt_margin >= gravity:
        problems.append(f"tilt margin {tilt_margin:.3f} >= g")
    if problems:
        raise MarginInfeasibleError("; ".join(problems))
    return dataclasses.replace(
        bounds,
        thrust_max=new_max,
        thrust_min=new_min,
        tilt_margin=bounds.tilt_margin + tilt_margin,
    )


def compile_plan(scenario: PlanningScenario) -> tuple[PlanAssembly, np.ndarray]:
    """The full planning program of a scenario, and the columns of its zeta.

    Raises:
        MarginInfeasibleError: tracking margins leave no feasible band.
    """
    kv = plan_knots(scenario.t0, scenario.tf, scenario.n, scenario.degree)
    bounds = scenario.bounds
    if scenario.apply_tracking_margins:
        bounds = compile_tracking_margins(bounds, scenario.cbf, scenario.gravity)

    asm = PlanAssembly(kv, gravity=scenario.gravity)
    if bounds.regions:
        asm.compile_position(bounds.regions)
    asm.compile_velocity(bounds.v_max)
    asm.compile_tilt_cone(bounds.tilt_max, margin=bounds.tilt_margin)
    asm.compile_thrust(bounds.thrust_min, bounds.thrust_max)
    zeta_cols = asm.compile_rate(bounds.omega_max, scenario.zeta_mode)
    asm.compile_waypoints(scenario.waypoints)
    asm.compile_endpoints(scenario.pins)
    if scenario.corridor is not None:
        asm.compile_corridor(scenario.corridor)
    for ic in scenario.intervals:
        asm.compile_interval(ic)
    asm.compile_objective(zeta_cols)
    return asm, zeta_cols


def plan(scenario: PlanningScenario) -> TrajectoryPlan:
    """Compile and solve the full planning program for a scenario.

    Raises:
        PlanInfeasibleError: infeasible, unbounded, or failed solve.
        MarginInfeasibleError: tracking margins leave no feasible band.
    """
    asm, zeta_cols = compile_plan(scenario)
    kv = asm.kv
    sol: Solution = asm.cp.solve(tol=scenario.solver_tol)
    if sol.status != OPTIMAL:
        raise PlanInfeasibleError(sol.status, asm.cp.block_counts())

    ctrl = sol.x[: 3 * (kv.n + 1)].reshape(3, kv.n + 1)
    zeta = sol.x[zeta_cols]
    snap = float(np.square(snap_gram(kv) @ ctrl.T).sum())
    stats = SolveStats(
        status=sol.status,
        solve_time=sol.solve_time,
        iterations=sol.iterations,
        max_residual=sol.max_residual,
        num_vars=asm.cp.num_vars,
        block_counts=asm.cp.block_counts(),
    )
    return TrajectoryPlan(
        curve=SplineCurve(kv, ctrl),
        zeta=zeta,
        zeta_mode=scenario.zeta_mode,
        objective=sol.objective,
        snap=snap,
        gravity=scenario.gravity,
        name=scenario.name,
        solve_stats=stats,
    )
