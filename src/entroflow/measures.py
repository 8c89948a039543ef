"""Discrete probability measures and log-concave reference measures.

The state space is the real line. Reference measures are built from a
catalog of convex potentials V via gamma = exp(-V)/Z on a uniform grid;
relative entropy, its duality lower bounds, and the discrete log-concavity
structure are computed against that grid.

All values are plain floats / numpy arrays; relative entropy is an extended
real, with ``math.inf`` the legitimate value for measures that charge points
where the reference vanishes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "ConvexPotential",
    "QuadraticPotential",
    "QuarticPotential",
    "AbsPotential",
    "BoxPotential",
    "AffineMaxPotential",
    "TabulatedPotential",
    "quadratic",
    "quartic",
    "abs_potential",
    "box",
    "affine_max",
    "tabulated",
    "POTENTIAL_KINDS",
    "potential_from_descriptor",
    "ReferenceMeasure",
    "discretize_reference",
    "suggested_bounds",
    "DiscreteMeasure",
    "grid_measure",
    "gaussian_on_grid",
    "dirac_on_grid",
    "relative_entropy",
    "entropy_duality_bound",
    "second_moment",
    "entropy_set_bound_check",
    "SetBoundResult",
    "discrete_log_concavity_ok",
    "bin_to_grid",
    "rebin_measure",
]

WEIGHT_SUM_TOL = 1e-9
TAIL_MASS_TOL = 1e-12
TRUNCATION_LEVEL = 40.0  # bounds must reach V >= min V + this


# ---------------------------------------------------------------------------
# Convex potential catalog (1-D)
# ---------------------------------------------------------------------------
def _subgradient_pick(dr, dl):
    """The drift's pick from the one-sided derivatives: their mean, or 0 where they bracket 0."""
    return np.where((dl <= 0.0) & (dr >= 0.0), 0.0, 0.5 * (dr + dl))


class ConvexPotential:
    """Convex lower-semicontinuous potential on R with +inf allowed.

    Subclasses provide vectorized ``value`` and one-sided derivatives. The
    effective domain is an interval; outside it the value is +inf.
    """

    kind: str = "abstract"

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, x, side: str = "right") -> np.ndarray:
        """One-sided derivative; ``side`` in {"left", "right"}."""
        raise NotImplementedError

    def drift(self, x) -> np.ndarray:
        """Subgradient selection used as SDE drift: 0 at kinks."""
        x = np.asarray(x, dtype=float)
        if self.is_smooth():
            return self.derivative(x)  # one-sided derivatives agree inside the domain
        return _subgradient_pick(self.derivative(x, "right"), self.derivative(x, "left"))

    def finite_interval(self) -> tuple[float, float]:
        """Closure of the effective domain {V < +inf}."""
        return (-math.inf, math.inf)

    def kinks(self) -> np.ndarray:
        """Interior points where the derivative jumps."""
        return np.array([])

    def argmin(self) -> float:
        raise NotImplementedError

    def min_value(self) -> float:
        return float(self.value(np.array([self.argmin()]))[0])

    def is_smooth(self) -> bool:
        """C^1 on the interior of the effective domain."""
        return len(self.kinks()) == 0

    def descriptor(self) -> dict:
        """JSON descriptor: the kind and each set field of its ``POTENTIAL_KINDS`` row."""
        out = {"kind": self.kind}
        for name in POTENTIAL_KINDS[self.kind][1]:
            val = getattr(self, name)
            if val is not None:  # an unset box inner is left out
                out[name] = val.descriptor() if isinstance(val, ConvexPotential) else np.asarray(val).tolist()
        return out

    def antiderivative(self, x) -> np.ndarray:
        """Exact antiderivative of V on the effective domain."""
        raise NotImplementedError

    def cell_integrals(self, edges) -> np.ndarray:
        """Exact integrals of V over the consecutive cells of sorted edges.

        ``edges`` has shape (..., k+1); cell i is [edges[i], edges[i+1]], and
        the antiderivative is evaluated once per edge. Cells leaving the
        effective domain integrate to +inf.
        """
        edges = np.asarray(edges, dtype=float)
        prim = self.antiderivative(edges)
        out = prim[..., 1:] - prim[..., :-1]
        lo, hi = self.finite_interval()
        if not (math.isfinite(lo) or math.isfinite(hi)):
            return out
        slack = 1e-9 * max(1.0, abs(lo) if math.isfinite(lo) else 0.0,
                           abs(hi) if math.isfinite(hi) else 0.0)
        bad = (edges[..., :-1] < lo - slack) | (edges[..., 1:] > hi + slack)
        return np.where(bad, np.inf, out)

    def check_integrable(self) -> None:
        """Reject potentials with exp(-V) not integrable.

        Convexity makes linear growth at infinity equivalent to
        integrability, so it suffices to test the one-sided slopes far out.
        """
        lo, hi = self.finite_interval()
        if math.isfinite(lo) and math.isfinite(hi):
            return
        m = self.argmin()
        span = max(1.0, abs(m))
        if not math.isfinite(hi):
            s = float(self.derivative(np.array([m + 50.0 * span]), "right")[0])
            if s <= 0.0:
                raise ValueError(f"{self.kind} potential: exp(-V) not integrable (flat right tail)")
        if not math.isfinite(lo):
            s = float(self.derivative(np.array([m - 50.0 * span]), "left")[0])
            if s >= 0.0:
                raise ValueError(f"{self.kind} potential: exp(-V) not integrable (flat left tail)")


@dataclass(frozen=True)
class QuadraticPotential(ConvexPotential):
    """V(x) = a (x - m)^2 / 2 with a > 0; gamma = N(m, 1/a)."""

    a: float
    m: float = 0.0
    kind: str = field(default="quadratic", init=False)

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("quadratic potential needs a > 0")

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.m
        return 0.5 * self.a * (d * d)

    def derivative(self, x, side="right"):
        x = np.asarray(x, dtype=float)
        return self.a * (x - self.m)

    def argmin(self):
        return self.m

    def antiderivative(self, x):
        d = np.asarray(x, dtype=float) - self.m
        return self.a * (d * d * d) / 6.0


@dataclass(frozen=True)
class QuarticPotential(ConvexPotential):
    """V(x) = a x^4 / 4 + b x^2 / 2 with a > 0, b >= 0."""

    a: float
    b: float = 0.0
    kind: str = field(default="quartic", init=False)

    def __post_init__(self):
        if self.a <= 0 or self.b < 0:
            raise ValueError("quartic potential needs a > 0, b >= 0")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        x2 = x * x
        return 0.25 * self.a * (x2 * x2) + 0.5 * self.b * x2

    def derivative(self, x, side="right"):
        x = np.asarray(x, dtype=float)
        return self.a * (x * x * x) + self.b * x

    def argmin(self):
        return 0.0

    def antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        x2 = x * x
        x3 = x2 * x
        return self.a * (x3 * x2) / 20.0 + self.b * x3 / 6.0


_ABS_KINKS = np.zeros(1)
_ABS_KINKS.setflags(write=False)


@dataclass(frozen=True)
class AbsPotential(ConvexPotential):
    """V(x) = a |x| + c with a > 0 (Laplace reference)."""

    a: float
    c: float = 0.0
    kind: str = field(default="abs", init=False)

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("abs potential needs a > 0")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.a * np.abs(x) + self.c

    def derivative(self, x, side="right"):
        x = np.asarray(x, dtype=float)
        d = self.a * np.sign(x)
        at_zero = x == 0.0
        return np.where(at_zero, self.a if side == "right" else -self.a, d)

    def kinks(self):
        return _ABS_KINKS

    def argmin(self):
        return 0.0

    def antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.a * x * np.abs(x) + self.c * x


@dataclass(frozen=True)
class BoxPotential(ConvexPotential):
    """V = inner on [lo, hi], +inf outside; inner convex (default 0)."""

    lo: float
    hi: float
    inner: ConvexPotential | None = None
    kind: str = field(default="box", init=False)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("box potential needs lo < hi")
        lo, hi = self.finite_interval()
        if not lo < hi:
            raise ValueError(
                f"box [{self.lo}, {self.hi}] does not overlap its inner potential's domain"
            )
        ks = np.array([]) if self.inner is None else self.inner.kinks()
        ks = ks[(ks > self.lo) & (ks < self.hi)]
        ks.setflags(write=False)
        object.__setattr__(self, "_kinks", ks)

    def _inner_value(self, x):
        if self.inner is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self.inner.value(x)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        v = self._inner_value(x)
        out = np.where((x < self.lo) | (x > self.hi), np.inf, v)
        return out

    def derivative(self, x, side="right"):
        x = np.asarray(x, dtype=float)
        if self.inner is None:
            d = np.zeros_like(x)
        else:
            d = self.inner.derivative(x, side)
        return np.where((x < self.lo) | (x > self.hi), np.nan, d)

    def finite_interval(self):
        if self.inner is None:
            return (self.lo, self.hi)
        lo, hi = self.inner.finite_interval()
        return (max(self.lo, lo), min(self.hi, hi))

    def kinks(self):
        return self._kinks

    def argmin(self):
        if self.inner is None:
            return 0.5 * (self.lo + self.hi)
        lo, hi = self.finite_interval()
        return min(max(self.inner.argmin(), lo), hi)

    def antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, *self.finite_interval())
        if self.inner is None:
            return np.zeros_like(xc)
        return self.inner.antiderivative(xc)


@dataclass(frozen=True)
class AffineMaxPotential(ConvexPotential):
    """V(x) = max_k (slope_k x + intercept_k) over at least two lines.

    V, V' and the drift are read off the upper envelope: one ``searchsorted``
    finds each point's segment, and the segment's top line gives the result.
    That holds inside the segment's safe interval, where the top line's
    computed value beats every other line's by more than rounding error plus
    ``derivative``'s 1e-12 tie tolerance; there the max over all lines is the
    top line's value bit for bit. Points outside it (near a kink, far out,
    not finite) take the max over all lines.
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    kind: str = field(default="affine_max", init=False)

    @classmethod
    def from_pieces(cls, pieces) -> "AffineMaxPotential":
        arr = np.asarray(pieces, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise ValueError("affine_max needs >= 2 (slope, intercept) pairs")
        order = np.argsort(arr[:, 0], kind="stable")
        s, b = arr[order, 0].copy(), arr[order, 1].copy()
        s.setflags(write=False)
        b.setflags(write=False)
        return cls(slopes=s, intercepts=b)

    def __post_init__(self):
        # the envelope depends on the lines only, so its breakpoints, the top
        # line per segment, the antiderivative's continuity shifts, the drift
        # per segment and the safe intervals are built once per instance
        s, b = self.slopes, self.intercepts
        sl, bl = s.tolist(), b.tolist()

        def cross(i, j):  # where line j (steeper) overtakes line i
            return (bl[i] - bl[j]) / (sl[j] - sl[i])

        # upper hull in one pass over the lines in slope order: of equal
        # slopes the larger intercept stays, and a line is dropped once its
        # neighbours meet no later than it meets either of them
        hull: list[int] = []
        for i in np.argsort(s, kind="stable").tolist():
            if hull and sl[hull[-1]] == sl[i]:
                if bl[i] <= bl[hull[-1]]:
                    continue
                hull.pop()
            while len(hull) >= 2 and cross(hull[-2], hull[-1]) >= cross(hull[-1], i):
                hull.pop()
            hull.append(i)
        ks = np.array([cross(i, j) for i, j in zip(hull, hull[1:])], dtype=float)
        seg_s, seg_b = s[hull], b[hull]

        def raw(seg, t):
            return 0.5 * seg_s[seg] * t * t + seg_b[seg] * t

        shifts = np.zeros(len(hull))
        for i in range(1, len(hull)):
            k = ks[i - 1]
            shifts[i] = shifts[i - 1] + raw(i - 1, k) - raw(i, k)
        # the drift where both one-sided derivatives are the top slope
        drift = _subgradient_pick(seg_s, seg_s) if len(ks) else seg_s

        # Safe interval of each segment. A computed line value x*s + b is off
        # by at most 2.01 eps/2 (|x| |s| + |b|), so where every other line is
        # below the top one by more than `need` (far above those errors plus
        # the 1e-12 tolerance) the all-lines max, and the set of lines within
        # 1e-12 of it, are the top line alone. Bitwise copies of the top line
        # compute the same value and slope and are left out. Each gap is
        # linear in x, so the set where it exceeds `need` is a half-line; its
        # end is placed at gap = 2 need, which absorbs the rounding of that
        # root. |x| is capped so the error bound stays finite on the two
        # outer segments.
        cap = 1e3 * (1.0 + np.abs(ks).max(initial=0.0))
        lo = np.maximum(np.concatenate([[-np.inf], ks]), -cap)
        hi = np.minimum(np.concatenate([ks, [np.inf]]), cap)
        reach = np.maximum(np.abs(lo), np.abs(hi))
        eps = np.finfo(float).eps
        need = (1.01e-12 + 64.0 * eps * (reach * np.abs(s).max() + np.abs(b).max()) + 1e-290)[:, None]
        ds, db = seg_s[:, None] - s, seg_b[:, None] - b
        bits = np.int64
        copy = (seg_s.view(bits)[:, None] == s.view(bits)) & (seg_b.view(bits)[:, None] == b.view(bits))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # roots beyond float range are +-inf
            root = (2.0 * need - db) / ds
        lo = np.maximum(lo, np.where(ds > 0.0, root, -np.inf).max(axis=1))
        hi = np.minimum(hi, np.where(ds < 0.0, root, np.inf).min(axis=1))
        level = ((ds == 0.0) & ~copy & (db <= 2.0 * need)).any(axis=1)
        lo[level], hi[level] = np.inf, -np.inf
        for arr in (ks, seg_s, seg_b, shifts, drift, lo, hi):
            arr.setflags(write=False)
        object.__setattr__(self, "_envelope", (ks, seg_s, seg_b, shifts))
        object.__setattr__(self, "_lookup", (lo, hi, drift))

    def _lines(self, x):
        """Every line's value at each point of flat x, shape (len(x), K)."""
        return np.outer(x, self.slopes) + self.intercepts

    def _segments(self, x):
        """Flat x, its envelope segment, and where the segment's top line settles the result."""
        flat = np.ravel(x)
        lo, hi = self._lookup[:2]
        seg = np.searchsorted(self._envelope[0], flat, side="right")
        return flat, seg, (lo[seg] <= flat) & (flat <= hi[seg])

    def value(self, x):
        x = np.asarray(x, dtype=float)
        flat, seg, fast = self._segments(x)
        _, s, b, _ = self._envelope
        out = flat * s[seg] + b[seg]
        if not fast.all():
            slow = ~fast
            out[slow] = np.max(self._lines(flat[slow]), axis=-1)
        return out.reshape(x.shape)

    def derivative(self, x, side="right"):
        x = np.asarray(x, dtype=float)
        flat, seg, fast = self._segments(x)
        d = self._envelope[1][seg]
        if not fast.all():
            slow = ~fast
            vals = self._lines(flat[slow])
            top = vals >= np.max(vals, axis=1, keepdims=True) - 1e-12
            masked = np.where(top, self.slopes, -np.inf if side == "right" else np.inf)
            d[slow] = np.where(
                np.isnan(flat[slow]), np.nan, masked.max(axis=1) if side == "right" else masked.min(axis=1)
            )
        return d.reshape(x.shape)

    def drift(self, x):
        x = np.asarray(x, dtype=float)
        flat, seg, fast = self._segments(x)
        g = self._lookup[2][seg]
        if not fast.all():
            slow = ~fast
            g[slow] = super().drift(flat[slow])
        return g.reshape(x.shape)

    def kinks(self):
        """Envelope breakpoints: intersections of consecutive hull lines."""
        return self._envelope[0]

    def argmin(self):
        ks = self.kinks()
        candidates = ks if len(ks) else np.array([0.0])
        return float(candidates[int(np.argmin(self.value(candidates)))])

    def antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        ks, s, b, shifts = self._envelope
        seg = np.searchsorted(ks, x, side="right")
        return 0.5 * s[seg] * x * x + b[seg] * x + shifts[seg]

    @property
    def pieces(self) -> np.ndarray:
        """The (slope, intercept) rows, in slope order."""
        return np.column_stack([self.slopes, self.intercepts])


@dataclass(frozen=True)
class TabulatedPotential(ConvexPotential):
    """Piecewise-linear potential from (x, V(x)) samples; +inf outside range.

    Convexity is validated from second differences at construction.
    """

    xs: np.ndarray
    vals: np.ndarray
    kind: str = field(default="tabulated", init=False)

    @classmethod
    def from_table(cls, xs, vals) -> "TabulatedPotential":
        xs, vals = np.array(xs, dtype=float), np.array(vals, dtype=float)
        xs.setflags(write=False)
        vals.setflags(write=False)
        return cls(xs=xs, vals=vals)

    def __post_init__(self):
        if np.ndim(self.xs) != 1 or np.shape(self.xs) != np.shape(self.vals) or len(self.xs) < 3:
            raise ValueError("tabulated potential needs >= 3 aligned samples")
        if not np.all(np.diff(self.xs) > 0):
            raise ValueError("tabulated grid must be strictly increasing")
        # slopes, cumulative integrals, kinks and the drift per interval
        # depend on the table only: built once per instance
        slopes = np.diff(self.vals) / np.diff(self.xs)
        scale = max(1.0, np.abs(slopes).max())
        if np.any(np.diff(slopes) < -1e-10 * scale):
            raise ValueError("tabulated values are not convex")
        pieces = 0.5 * (self.vals[1:] + self.vals[:-1]) * np.diff(self.xs)
        cum = np.concatenate([[0.0], np.cumsum(pieces)])
        kinks = self.xs[1:-1][np.abs(np.diff(slopes)) > 1e-12 * scale]
        # the drift between knots, where both one-sided derivatives are the slope
        drift = _subgradient_pick(slopes, slopes) if len(kinks) else slopes
        for arr in (slopes, cum, kinks, drift):
            arr.setflags(write=False)
        object.__setattr__(self, "_table", (slopes, cum, kinks, drift))

    def value(self, x):
        return np.asarray(np.interp(x, self.xs, self.vals, left=np.inf, right=np.inf))

    def _segments(self, x, side="right"):
        """Table interval of each point, the first or last one beyond the table.

        Searching the interior knots gives the clamped index directly; a
        point on a knot belongs to the interval on its ``side``.
        """
        return np.searchsorted(self.xs[1:-1], x, side=side)

    def derivative(self, x, side="right"):
        x = np.asarray(x, dtype=float)
        d = self._table[0][self._segments(x, "right" if side == "right" else "left")]
        return np.where((x >= self.xs[0]) & (x <= self.xs[-1]), d, np.nan)  # NaN outside and at NaN

    def finite_interval(self):
        return (float(self.xs[0]), float(self.xs[-1]))

    def drift(self, x):
        # strictly between two knots both one-sided slopes are the interval's;
        # points on a knot or outside the table take the general rule
        x = np.asarray(x, dtype=float)
        flat = np.ravel(x)
        i = self._segments(flat)
        g = self._table[3][i]
        slow = ~((self.xs[i] < flat) & (flat < self.xs[i + 1]))
        if slow.any():
            g[slow] = super().drift(flat[slow])
        return g.reshape(x.shape)

    def kinks(self):
        return self._table[2]

    def argmin(self):
        return float(self.xs[int(np.argmin(self.vals))])

    def antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        slopes, cum = self._table[:2]
        xc = np.clip(x, self.xs[0], self.xs[-1])
        i = self._segments(x)
        t = xc - self.xs[i]
        return cum[i] + self.vals[i] * t + 0.5 * slopes[i] * t * t


def quadratic(a: float, m: float = 0.0) -> QuadraticPotential:
    return QuadraticPotential(a=float(a), m=float(m))


def quartic(a: float, b: float = 0.0) -> QuarticPotential:
    return QuarticPotential(a=float(a), b=float(b))


def abs_potential(a: float, c: float = 0.0) -> AbsPotential:
    return AbsPotential(a=float(a), c=float(c))


def box(lo: float, hi: float, inner: ConvexPotential | None = None) -> BoxPotential:
    return BoxPotential(lo=float(lo), hi=float(hi), inner=inner)


def affine_max(pieces) -> AffineMaxPotential:
    pot = AffineMaxPotential.from_pieces(pieces)
    pot.check_integrable()
    return pot


def tabulated(xs, vals) -> TabulatedPotential:
    return TabulatedPotential.from_table(xs, vals)


# kind -> (factory, {descriptor field: (config field kind, required)}); the
# descriptor writer and reader and the CLI config schema all read this table
POTENTIAL_KINDS = {
    "quadratic": (quadratic, {"a": ("number", True), "m": ("number", False)}),
    "quartic": (quartic, {"a": ("number", True), "b": ("number", False)}),
    "abs": (abs_potential, {"a": ("number", True), "c": ("number", False)}),
    "box": (box, {"lo": ("number", True), "hi": ("number", True), "inner": ("potential", False)}),
    "affine_max": (affine_max, {"pieces": ("pairs", True)}),
    "tabulated": (tabulated, {"xs": ("numbers", True), "vals": ("numbers", True)}),
}


def potential_from_descriptor(desc: dict) -> ConvexPotential:
    """Rebuild a catalog potential from its descriptor; a field left out keeps the factory's default."""
    kind = desc.get("kind")
    if type(kind) is not str or kind not in POTENTIAL_KINDS:
        raise ValueError(f"unknown potential kind: {kind!r}")
    factory, fields = POTENTIAL_KINDS[kind]
    args = {}
    for name, (field_kind, required) in fields.items():
        val = desc.get(name)
        if val is not None:
            args[name] = potential_from_descriptor(val) if field_kind == "potential" else val
        elif required:
            raise ValueError(f"{kind} potential: missing field {name!r}")
    return factory(**args)


# ---------------------------------------------------------------------------
# Reference measures
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReferenceMeasure:
    """Log-concave reference gamma = exp(-V)/Z discretized on a uniform grid.

    ``weights`` sum to one and vanish exactly where V = +inf;
    ``log_partition`` is ln Z for the continuum normalization, estimated by
    midpoint quadrature on the same grid.
    """

    potential: ConvexPotential
    grid: np.ndarray
    weights: np.ndarray
    log_partition: float
    cell_width: float
    bounds: tuple[float, float]

    @property
    def n(self) -> int:
        return len(self.grid)

    @property
    def support_mask(self) -> np.ndarray:
        return self.weights > 0.0

    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)

    def as_measure(self) -> "DiscreteMeasure":
        mask = self.support_mask
        return DiscreteMeasure.from_atoms(self.grid[mask], self.weights[mask])

    def mean(self) -> float:
        return float(np.dot(self.weights, self.grid))

    def second_moment(self) -> float:
        return float(np.dot(self.weights, self.grid**2))

    def locate(self, points) -> np.ndarray:
        """Map coordinates to grid indices; -1 where no cell center matches."""
        x = np.ravel(np.asarray(points, dtype=float))
        tol = 1e-9 * max(1.0, abs(self.bounds[0]), abs(self.bounds[1]))
        idx = np.rint((x - self.grid[0]) / self.cell_width).astype(int)
        ok = (idx >= 0) & (idx < self.n)
        safe = np.clip(idx, 0, self.n - 1)
        ok &= np.abs(self.grid[safe] - x) <= tol
        return np.where(ok, safe, -1)

    def place(self, mu: "DiscreteMeasure") -> tuple[np.ndarray, np.ndarray] | None:
        """The cells mu charges, ascending, each with the summed mass of its atoms (``locate``
        can put distinct atoms in one cell); None if any atom is off the grid."""
        idx = self.locate(mu.x)
        if np.any(idx < 0):
            return None
        cells, atom_cell = np.unique(idx, return_inverse=True)
        return cells, np.bincount(atom_cell, weights=mu.weights, minlength=len(cells))

    def grid_weights(self, mu: "DiscreteMeasure") -> np.ndarray:
        """mu's weights on the grid; off-grid atoms are re-binned first (``rebin_measure``)."""
        placed = self.place(mu)
        if placed is None:
            placed = self.place(rebin_measure(mu, self))
        w = np.zeros(self.n)
        w[placed[0]] = placed[1]
        return w


def discretize_reference(
    potential: ConvexPotential,
    n: int,
    bounds: tuple[float, float],
) -> ReferenceMeasure:
    """Discretize gamma = exp(-V)/Z on n uniform cells over ``bounds``.

    The truncated continuum tail mass outside the bounds must be below
    1e-12 relative to Z; convexity turns the one-sided slopes at the bounds
    into rigorous tail bounds, so violations are rejected, as are
    non-integrable potentials.
    """
    if n < 2:
        raise ValueError("discretization needs n >= 2")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ValueError("bounds must satisfy lo < hi")
    potential.check_integrable()

    h = (hi - lo) / n
    grid = lo + (np.arange(n) + 0.5) * h
    vals = potential.value(grid)
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("empty effective support: V = +inf on the whole grid")

    vmin_grid = float(vals[finite].min())
    shifted = np.where(finite, vals - vmin_grid, np.inf)
    w = np.zeros(n)
    w[finite] = np.exp(-shifted[finite])
    total = w.sum()
    weights = w / total
    log_partition = float(logsumexp(-vals[finite]) + math.log(h))

    _check_tail_mass(potential, lo, hi, log_partition)

    g = grid.copy()
    g.setflags(write=False)
    weights.setflags(write=False)
    return ReferenceMeasure(
        potential=potential,
        grid=g,
        weights=weights,
        log_partition=log_partition,
        cell_width=h,
        bounds=(lo, hi),
    )


def _check_tail_mass(potential: ConvexPotential, lo: float, hi: float, log_z: float) -> None:
    # convexity: V(x) >= V(b) + slope (x - b) beyond a bound b, so the
    # truncated tail is at most exp(-V(b)) / |slope|
    dom_lo, dom_hi = potential.finite_interval()
    tail = 0.0
    if hi < dom_hi:
        v_hi = float(potential.value(np.array([hi]))[0])
        slope = float(potential.derivative(np.array([hi]), "right")[0])
        if slope <= 0.0:
            raise ValueError("bounds too tight: V must increase at the right bound")
        tail += math.exp(-v_hi) / slope
    if lo > dom_lo:
        v_lo = float(potential.value(np.array([lo]))[0])
        slope = float(potential.derivative(np.array([lo]), "left")[0])
        if slope >= 0.0:
            raise ValueError("bounds too tight: V must decrease at the left bound")
        tail += math.exp(-v_lo) / (-slope)
    if tail > 0.0 and tail > TAIL_MASS_TOL * math.exp(log_z):
        raise ValueError(
            f"truncated tail mass {tail:.3e} exceeds {TAIL_MASS_TOL:.0e} of the total"
        )


def suggested_bounds(potential: ConvexPotential, level: float = TRUNCATION_LEVEL):
    """Bounds covering the sublevel set {V <= min V + level}.

    Found by doubling steps plus bisection from the argmin; infinite domain
    directions only.
    """
    m = potential.argmin()
    vtarget = potential.min_value() + level
    dom_lo, dom_hi = potential.finite_interval()

    def push(direction: float, dom_edge: float) -> float:
        step = max(1.0, abs(m))
        x = m
        while True:
            nxt = x + direction * step
            if direction > 0 and nxt >= dom_edge:
                return dom_edge
            if direction < 0 and nxt <= dom_edge:
                return dom_edge
            if float(potential.value(np.array([nxt]))[0]) >= vtarget:
                return nxt
            x = nxt
            step *= 2.0

    return (push(-1.0, dom_lo), push(1.0, dom_hi))


# ---------------------------------------------------------------------------
# Discrete measures
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms on the line: distinct points ``x`` in ascending order with positive ``weights``."""

    x: np.ndarray  # (n,)
    weights: np.ndarray  # (n,)

    @classmethod
    def from_atoms(cls, points, weights) -> "DiscreteMeasure":
        x = np.asarray(points, dtype=float)
        w = np.asarray(weights, dtype=float).ravel()
        if x.ndim != 1:
            raise ValueError("points must be a flat array of coordinates")
        if len(x) != len(w):
            raise ValueError("points and weights must align")
        if not np.all(np.isfinite(x)):
            raise ValueError("support coordinates must be finite")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < -1e-15):
            raise ValueError("weights must be nonnegative")
        w = np.maximum(w, 0.0)
        total = w.sum()
        if total <= 0.0:
            raise ValueError("total mass must be positive")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}; normalize to 1 first")
        w = w / total

        keep = w > 0.0
        x, w = x[keep], w[keep]
        order = np.argsort(x, kind="stable")
        x, w = x[order], w[order]
        # merge exactly coincident atoms so support points stay distinct
        if len(x) > 1:
            same = x[1:] == x[:-1]
            if same.any():
                group = np.concatenate([[0], np.cumsum(~same)])
                merged_w = np.zeros(group[-1] + 1)
                np.add.at(merged_w, group, w)
                x, w = x[np.concatenate([[True], ~same])], merged_w
        x.setflags(write=False)
        w.setflags(write=False)
        return cls(x=x, weights=w)

    @property
    def n(self) -> int:
        return len(self.weights)


def grid_measure(gamma: ReferenceMeasure, weights) -> DiscreteMeasure:
    """Probability measure living on gamma's grid from a weight vector."""
    w = np.asarray(weights, dtype=float).ravel()
    if len(w) != gamma.n:
        raise ValueError("weight vector must match the grid")
    total = w.sum()
    if total <= 0:
        raise ValueError("total mass must be positive")
    return DiscreteMeasure.from_atoms(gamma.grid, w / total)


def gaussian_on_grid(gamma: ReferenceMeasure, mean: float, std: float) -> DiscreteMeasure:
    """Discretized N(mean, std^2) restricted to gamma's support cells."""
    if std <= 0:
        raise ValueError("std must be positive")
    with np.errstate(over="ignore"):  # a cell whose z^2 overflows has no mass in float
        z = (gamma.grid - mean) / std
        logw = np.where(gamma.support_mask, -0.5 * z**2, -np.inf)
    if not np.isfinite(logw.max()):
        raise ValueError(f"N({mean:g}, {std:g}^2) has no representable mass on the reference support")
    w = np.exp(logw - logw.max())
    return grid_measure(gamma, w)


def dirac_on_grid(gamma: ReferenceMeasure, x: float) -> DiscreteMeasure:
    """Unit mass on the support cell closest to x."""
    idx = gamma.support_indices()
    j = idx[int(np.argmin(np.abs(gamma.grid[idx] - x)))]
    w = np.zeros(gamma.n)
    w[j] = 1.0
    return grid_measure(gamma, w)


def _random_tilts(gamma: ReferenceMeasure, count: int, rng, amplitude, frequency, phase, clip):
    """Yield ``count`` finite-entropy measures: gamma tilted by exp(a sin(2 pi b (x - x0) / span + c)).

    a, b and c are drawn uniformly from the (low, high) ranges ``amplitude``,
    ``frequency`` and ``phase``, in that order; the exponent is clipped to
    [-clip, clip].
    """
    sup = gamma.support_indices()
    xs = gamma.grid[sup]
    span = xs[-1] - xs[0] if len(xs) > 1 else 1.0
    for _ in range(count):
        a, b, c = rng.uniform(*amplitude), rng.uniform(*frequency), rng.uniform(*phase)
        bump = a * np.sin(b * 2 * math.pi * (xs - xs[0]) / span + c)
        w = np.zeros(gamma.n)
        w[sup] = gamma.weights[sup] * np.exp(np.clip(bump, -clip, clip))
        yield grid_measure(gamma, w)


# ---------------------------------------------------------------------------
# 1-D quantile ladder
# ---------------------------------------------------------------------------
def _quantile_ladder(w: np.ndarray) -> np.ndarray:
    """Cumulative levels of weights that sum to 1: never above 1, and the last exactly 1."""
    levels = np.minimum(np.cumsum(w), 1.0)
    levels[-1] = 1.0
    return levels


def _quantile_knots(w: np.ndarray, lefts: np.ndarray, rights: np.ndarray):
    """Knots (levels, positions) of the quantile of mass w_i spread evenly over [lefts_i, rights_i].

    The pieces are ordered and w > 0; an atom is a piece with lefts_i =
    rights_i, so its jump is a doubled knot level.
    """
    cum = _quantile_ladder(w)
    levels = np.empty(2 * len(w))
    levels[0] = 0.0
    levels[2::2] = cum[:-1]
    levels[1::2] = cum
    pos = np.empty_like(levels)
    pos[0::2] = lefts
    pos[1::2] = rights
    return levels, pos


# ---------------------------------------------------------------------------
# Entropy and bounds
# ---------------------------------------------------------------------------
def relative_entropy(mu: DiscreteMeasure, gamma: ReferenceMeasure) -> float:
    """Relative entropy of mu against gamma: sum of mu_i ln(mu_i / gamma_i).

    Returns +inf when mu charges points off gamma's grid or cells where
    gamma vanishes; the value is an extended real, never an error.
    """
    placed = gamma.place(mu)
    if placed is None:
        return math.inf
    cells, mass = placed
    gw = gamma.weights[cells]
    if np.any(gw <= 0.0):
        return math.inf
    val = float(np.sum(mass * (np.log(mass) - np.log(gw))))
    if -1e-10 < val < 0.0:  # float noise around the Jensen floor
        return 0.0
    return val


def entropy_duality_bound(mu: DiscreteMeasure, gamma: ReferenceMeasure, s) -> float:
    """Duality lower bound int S dmu - int (e^S - 1) dgamma <= H(mu|gamma).

    ``s`` is either a callable on coordinates or an array aligned with
    gamma's grid (then mu must live on that grid).
    """
    if callable(s):
        mass, s_mu = mu.weights, np.asarray(s(mu.x), dtype=float)
        s_gamma = np.asarray(s(gamma.grid), dtype=float)
    else:
        s_gamma = np.asarray(s, dtype=float).ravel()
        if len(s_gamma) != gamma.n:
            raise ValueError("grid test function must match gamma's grid")
        placed = gamma.place(mu)
        if placed is None:
            raise ValueError("mu must live on gamma's grid for grid test functions")
        cells, mass = placed
        s_mu = s_gamma[cells]
    if not (np.all(np.isfinite(s_mu)) and np.all(np.isfinite(s_gamma))):
        raise ValueError("test function must be finite on the grid")
    return float(np.dot(mass, s_mu) - np.dot(gamma.weights, np.expm1(s_gamma)))


def second_moment(mu: DiscreteMeasure) -> float:
    """Sum of w_i x_i^2."""
    return float(np.dot(mu.weights, mu.x * mu.x))


@dataclass(frozen=True)
class SetBoundResult:
    lhs: float
    rhs: float
    holds: bool


def entropy_set_bound_check(
    nu: DiscreteMeasure, gamma: ReferenceMeasure, e_indices
) -> SetBoundResult:
    """Check nu(E) ln(nu(E)/gamma(E)) <= H(nu|gamma) + gamma(E^c)/e.

    ``e_indices`` selects grid cells. Mass of nu outside gamma's grid makes
    H infinite, in which case the inequality holds trivially.
    """
    e = np.zeros(gamma.n, dtype=bool)
    e[np.asarray(e_indices, dtype=int)] = True
    h = relative_entropy(nu, gamma)
    placed = gamma.place(nu)
    if placed is None:
        nu_e = 0.0  # off-grid mass: H already infinite
    else:
        cells, mass = placed
        nu_e = float(mass[e[cells]].sum())
    gamma_e = float(gamma.weights[e].sum())
    if nu_e > 0.0 and gamma_e == 0.0:
        lhs = math.inf
    elif nu_e == 0.0:
        lhs = 0.0
    else:
        lhs = nu_e * math.log(nu_e / gamma_e)
    rhs = h + (1.0 - gamma_e) / math.e
    holds = lhs <= rhs or (math.isinf(lhs) and math.isinf(h))
    return SetBoundResult(lhs=lhs, rhs=rhs, holds=bool(holds))


def discrete_log_concavity_ok(gamma: ReferenceMeasure) -> bool:
    """Midpoint log-concavity of the grid weights on a contiguous support."""
    idx = gamma.support_indices()
    if len(idx) == 0 or np.any(np.diff(idx) != 1):
        return False
    w = gamma.weights[idx]
    if len(w) < 3:
        return True
    left, mid, right = w[:-2], w[1:-1], w[2:]
    return bool(np.all(mid**2 >= left * right * (1.0 - 1e-12)))


# ---------------------------------------------------------------------------
# Grid projection
# ---------------------------------------------------------------------------
def bin_to_grid(points, masses, grid: np.ndarray) -> np.ndarray:
    """Project atoms onto a uniform grid by linear mass splitting.

    Each atom's mass is shared between the two neighboring cell centers in
    proportion to proximity; atoms beyond the ends collapse onto the end
    cells. Mass is preserved exactly.
    """
    x = np.ravel(np.asarray(points, dtype=float))
    m = np.ravel(np.asarray(masses, dtype=float))
    h = grid[1] - grid[0]
    pos = (x - grid[0]) / h
    left = np.floor(pos).astype(int)
    frac = pos - left
    left_c = np.clip(left, 0, len(grid) - 1)
    right_c = np.clip(left + 1, 0, len(grid) - 1)
    frac = np.where(left < 0, 0.0, np.where(left >= len(grid) - 1, 0.0, frac))
    out = np.zeros(len(grid))
    np.add.at(out, left_c, m * (1.0 - frac))
    np.add.at(out, right_c, m * frac)
    return out


def rebin_measure(mu: DiscreteMeasure, gamma: ReferenceMeasure) -> DiscreteMeasure:
    """Project a measure onto gamma's grid by linear mass splitting."""
    w = bin_to_grid(mu.x, mu.weights, gamma.grid)
    return grid_measure(gamma, w)
