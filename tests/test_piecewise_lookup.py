"""Property tests: the piecewise potentials' segment lookup against the all-lines formulas.

``AffineMaxPotential`` and ``TabulatedPotential`` evaluate V, V' and the drift
from their envelope or table with one search per call. The reference
functions below are the direct formulas they replace (the max over every
line; the table searched over all knots, with the kinks rebuilt per call);
the lookup must return the same bits at any point, including kinks, knots,
their float neighbours and points outside the domain. The one departure is
NaN: the references' V' (and so the drift) is NaN there, where the direct
formulas gave a slope or an infinity.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entroflow as ef
import entroflow.stability as stability
from entroflow.cli import main as cli_main

PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------
def ref_affine_value(pot, x):
    x = np.asarray(x, dtype=float)
    return np.max(np.outer(x, pot.slopes) + pot.intercepts, axis=-1).reshape(x.shape)


def nan_in_nan_out(x, d):
    return np.where(np.isnan(x), np.nan, d)


def ref_affine_derivative(pot, x, side):
    x = np.asarray(x, dtype=float)
    vals = np.outer(np.ravel(x), pot.slopes) + pot.intercepts
    top = vals >= np.max(vals, axis=1, keepdims=True) - 1e-12
    masked = np.where(top, pot.slopes, -np.inf if side == "right" else np.inf)
    d = masked.max(axis=1) if side == "right" else masked.min(axis=1)
    return nan_in_nan_out(x, d.reshape(x.shape))


def ref_affine_antiderivative(pot, x):
    x = np.asarray(x, dtype=float)
    ks, s, b, shifts = pot._envelope
    seg = np.searchsorted(ks, x, side="right")
    return 0.5 * s[seg] * x * x + b[seg] * x + shifts[seg]


def ref_tab_kinks(pot):
    slopes = np.diff(pot.vals) / np.diff(pot.xs)
    jump = np.abs(np.diff(slopes)) > 1e-12 * max(1.0, np.abs(slopes).max())
    return pot.xs[1:-1][jump]


def ref_tab_value(pot, x):
    x = np.asarray(x, dtype=float)
    v = np.interp(x, pot.xs, pot.vals)
    return np.where((x < pot.xs[0]) | (x > pot.xs[-1]), np.inf, v)


def ref_tab_derivative(pot, x, side):
    x = np.asarray(x, dtype=float)
    slopes = np.diff(pot.vals) / np.diff(pot.xs)
    idx = np.searchsorted(pot.xs, x, side="right" if side == "right" else "left") - 1
    d = slopes[np.clip(idx, 0, len(slopes) - 1)]
    return nan_in_nan_out(x, np.where((x < pot.xs[0]) | (x > pot.xs[-1]), np.nan, d))


def ref_tab_antiderivative(pot, x):
    x = np.asarray(x, dtype=float)
    slopes = np.diff(pot.vals) / np.diff(pot.xs)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (pot.vals[1:] + pot.vals[:-1]) * np.diff(pot.xs))])
    xc = np.clip(x, pot.xs[0], pot.xs[-1])
    i = np.clip(np.searchsorted(pot.xs, xc, side="right") - 1, 0, len(slopes) - 1)
    t = xc - pot.xs[i]
    return cum[i] + pot.vals[i] * t + 0.5 * slopes[i] * t * t


def ref_drift(derivative, smooth, x):
    x = np.asarray(x, dtype=float)
    if smooth:
        return derivative(x, "right")
    dr, dl = derivative(x, "right"), derivative(x, "left")
    return np.where((dl <= 0.0) & (dr >= 0.0), 0.0, 0.5 * (dr + dl))


def ref_cell_integrals(pot, antiderivative, edges):
    edges = np.asarray(edges, dtype=float)
    prim = antiderivative(pot, edges)
    out = prim[..., 1:] - prim[..., :-1]
    lo, hi = pot.finite_interval()
    if not (math.isfinite(lo) or math.isfinite(hi)):
        return out
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))
    return np.where((edges[..., :-1] < lo - slack) | (edges[..., 1:] > hi + slack), np.inf, out)


def envelope_by_pairs(slopes, intercepts):
    """The envelope as ``AffineMaxPotential`` built it from adjacent-slope pairs.

    Right whenever every line is on the envelope, as for tangent lines.
    """
    s, b = slopes, intercepts
    value = lambda t: float(np.max(t * s + b))  # noqa: E731
    xs = []
    for i in range(len(s) - 1):
        if s[i + 1] == s[i]:
            continue
        t = (b[i] - b[i + 1]) / (s[i + 1] - s[i])
        if value(t) <= s[i] * t + b[i] + 1e-10:
            xs.append(t)
    ks = np.unique(np.asarray(xs, dtype=float))
    bounds = np.concatenate([[-np.inf], ks, [np.inf]])
    probes = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if not math.isfinite(lo):
            probes.append(hi - 1.0 if math.isfinite(hi) else 0.0)
        elif not math.isfinite(hi):
            probes.append(lo + 1.0)
        else:
            probes.append(0.5 * (lo + hi))
    active = np.argmax(np.outer(np.asarray(probes), s) + b, axis=1)
    seg_s, seg_b = s[active], b[active]
    shifts = np.zeros(len(active))
    for i in range(1, len(active)):
        k = ks[i - 1]
        raw = lambda j: 0.5 * seg_s[j] * k * k + seg_b[j] * k  # noqa: E731
        shifts[i] = shifts[i - 1] + raw(i - 1) - raw(i)
    return ks, seg_s, seg_b, shifts


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
coef = st.one_of(
    st.integers(-16, 16).map(lambda k: k / 4.0),
    st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def line_sets(draw):
    """Line sets with dominated, parallel, nearly parallel and concurrent lines."""
    lines = draw(st.lists(st.tuples(coef, coef), min_size=1, max_size=10))
    extras = draw(st.lists(st.sampled_from(["parallel", "near", "concurrent", "copy", "dominated"]), max_size=4))
    for kind in extras:
        s, b = draw(st.sampled_from(lines))
        if kind == "parallel":
            lines.append((s, b - draw(st.floats(1e-15, 2.0))))
        elif kind == "near":
            # the next float up, or a 1e-12 step where that would be subnormal
            t = float(np.nextafter(s, np.inf)) if abs(s) > 1e-3 else s + 1e-12
            lines.append((t, b - draw(st.floats(-1e-12, 1e-12))))
        elif kind == "concurrent":
            # three lines through one point
            p, v = draw(coef), draw(coef)
            lines.extend((t, v - t * p) for t in (s - 1.0, s, s + 0.5))
        elif kind == "copy":
            lines.append((s, b))
        else:
            lines.append((s, b - draw(st.floats(1e-13, 1e-9))))
    assume(len(lines) >= 2)
    return ef.AffineMaxPotential.from_pieces(lines)


@st.composite
def convex_tables(draw):
    n = draw(st.integers(3, 30))
    gaps = np.asarray(draw(st.lists(st.floats(0.01, 2.0), min_size=n - 1, max_size=n - 1)))
    jumps = np.asarray(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=n - 2, max_size=n - 2))
    )
    slopes = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(jumps)])
    xs = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    vals = draw(st.floats(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    try:
        return ef.tabulated(xs, vals)
    except ValueError:  # rounding broke convexity beyond the tolerance
        assume(False)


def probe_points(rng_seed, marks, lo, hi):
    """Random points, every mark, its float neighbours and +-1e-13, signed zeros and non-finite values."""
    rng = np.random.default_rng(rng_seed)
    marks = np.asarray(marks, dtype=float)
    return np.concatenate([
        rng.uniform(lo, hi, 40),
        marks,
        np.nextafter(marks, np.inf),
        np.nextafter(marks, -np.inf),
        marks + 1e-13,
        marks - 1e-13,
        [0.0, -0.0, lo, hi, 1e300, -1e300, np.inf, -np.inf, np.nan],
    ])


def shapes(points):
    """The points as one row and, padded, as a (B, n+1) block."""
    pad = np.concatenate([points, points[: (-len(points)) % 3]])
    return [points, pad.reshape(3, -1)]


def edge_blocks(points, lo, hi):
    """Sorted finite edges, as one row and as a (B, n+1) block."""
    e = np.sort(points[np.isfinite(points) & (points >= lo) & (points <= hi)])
    pad = np.concatenate([e, np.full((-len(e)) % 2, e[-1])])
    return [e, np.sort(pad.reshape(2, -1), axis=-1)]


def same(a, b):
    return np.asarray(a).shape == np.asarray(b).shape and np.array_equal(a, b, equal_nan=True)


def nan_stays_nan(pot, x):
    nan = np.isnan(x)
    assert nan.any()
    for got in (pot.value(x), pot.derivative(x, "right"), pot.derivative(x, "left"), pot.drift(x)):
        assert np.isnan(got[nan]).all()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------
@PROPERTY
@given(pot=line_sets(), seed=st.integers(0, 2**16))
def test_affine_max_lookup_matches_all_lines(pot, seed):
    ks = pot.kinks()
    span = 2.0 + np.abs(ks).max(initial=0.0)
    pts = probe_points(seed, ks, -span, span)
    smooth = len(ks) == 0
    with np.errstate(all="ignore"):
        for x in shapes(pts):
            assert same(pot.value(x), ref_affine_value(pot, x))
            for side in ("right", "left"):
                assert same(pot.derivative(x, side), ref_affine_derivative(pot, x, side))
            assert same(pot.drift(x), ref_drift(lambda y, s: ref_affine_derivative(pot, y, s), smooth, x))
            assert same(pot.antiderivative(x), ref_affine_antiderivative(pot, x))
            nan_stays_nan(pot, x)
        for e in edge_blocks(pts, -1e3, 1e3):
            assert same(pot.cell_integrals(e), ref_cell_integrals(pot, ref_affine_antiderivative, e))
        candidates = ks if len(ks) else np.zeros(1)
        assert pot.argmin() == float(candidates[np.argmin(ref_affine_value(pot, candidates))])


@PROPERTY
@given(pot=line_sets())
def test_affine_max_envelope_is_the_upper_hull(pot):
    ks, s, b, _ = pot._envelope
    assert np.all(np.diff(ks) > 0.0) and np.all(np.diff(s) > 0.0)
    scale = 1.0 + np.abs(pot.slopes).max() * (1.0 + np.abs(ks).max(initial=0.0)) + np.abs(pot.intercepts).max()
    tol = 1e-12 * scale
    # consecutive hull lines meet at their kink, on the envelope
    assert np.all(np.abs((s[:-1] * ks + b[:-1]) - (s[1:] * ks + b[1:])) <= tol)
    assert np.all(np.abs(ref_affine_value(pot, ks) - (s[1:] * ks + b[1:])) <= tol)
    # each hull line is the max over all lines inside its segment
    bounds = np.concatenate([[ks[0] - 1.0] if len(ks) else [-1.0], ks, [ks[-1] + 1.0] if len(ks) else [1.0]])
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    assert np.all(np.abs(ref_affine_value(pot, mids) - (s * mids + b)) <= tol)
    # lines given out of slope order make the same envelope
    flipped = ef.AffineMaxPotential(slopes=pot.slopes[::-1], intercepts=pot.intercepts[::-1])
    assert same(flipped.kinks(), ks)
    x = np.concatenate([ks, mids])
    assert same(flipped.value(x), ref_affine_value(flipped, x))


@PROPERTY
@given(pot=convex_tables(), seed=st.integers(0, 2**16))
def test_tabulated_lookup_matches_table_formulas(pot, seed):
    lo, hi = pot.finite_interval()
    pts = probe_points(seed, pot.xs, lo - 1.0, hi + 1.0)
    kinks = ref_tab_kinks(pot)
    assert same(pot.kinks(), kinks)
    assert pot.is_smooth() == (len(kinks) == 0)
    with np.errstate(all="ignore"):
        for x in shapes(pts):
            assert same(pot.value(x), ref_tab_value(pot, x))
            for side in ("right", "left"):
                assert same(pot.derivative(x, side), ref_tab_derivative(pot, x, side))
            assert same(pot.drift(x), ref_drift(lambda y, s: ref_tab_derivative(pot, y, s), len(kinks) == 0, x))
            assert same(pot.antiderivative(x), ref_tab_antiderivative(pot, x))
            nan_stays_nan(pot, x)
        for e in edge_blocks(pts, lo - 1.0, hi + 1.0):
            assert same(pot.cell_integrals(e), ref_cell_integrals(pot, ref_tab_antiderivative, e))


# ---------------------------------------------------------------------------
# the envelope with lines off it
# ---------------------------------------------------------------------------
def test_tangent_envelopes_unchanged():
    # every line on the envelope: the hull pass gives the pairwise construction's arrays
    for base in (ef.quadratic(1.0), ef.quadratic(2.5, 0.3), ef.quartic(1.0, 0.5)):
        for n in (2, 4, 16, 64):
            pot = stability.affine_envelope_potential(base, stability._envelope_tangency_points(base, n))
            for got, ref in zip(pot._envelope, envelope_by_pairs(pot.slopes, pot.intercepts), strict=True):
                assert got.dtype == ref.dtype and same(got, ref)


@pytest.mark.parametrize(
    "pieces,exact",
    [
        ([[-1, 0], [0, -5], [1, 0]], 6.5),
        ([[-2, 0], [-1, -3], [0, -10], [1, -3], [2, 0]], 13.0),
        ([[-1, 0], [0, 0], [1, 0]], 6.5),  # three lines through one point
        ([[-1, 0], [-1, -2], [1, 0], [1, 0], [0.5, -4]], 6.5),  # parallel, copied and dominated lines
    ],
)
def test_dominated_lines_leave_the_envelope(pieces, exact):
    pot = ef.affine_max(pieces)
    assert pot.kinks().tolist() == [0.0]
    assert not pot.is_smooth()
    assert float(pot.cell_integrals([-2.0, 3.0])[0]) == pytest.approx(exact, abs=1e-12)
    assert pot.argmin() == 0.0


def test_flow_ignores_a_dominated_line(tmp_path):
    pieces = [[-2.0, 0.0], [0.5, 0.0], [3.0, -2.0]]
    tables = []
    for name, extra in (("plain", []), ("dominated", [[0.0, -7.0]])):
        cfg = {
            "potential": {"kind": "affine_max", "pieces": pieces + extra},
            "grid": {"n": 80},
            "jko": {"tau": 0.02},
            "initial": {"kind": "gaussian", "mean": 0.5, "std": 0.4},
            "horizon": 0.06,
            "times": [0.06],
            "output_dir": str(tmp_path / name),
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["flow", str(path), "--seed", "2"]) == 0
        tables.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).glob("*.csv"))})
    assert tables[0] and tables[0] == tables[1]
