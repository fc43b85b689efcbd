"""Monte Carlo point clouds and local/box dimension estimators.

Clouds are drawn from the realized Gibbs chain: the forward word fixes the
base point through the continued fraction coordinates, the reversed chain
fixes the past word and with it the fiber point.  Dimension estimates use
correlation-style neighbour counting on a sqrt(2) radius ladder, with the
lower radii floored above the coding resolution so the fit never reads the
truncation artifacts as structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientScales
from .systems import (CONTEXT_DEPTH, SmaleSystem, fiber_points_bulk,
                      pi_values_bulk, row_blocks)
from .thermo import GibbsApprox, _rng
from .words import is_integer

#: Cloud targets of ``sample_measure``, each mapped to the coordinate parts
#: of its points in column order (``z`` the base point, ``w`` the fiber
#: point), and z-coordinate charts of a cloud.
TARGETS = {"fiber": "w", "z_marginal": "z", "global": "zw"}
CHARTS = ("unit_square", "raw")

#: Radius ladder ratio and default scale count for local estimates.
LADDER_RATIO = math.sqrt(2.0)
DEFAULT_SCALES = 8

#: Minimum neighbours for a ladder scale to qualify (median over centers).
MIN_SCALE_COUNT = 50

#: Lower radii are floored at this multiple of the cloud's coding error.
CODING_FLOOR_FACTOR = 10.0

#: Most sample elements, points times 2 * depth, that the chain draw of one
#: cloud may hold.  A draw holds one byte per element up to M = 16, and its
#: consumer one row block of digits and values at a time.  A `sample`
#: command peaks at 1.5-1.8 bytes per element over a 40 MB base for global
#: clouds and 1.0-1.1 for fiber clouds (100k-400k points at depth 30, M = 3,
#: ru_maxrss), so the cap keeps a command near 0.2 GB.  The default
#: 200k-point global cloud at depth 30 draws 1.2e7 elements.
SAMPLE_ELEMENT_CAP = 100_000_000

#: Rows that ``PointCloud.to_csv`` formats per write.
_CSV_BLOCK = 4096

#: Largest |bias| and dispersion that ``exactness_report`` leaves unflagged.
BIAS_TOL = 0.1
DISPERSION_TOL = 0.25


# ---------------------------------------------------------------------------
# clouds

@dataclass(eq=False)
class PointCloud:
    """Sampled points with the chart and coding error that radii need.

    ``chart`` records the z-coordinate convention: ``unit_square`` means each
    continued fraction value x in (1, inf) is stored as 1/x in (0, 1), a
    smooth chart that leaves local dimensions unchanged; ``raw`` stores x
    itself.  Fiber coordinates are always raw (they are already bounded).
    """

    points: np.ndarray
    chart: str
    coding_error: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] not in (1, 2, 4):
            raise ConfigError("points must be (N, d) with d in {1, 2, 4}")
        if self.chart not in CHARTS:
            raise ConfigError(f"unknown chart {self.chart!r}")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def diameter(self) -> float:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def to_csv(self, path):
        """Header x1..xd, then one comma-separated %.17g row per point,
        formatted ``_CSV_BLOCK`` rows at a time."""
        n, d = self.points.shape
        row = ",".join(["%.17g"] * d) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(f"x{i + 1}" for i in range(d)) + "\n")
            for lo in range(0, n, _CSV_BLOCK):
                block = self.points[lo:lo + _CSV_BLOCK]
                fh.write(row * len(block) % tuple(block.ravel().tolist()))


def sample_measure(g: GibbsApprox, system: SmaleSystem, target: str,
                   n_points: int = None, depth: int = 30, seed: int = 0,
                   chart: str = "unit_square") -> PointCloud:
    """Draw a cloud from the chain: fiber, z-marginal, or joint 4-D.

    Each sample is one chain realization; the forward word is
    evaluated through the continued fraction coordinates at the cylinder
    midpoint and the past word through the fiber composition at the same
    context, so the two parts of a joint sample share their randomness the
    way the invariant measure couples them.  The target's ``TARGETS`` parts
    set the columns, the draw lengths, the default size (100 000 points per
    part), the chart (``raw`` without a z part) and the coding error (the
    largest of its parts').  A cloud of more than
    ``SAMPLE_ELEMENT_CAP`` elements (points times 2 * depth) raises
    ``ConfigError`` before any draw, as do an unknown target or chart.  The
    draw's codes become digits and points one ``row_blocks`` block at a
    time, written into one ``(n_points, d)`` array.
    """
    if target not in TARGETS:
        raise ConfigError(f"unknown target {target!r}")
    if chart not in CHARTS:
        raise ConfigError(f"unknown chart {chart!r}")
    parts = TARGETS[target]
    if n_points is None:
        n_points = 100_000 * len(parts)
    if n_points < 1_000:
        raise ConfigError("need at least 1000 points")
    if depth < 20:
        raise ConfigError("need depth >= 20 for usable coding resolution")
    if n_points * 2 * depth > SAMPLE_ELEMENT_CAP:
        raise ConfigError(
            f"n_points {n_points} x 2 x depth {depth} = {n_points * 2 * depth} "
            f"sample elements exceed the cap {SAMPLE_ELEMENT_CAP}; lower "
            "sample.n_points or sample.depth")
    # a fiber point reads only the CONTEXT_DEPTH - 1 forward symbols of the
    # context at time -1; forward steps are drawn last, so the shorter draw
    # leaves the past and those symbols as they are
    forward = depth if "z" in parts else max(g.memory, CONTEXT_DEPTH - 1)
    # a z point reads no past, so a cloud without fiber points draws none
    past, fwd = g.sample_two_sided(depth if "w" in parts else 0,
                                   forward, n_points, seed)
    errors = {"z": 2.0 ** (1 - depth),
              "w": system.domain.diameter * system.contraction ** (-depth)}
    points = np.empty((n_points, 2 * len(parts)))
    for rows in row_blocks(n_points, depth + forward):
        fwd_m, fwd_n = g.digits(fwd[rows])
        if "z" in parts:
            z = pi_values_bulk(fwd_m, fwd_n)
            if chart == "unit_square":
                np.divide(1.0, z.real, out=points[rows, 0])
                np.divide(1.0, z.imag, out=points[rows, 1])
            else:
                points[rows, 0], points[rows, 1] = z.real, z.imag
        if "w" in parts:
            w = fiber_points_bulk(system, *g.digits(past[rows]), fwd_m, fwd_n)
            points[rows, -2], points[rows, -1] = w.real, w.imag
    return PointCloud(points=points, chart=chart if "z" in parts else "raw",
                      coding_error=float(max(errors[p] for p in parts)))


# ---------------------------------------------------------------------------
# local dimension

@dataclass(frozen=True)
class LocalDimEstimate:
    mean: float
    stddev: float
    window: tuple  # (r_min, r_max, n_scales)
    n_centers: int


def _radius_ladder(cloud: PointCloud, window) -> np.ndarray:
    if window is not None:
        r_min, r_max, n_scales = window
        if not is_integer(n_scales):
            raise ConfigError(f"window scale count {n_scales!r} is not an integer")
    else:
        r_max = cloud.diameter() / 4.0
        n_scales = DEFAULT_SCALES
        r_min = r_max * LADDER_RATIO ** (-(n_scales - 1))
    if not (0 < r_min < r_max) or n_scales < 4:
        raise ConfigError("window must satisfy 0 < r_min < r_max, >= 4 scales")
    radii = np.geomspace(r_max, r_min, n_scales)
    floor = CODING_FLOOR_FACTOR * cloud.coding_error
    radii = radii[radii >= floor]
    if radii.size < 4:
        raise InsufficientScales(
            f"only {radii.size} ladder scales above the coding floor {floor:g}")
    return radii


def neighbour_counts(points: np.ndarray, centers: np.ndarray,
                     radii: np.ndarray) -> np.ndarray:
    """(radii, centers) counts of points within distance r, centers included.

    A point counts when its squared distance, summed over the columns from
    left to right, is at most r * r.  The points are sorted once along their
    widest axis, so the candidates of each radius lie in one contiguous slab
    of that axis; squared distances are computed once per center, over the
    largest slab, and each radius counts on its own sub-slab.  The slab
    bounds are padded far beyond float rounding, so a point outside them has
    a squared distance above r * r and only the distance test decides.
    """
    axis = int(np.argmax(np.ptp(points, axis=0)))
    # tied keys may land in any order: a slab holds all of them or none
    order = np.argsort(points[:, axis])
    cols = [np.ascontiguousarray(points[order, k])
            for k in range(points.shape[1])]
    key = cols[axis]
    pad = radii + 1e-9 * (radii + max(abs(key[0]), abs(key[-1])))
    c_axis = centers[:, axis]
    lo = np.searchsorted(key, c_axis - pad[:, None], side="left")
    hi = np.searchsorted(key, c_axis + pad[:, None], side="right")
    widest = int(np.argmax(radii))
    r2 = radii * radii
    counts = np.empty((radii.size, len(centers)), dtype=np.int64)
    for i, c in enumerate(centers):
        start, stop = lo[widest, i], hi[widest, i]
        d2 = (cols[0][start:stop] - c[0]) ** 2
        for k in range(1, len(cols)):
            d2 += (cols[k][start:stop] - c[k]) ** 2
        for j in range(radii.size):
            counts[j, i] = np.count_nonzero(
                d2[lo[j, i] - start:hi[j, i] - start] <= r2[j])
    return counts


def local_dimension(cloud: PointCloud, window=None, n_centers: int = 400,
                    seed: int = 0) -> LocalDimEstimate:
    """Mean local scaling exponent of neighbour counts around random centers.

    For each center the slope of log count versus log radius is fitted over
    the qualifying ladder scales; a scale qualifies when its median count
    over centers reaches MIN_SCALE_COUNT, and at least 4 scales must qualify.
    """
    if not is_integer(n_centers):
        raise ConfigError(f"center count {n_centers!r} is not an integer")
    n_centers = int(min(n_centers, cloud.n_points // 10))
    if n_centers < 10:
        raise ConfigError("cloud too small for a local estimate")
    if window is None and cloud.diameter() <= CODING_FLOOR_FACTOR * cloud.coding_error:
        # degenerate cloud (all samples resolve to one point): slope 0 at
        # every center, zero dispersion
        return LocalDimEstimate(mean=0.0, stddev=0.0,
                                window=(0.0, 0.0, 0), n_centers=n_centers)
    radii = _radius_ladder(cloud, window)
    rng = _rng(seed)
    idx = rng.choice(cloud.n_points, size=n_centers, replace=False)
    # exclude the center itself
    counts = neighbour_counts(cloud.points, cloud.points[idx], radii) - 1.0
    qualifying = np.median(counts, axis=1) >= MIN_SCALE_COUNT
    if qualifying.sum() < 4:
        raise InsufficientScales(
            f"only {int(qualifying.sum())} scales reached the median count "
            f"{MIN_SCALE_COUNT}")
    log_r = np.log(radii[qualifying])
    slopes = np.full(n_centers, np.nan)
    for i in range(n_centers):
        c = counts[qualifying, i]
        ok = c >= 1.0
        if ok.sum() < 3:
            continue
        slopes[i] = np.polyfit(log_r[ok], np.log(c[ok]), 1)[0]
    usable = np.isfinite(slopes)
    if usable.sum() < max(10, n_centers // 10):
        raise InsufficientScales("too few centers had enough occupied scales")
    return LocalDimEstimate(
        mean=float(np.mean(slopes[usable])),
        stddev=float(np.std(slopes[usable])),
        window=(float(radii[qualifying].min()), float(radii[qualifying].max()),
                int(qualifying.sum())),
        n_centers=int(usable.sum()),
    )


# ---------------------------------------------------------------------------
# box dimension

@dataclass(frozen=True)
class BoxDimEstimate:
    value: float
    scales: tuple
    counts: tuple


def _ranks(x: np.ndarray):
    """(rank of each entry among the distinct values, number of distinct values)."""
    distinct, inverse = np.unique(x, return_inverse=True)
    return inverse.astype(np.int64), len(distinct)


def _distinct_rows(cols: np.ndarray) -> int:
    """Number of distinct rows, packing each column's ranks into one int64
    key and re-ranking the key before it would pass 62 bits."""
    key, size = np.zeros(len(cols), dtype=np.int64), 1
    for col in cols.T:
        col, span = _ranks(col)
        if size * span >= 2 ** 62:
            key, size = _ranks(key)
        key = key * span + col
        size *= span
    return len(np.unique(key))


def _spread(x: np.ndarray, d: int, bits: int) -> np.ndarray:
    """Bit i of each entry of x moved to bit i * d (x < 2**bits, bits * d <= 62)."""
    x = x.astype(np.uint64)
    group = 1 << max(0, bits - 1).bit_length()
    while group > 1:  # groups of ``group`` bits at stride group * d, halved
        group //= 2
        mask = sum(1 << (i // group * group * d + i % group) for i in range(bits))
        x = (x | x << np.uint64(group * (d - 1))) & np.uint64(mask)
    return x


def dyadic_box_counts(points: np.ndarray, eps: float, n: int) -> list:
    """Distinct boxes of side eps * 2**s the points fall in, s = n - 1 .. 0.

    Scaling by a power of two is exact, so the box index at side eps * 2**s
    is the finest index floor(p / eps) shifted right by s.  The finest
    indices are offset by a multiple of 2**(n - 1), which every shift
    divides, and their bits interleaved into one Morton key whose right
    shift by d * s is the key at side eps * 2**s.  One sort of the keys
    then gives every count as the number of distinct shifted keys.  The
    finest sides whose key would pass 62 bits, or all sides when the
    offset indices pass 2**53 and floats no longer hold them exactly, are
    counted by dense ranks of their float indices instead.  floor(p / eps)
    is monotone in p, so the offsets and the key width come from each
    column's extremes, and the key is built one column at a time.
    """
    d, align = points.shape[1], 2.0 ** (n - 1)
    base = np.floor(np.floor(points.min(axis=0) / eps) / align) * align
    top = int((np.floor(points.max(axis=0) / eps) - base).max())
    # the least shift whose Morton key fits in 62 bits
    cut = max(0, top.bit_length() - 62 // d) if top < 2 ** 53 else n
    if cut < n:
        bits = (top >> cut).bit_length()
        key = np.zeros(len(points), dtype=np.uint64)
        for k in range(d):
            idx = (np.floor(points[:, k] / eps) - base[k]).astype(np.int64) >> cut
            key |= _spread(idx, d, bits) << np.uint64(d - 1 - k)
        key.sort()
    if cut:
        fine = np.floor(points / eps)
    counts = []
    for s in range(n - 1, -1, -1):
        if s >= cut:
            shifted = key >> np.uint64(d * (s - cut))
            counts.append(1 + int(np.count_nonzero(shifted[1:] != shifted[:-1])))
        else:
            counts.append(_distinct_rows(np.floor(fine / 2.0 ** s)))
    return counts


def box_dimension(cloud: PointCloud, n_scales: int = 8) -> BoxDimEstimate:
    """Slope of log box count over a dyadic mesh ladder.

    The sides are diam / 2**j for j = 1 .. n_scales, stopping before the
    first side below the coding floor; ``dyadic_box_counts`` counts them
    all at once.  A cloud with zero extent (all samples resolve to one
    point) reports dimension 0 directly instead of failing on a degenerate
    ladder.
    """
    if not is_integer(n_scales) or n_scales < 5:
        raise ConfigError(f"need an integer >= 5 dyadic scales, got {n_scales!r}")
    diam = cloud.diameter()
    floor = max(CODING_FLOOR_FACTOR * cloud.coding_error, 1e-300)
    if diam <= floor:
        return BoxDimEstimate(value=0.0, scales=(), counts=())
    eps_list = []
    for j in range(1, n_scales + 1):
        eps = diam / 2.0 ** j
        if eps < floor:
            break
        eps_list.append(eps)
    n = len(eps_list)
    counts = dyadic_box_counts(cloud.points, eps_list[-1], n) if n else []
    if n < 2:
        return BoxDimEstimate(value=0.0, scales=tuple(eps_list),
                              counts=tuple(counts))
    slope = np.polyfit(np.log(1.0 / np.array(eps_list)),
                       np.log(np.array(counts, dtype=float)), 1)[0]
    return BoxDimEstimate(value=float(slope), scales=tuple(eps_list),
                          counts=tuple(counts))


# ---------------------------------------------------------------------------
# comparison report

@dataclass(frozen=True)
class ExactnessReport:
    bias: float
    dispersion: float
    flags: tuple


def exactness_report(estimate: LocalDimEstimate,
                     predicted: float) -> ExactnessReport:
    """Compare a measured local dimension against a closed-form prediction."""
    bias = estimate.mean - float(predicted)
    flags = []
    if abs(bias) > BIAS_TOL:
        flags.append("large_bias")
    if estimate.stddev > DISPERSION_TOL:
        flags.append("large_dispersion")
    if estimate.n_centers < 30:
        flags.append("few_centers")
    return ExactnessReport(bias=float(bias), dispersion=float(estimate.stddev),
                           flags=tuple(flags))
