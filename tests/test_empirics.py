"""Point clouds and dimension estimators on known benchmarks."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fiberdim.config import DEFAULTS
from fiberdim.empirics import (
    _CSV_BLOCK,
    SAMPLE_ELEMENT_CAP,
    BoxDimEstimate,
    PointCloud,
    box_dimension,
    dyadic_box_counts,
    exactness_report,
    local_dimension,
    neighbour_counts,
    sample_measure,
)
from fiberdim import empirics, systems
from fiberdim.errors import ConfigError, InsufficientScales
from fiberdim.systems import fiber_points_bulk, make_system
from fiberdim.thermo import GeometricPotential, GibbsApprox, gibbs_markov

from oracles import constant_potential, whole_draw_points

ROOT = Path(__file__).resolve().parents[1]


def synthetic(points):
    return PointCloud(points=points, chart="raw", coding_error=0.0)


@pytest.fixture(scope="module")
def gauss2():
    rng = np.random.default_rng(11)
    return synthetic(rng.normal(size=(60000, 2)))


@pytest.fixture(scope="module")
def conj():
    return make_system("inverse_conjugate")


class TestPointCloud:
    def test_validation(self):
        with pytest.raises(ConfigError):
            synthetic(np.zeros(100))  # not (N, d)
        with pytest.raises(ConfigError):
            synthetic(np.zeros((100, 3)))
        with pytest.raises(ConfigError):
            PointCloud(points=np.zeros((10, 2)), chart="polar",
                       coding_error=0.0)

    def test_csv_format(self, tmp_path):
        cloud = synthetic(np.array([[0.25, 0.5], [1.0 / 3.0, 0.75]]))
        path = tmp_path / "cloud.csv"
        cloud.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 3
        # full precision round trip
        back = float(lines[2].split(",")[0])
        assert back == 1.0 / 3.0

    def test_csv_bytes_match_savetxt(self, tmp_path):
        rng = np.random.default_rng(5)
        # row counts on both sides of the write block boundaries
        for rows in (1, _CSV_BLOCK - 1, _CSV_BLOCK, 3 * _CSV_BLOCK + 7):
            for d in (1, 2, 4):
                pts = rng.normal(size=(rows, d)) * 10.0 ** rng.integers(
                    -300, 300, (rows, d))
                pts[:3] = [[-0.0] * d, [5e-324] * d, [1.0 / 3.0] * d][:rows]
                cloud = synthetic(pts)
                cloud.to_csv(tmp_path / "fast.csv")
                np.savetxt(tmp_path / "ref.csv", cloud.points, delimiter=",",
                           header=",".join(f"x{i + 1}" for i in range(d)),
                           comments="", newline="\n", fmt="%.17g")
                assert ((tmp_path / "fast.csv").read_bytes()
                        == (tmp_path / "ref.csv").read_bytes())

    def test_diameter(self):
        cloud = synthetic(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert cloud.diameter() == pytest.approx(5.0)


class TestSampling:
    def test_guards(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        with pytest.raises(ConfigError):
            sample_measure(g, conj, "posterior")
        with pytest.raises(ConfigError):
            sample_measure(g, conj, "fiber", n_points=100)
        with pytest.raises(ConfigError):
            sample_measure(g, conj, "fiber", n_points=2000, depth=10)

    def test_sample_element_cap(self, conj, monkeypatch):
        # the cap is checked before any draw: the sampler here only reports
        # that it was reached, so nothing of the rejected size is allocated
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        monkeypatch.setattr(GibbsApprox, "sample_two_sided", reached)
        at_cap = SAMPLE_ELEMENT_CAP // (2 * 25)
        with pytest.raises(Reached):
            sample_measure(g, conj, "fiber", n_points=at_cap, depth=25)
        for n_points, depth in ((at_cap + 1, 25), (2_000_000_000, 30)):
            with pytest.raises(ConfigError, match="sample elements exceed the cap"):
                sample_measure(g, conj, "global", n_points=n_points, depth=depth)

    @pytest.mark.parametrize("target", ["fiber", "global"])
    def test_unknown_chart_rejected_before_any_draw(self, conj, monkeypatch,
                                                    target):
        def forbidden(*args, **kwargs):
            raise AssertionError("the chart must be rejected before any draw")

        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        monkeypatch.setattr(GibbsApprox, "sample_two_sided", forbidden)
        with pytest.raises(ConfigError, match="unknown chart 'polar'"):
            sample_measure(g, conj, target, n_points=1000, depth=25,
                           chart="polar")

    @pytest.mark.parametrize("target, n_past",
                             [("fiber", 25), ("z_marginal", 0), ("global", 25)])
    def test_one_draw_per_cloud(self, conj, monkeypatch, target, n_past):
        # every cloud draws once, through the sampler the benchmark tracer
        # wraps by name, and a z-marginal cloud draws no past
        calls = []
        draw = GibbsApprox.sample_two_sided

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return draw(self, *args, **kwargs)

        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        monkeypatch.setattr(GibbsApprox, "sample_two_sided", counted)
        sample_measure(g, conj, target, n_points=1000, depth=25)
        assert calls == [n_past]

    def test_default_size_is_100000_per_part(self, conj, monkeypatch):
        # a config's null sample.n_points reaches sample_measure as None
        assert DEFAULTS["sample"]["n_points"] is None
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        cloud = sample_measure(g, conj, "z_marginal", None, depth=20)
        assert cloud.n_points == len(cloud.points) == 100_000

        class Reached(Exception):
            pass

        def reached(self, n_past, n_forward, count, rng):
            raise Reached(count)

        monkeypatch.setattr(GibbsApprox, "sample_two_sided", reached)
        with pytest.raises(Reached) as info:  # two parts: z and w
            sample_measure(g, conj, "global", None, depth=20)
        assert info.value.args == (200_000,)

    def test_defaults_fit_the_cap(self):
        # the default global cloud, and every cloud the run configs draw
        assert 200_000 * 2 * DEFAULTS["sample"]["depth"] <= SAMPLE_ELEMENT_CAP
        for path in (ROOT / "run_configs").glob("*.json"):
            sample = {**DEFAULTS["sample"],
                      **json.loads(path.read_text()).get("sample", {})}
            n_points = sample["n_points"] or 200_000
            assert n_points * 2 * sample["depth"] <= SAMPLE_ELEMENT_CAP

    def test_shapes_and_charts(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        fiber = sample_measure(g, conj, "fiber", n_points=1000, depth=25,
                               seed=3, chart="unit_square")
        assert fiber.points.shape == (1000, 2)
        assert fiber.chart == "raw"  # fiber coordinates are already bounded
        z = sample_measure(g, conj, "z_marginal", n_points=1000, depth=25,
                           seed=3)
        assert z.points.shape == (1000, 2)
        assert np.all((z.points > 0) & (z.points < 1))
        joint = sample_measure(g, conj, "global", n_points=1000, depth=25,
                               seed=3)
        assert joint.points.shape == (1000, 4)
        assert joint.coding_error == pytest.approx(
            max(2.0 ** (1 - 25), conj.domain.diameter * conj.contraction ** -25))

    def test_seed_determinism(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2)
        a = sample_measure(g, conj, "global", n_points=1000, depth=25, seed=7)
        b = sample_measure(g, conj, "global", n_points=1000, depth=25, seed=7)
        assert np.array_equal(a.points, b.points)
        c = sample_measure(g, conj, "global", n_points=1000, depth=25, seed=8)
        assert not np.array_equal(a.points, c.points)

    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["inverse_conjugate", "inverse_square"])
    def test_fiber_cloud_reads_short_forward_draw(self, variant, L):
        # the fiber target draws only the forward symbols a point reads; its
        # points are those of a full depth-symbol forward draw
        system = make_system(variant)
        g = gibbs_markov(GeometricPotential(system, 1.0), 2, L)
        cloud = sample_measure(g, system, "fiber", n_points=2000, depth=25,
                               seed=5)
        past, fwd = g.sample_two_sided(25, 25, 2000, 5)
        w = fiber_points_bulk(system, *g.digits(past), *g.digits(fwd))
        assert np.array_equal(cloud.points, np.column_stack([w.real, w.imag]))

    def test_single_digit_collapses_to_golden_point(self, conj):
        g = gibbs_markov(constant_potential(0.0, 1), 1)
        cloud = sample_measure(g, conj, "z_marginal", n_points=2000, depth=30,
                               seed=0)
        golden = (math.sqrt(5) - 1) / 2  # unit-square chart of [1;1,1,...]
        assert np.abs(cloud.points - golden).max() <= cloud.coding_error
        assert cloud.diameter() == 0.0


def brute_counts(points, centers, radii):
    """Points within each radius of each center: d2 summed left to right."""
    d2 = np.zeros((len(centers), len(points)))
    for k in range(points.shape[1]):
        d2 = d2 + (points[None, :, k] - centers[:, None, k]) ** 2
    return np.array([np.count_nonzero(d2 <= r * r, axis=1) for r in radii])


class TestNeighbourCounts:
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_matches_brute_force(self, dim):
        rng = np.random.default_rng(dim)
        pts = rng.normal(size=(3000, dim))
        centers = pts[rng.choice(3000, size=60, replace=False)]
        radii = np.geomspace(1.5, 0.05, 9)
        counts = neighbour_counts(pts, centers, radii)
        assert counts.shape == (9, 60)
        assert np.array_equal(counts, brute_counts(pts, centers, radii))

    @pytest.mark.parametrize("dim, axis", [(2, 1), (4, 2), (4, 3)])
    def test_widest_axis_not_first(self, dim, axis):
        rng = np.random.default_rng(10 + axis)
        pts = rng.random((4000, dim))
        pts[:, axis] *= 50.0
        centers = pts[rng.choice(4000, size=40, replace=False)]
        radii = np.array([0.1, 0.3, 1.0, 3.0, 20.0])
        assert np.array_equal(neighbour_counts(pts, centers, radii),
                              brute_counts(pts, centers, radii))

    def test_duplicate_points(self):
        rng = np.random.default_rng(3)
        pts = rng.random((2000, 2))
        pts[:600] = pts[600:1200]  # exact repeats
        pts[1200:1300] = pts[0]  # pts[0] == pts[600], now 102 times
        centers = np.vstack([pts[:20], pts[:20], pts[1200:1205]])
        radii = np.array([1e-9, 0.01, 0.05, 0.2])
        counts = neighbour_counts(pts, centers, radii)
        assert np.array_equal(counts, brute_counts(pts, centers, radii))
        assert counts[0, 1] == 2 and counts[0, 0] == counts[0, -1] == 102

    @pytest.mark.parametrize("dim", [1, 2])
    def test_lattice_boundary_is_inclusive(self, dim):
        # integer points at exact distance r: d2 == r * r, so only <= keeps
        # them; the Gauss circle counts 5, 13, 29, 49, 81 in the plane
        axes = np.meshgrid(*[np.arange(-7.0, 8.0)] * dim, indexing="ij")
        pts = np.column_stack([a.ravel() for a in axes])
        centers = np.zeros((1, dim))
        radii = np.arange(1.0, 6.0)
        counts = neighbour_counts(pts, centers, radii)[:, 0]
        assert np.array_equal(counts[:, None],
                              brute_counts(pts, centers, radii))
        expected = [3, 5, 7, 9, 11] if dim == 1 else [5, 13, 29, 49, 81]
        assert counts.tolist() == expected

    def test_matches_kd_tree(self):
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(20000, 4)) * [1.0, 3.0, 0.5, 2.0]
        centers = pts[rng.choice(20000, size=100, replace=False)]
        radii = np.geomspace(3.0, 0.2, 8)
        tree = spatial.cKDTree(pts)
        expected = [tree.query_ball_point(centers, r, return_length=True)
                    for r in radii]
        assert np.array_equal(neighbour_counts(pts, centers, radii), expected)


class TestLocalDimension:
    def test_gaussian_plane(self, gauss2):
        est = local_dimension(gauss2, window=(0.05, 0.4, 9), n_centers=400,
                              seed=1)
        assert abs(est.mean - 2.0) <= 0.05
        assert est.stddev <= 0.25

    def test_gaussian_line(self):
        rng = np.random.default_rng(12)
        cloud = synthetic(np.column_stack([rng.normal(size=60000),
                                           np.full(60000, 0.5)]))
        est = local_dimension(cloud, window=(0.02, 0.2, 9), n_centers=400,
                              seed=1)
        assert abs(est.mean - 1.0) <= 0.05
        assert est.stddev <= 0.1

    def test_window_robustness(self, gauss2):
        a = local_dimension(gauss2, window=(0.05, 0.4, 9), n_centers=400,
                            seed=1)
        b = local_dimension(gauss2, window=(0.02, 0.2, 9), n_centers=400,
                            seed=1)
        assert abs(a.mean - b.mean) <= 0.05

    def test_dirac_short_circuit(self, conj):
        g = gibbs_markov(constant_potential(0.0, 1), 1)
        cloud = sample_measure(g, conj, "z_marginal", n_points=2000, depth=30,
                               seed=0)
        est = local_dimension(cloud, n_centers=100, seed=0)
        assert est.mean == 0.0
        assert est.stddev == 0.0
        assert est.window == (0.0, 0.0, 0)

    def test_coding_floor_starves_ladder(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(points=rng.random((2000, 2)), chart="raw",
                           coding_error=0.1)
        with pytest.raises(InsufficientScales):
            local_dimension(cloud, n_centers=100, seed=0)

    def test_sparse_cloud_lacks_neighbours(self):
        rng = np.random.default_rng(0)
        cloud = synthetic(rng.random((300, 2)))
        with pytest.raises(InsufficientScales):
            local_dimension(cloud, window=(1e-4, 1e-3, 6), n_centers=30,
                            seed=0)

    def test_tiny_cloud_rejected(self):
        cloud = synthetic(np.zeros((50, 2)))
        with pytest.raises(ConfigError):
            local_dimension(cloud, n_centers=400, seed=0)

    def test_window_validation(self, gauss2):
        with pytest.raises(ConfigError):
            local_dimension(gauss2, window=(0.0, 0.1, 6))
        with pytest.raises(ConfigError):
            local_dimension(gauss2, window=(0.01, 0.1, 3))
        with pytest.raises(ConfigError, match="not an integer"):
            local_dimension(gauss2, window=(0.01, 0.1, 8.7))

    @pytest.mark.parametrize("n_centers", [400.7, 100.0, True])
    def test_center_count_must_be_integer(self, gauss2, n_centers):
        with pytest.raises(ConfigError, match="not an integer"):
            local_dimension(gauss2, n_centers=n_centers)


class TestBoxDimension:
    def test_regular_grid_plane(self):
        xs = np.linspace(0.0, 1.0, 256)
        gx, gy = np.meshgrid(xs, xs)
        cloud = synthetic(np.column_stack([gx.ravel(), gy.ravel()]))
        est = box_dimension(cloud, n_scales=7)
        assert 1.8 <= est.value <= 2.05
        assert list(est.counts) == sorted(est.counts)

    def test_regular_grid_line(self):
        cloud = synthetic(np.column_stack([np.linspace(0, 1, 4096),
                                           np.full(4096, 0.5)]))
        est = box_dimension(cloud, n_scales=8)
        assert 0.85 <= est.value <= 1.05

    def test_dirac_reports_zero(self, conj):
        g = gibbs_markov(constant_potential(0.0, 1), 1)
        cloud = sample_measure(g, conj, "z_marginal", n_points=2000, depth=30,
                               seed=0)
        est = box_dimension(cloud)
        assert est.value == 0.0
        assert est.scales == ()

    def test_scale_guard(self, gauss2):
        with pytest.raises(ConfigError):
            box_dimension(gauss2, n_scales=4)

    @pytest.mark.parametrize("n_scales", [7.5, 8.0, True])
    def test_scale_count_must_be_integer(self, gauss2, n_scales):
        with pytest.raises(ConfigError, match="integer"):
            box_dimension(gauss2, n_scales=n_scales)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_packed_count_matches_row_unique(self, dim):
        rng = np.random.default_rng(dim)
        pts = rng.normal(-3.0, 2.0, size=(4000, dim))
        pts[:50] = pts[50:100]  # exact repeats
        # adjacent boxes of side 1e-15 near 0, more than 2**53 boxes above
        # the least point: offset float indices would merge them
        pts[100:104] = (np.arange(4) + 0.5)[:, None] * 1e-15
        # 1e-9 passes 62 key bits at d >= 2, 1e-15 passes 2**53 box indices
        for eps, n in ((8.0, 1), (0.5, 4), (0.05, 9), (1e-4, 20), (1e-9, 36),
                       (1e-15, 50)):
            assert dyadic_box_counts(pts, eps, n) == row_unique_counts(pts, eps, n)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_columns_across_zero(self, dim):
        # every column's least point is negative and its greatest positive,
        # so each column's offset base lies below zero
        rng = np.random.default_rng(10 + dim)
        pts = rng.uniform(-1.0, 1.0, size=(3000, dim)) * [5.0, 0.3, 2e3, 1e-2][:dim]
        pts[0], pts[1] = pts.min(axis=0) * 1.5, pts.max(axis=0) * 1.5
        assert np.all(pts.min(axis=0) < 0) and np.all(pts.max(axis=0) > 0)
        for eps, n in ((0.5, 4), (1e-3, 12), (1e-9, 36)):
            assert dyadic_box_counts(pts, eps, n) == row_unique_counts(pts, eps, n)

    def test_fiber_cloud_key_past_62_bits(self):
        system = make_system("similarity")
        g = gibbs_markov(GeometricPotential(system, 1.0), 3)
        cloud = sample_measure(g, system, "fiber", n_points=5000, depth=30,
                               seed=2)
        est = box_dimension(cloud, n_scales=40)
        # 40 scales: 41-bit indices per coordinate, an 82-bit Morton key
        assert len(est.scales) == 40
        assert list(est.counts) == [
            len(np.unique(np.floor(cloud.points / eps), axis=0))
            for eps in est.scales]


def traced_mb(fn, *args):
    """(fn(*args), tracemalloc peak in MB above what was traced at the call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, (peak - base) / 1e6


class TestMemoryBound:
    """A 100k-point global cloud at M = 3, depth 30 (3.2 MB of points):
    every stage after the draw holds memory of the order of the cloud."""

    @pytest.fixture(scope="class")
    def traced_cloud(self, conj):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 3)
        return traced_mb(sample_measure, g, conj, "global", 100_000, 30, 1)

    def test_sample_measure_peak(self, traced_cloud):
        # the codes are 6 MB; whole-cloud column copies and 2**18-element
        # composition blocks read 26.7 MB, one point array over whole-draw
        # digits 20.0 MB
        cloud, peak = traced_cloud
        assert cloud.points.shape == (100_000, 4)
        assert peak <= 23.0

    def test_sample_measure_blocked_peak(self, traced_cloud):
        # 6 MB of codes and 3.2 MB of points: digits, translate values and
        # fiber points exist one row block at a time (10.6 MB read; 19.1 MB
        # with whole-draw digits)
        assert traced_cloud[1] <= 12.0

    def test_z_marginal_peak(self, conj):
        # 3 MB of forward codes and 1.6 MB of points: the past steps are
        # drawn but not stored (7.9 MB read; 10.8 MB with the 3 MB past)
        g = gibbs_markov(GeometricPotential(conj, 1.0), 3)
        cloud, peak = traced_mb(sample_measure, g, conj, "z_marginal",
                                100_000, 30, 1)
        assert cloud.points.shape == (100_000, 2)
        assert peak <= 9.0

    def test_to_csv_peak(self, traced_cloud, tmp_path):
        # one string of the whole file read 24.4 MB, row blocks 1.0 MB
        _, peak = traced_mb(traced_cloud[0].to_csv, tmp_path / "cloud.csv")
        assert peak <= 8.0

    def test_box_count_peak(self, traced_cloud):
        # three N x d arrays read 12.0 MB, one column at a time 3.2 MB
        points = traced_cloud[0].points
        eps = traced_cloud[0].diameter() / 2 ** 8
        counts, peak = traced_mb(dyadic_box_counts, points, eps, 8)
        assert len(counts) == 8
        assert peak <= 7.0


#: COMPOSITION_BLOCK values that force one-row blocks, a few rows per
#: block with a partial last one, and the default.
BLOCKS = [1, 1000, systems.COMPOSITION_BLOCK]


class TestBlockedEvaluation:
    """Row blocks of the draw give the points of whole-draw evaluation."""

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("target", ["fiber", "z_marginal", "global"])
    def test_points_match_whole_draw(self, conj, monkeypatch, target, L,
                                     block):
        g = gibbs_markov(GeometricPotential(conj, 1.0), 2, L)
        ref = whole_draw_points(g, conj, target, 1037, 20, 3)
        monkeypatch.setattr(systems, "COMPOSITION_BLOCK", block)
        cloud = sample_measure(g, conj, target, n_points=1037, depth=20,
                               seed=3)
        assert np.array_equal(cloud.points, ref)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_uint16_chain_matches_whole_draw(self, conj, monkeypatch, block):
        # 289 symbols: the codes are uint16
        g = gibbs_markov(GeometricPotential(conj, 0.8), 17, 1)
        ref = whole_draw_points(g, conj, "global", 1037, 20, 4, "raw")
        monkeypatch.setattr(systems, "COMPOSITION_BLOCK", block)
        cloud = sample_measure(g, conj, "global", n_points=1037, depth=20,
                               seed=4, chart="raw")
        assert g.sample_forward(2, 1, 0).dtype == np.uint16
        assert np.array_equal(cloud.points, ref)


def row_unique_counts(pts, eps, n):
    """Distinct floor-index rows at the sides eps * 2**s, s = n - 1 .. 0."""
    return [len(np.unique(np.floor(pts / (eps * 2.0 ** s)), axis=0))
            for s in range(n - 1, -1, -1)]


class TestExactness:
    def test_clean_estimate_has_no_flags(self, gauss2):
        est = local_dimension(gauss2, window=(0.05, 0.4, 9), n_centers=400,
                              seed=1)
        report = exactness_report(est, 2.0)
        assert report.flags == ()
        assert abs(report.bias) <= 0.05

    def test_flags_fire(self, gauss2, monkeypatch):
        est = local_dimension(gauss2, window=(0.05, 0.4, 9), n_centers=400,
                              seed=1)
        monkeypatch.setattr(empirics, "BIAS_TOL", 0.1)
        monkeypatch.setattr(empirics, "DISPERSION_TOL", 0.01)
        report = exactness_report(est, 3.0)
        assert "large_bias" in report.flags
        assert "large_dispersion" in report.flags

    def test_report_unpacks(self, gauss2):
        est = local_dimension(gauss2, window=(0.05, 0.4, 9), n_centers=400,
                              seed=1)
        report = exactness_report(est, 2.0)
        assert report.dispersion == est.stddev
