"""Fiber map families: formulas, enclosures, certified diagnostics."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from fiberdim import systems, words
from fiberdim.errors import ConfigError, DomainEscape, InvalidWord
from fiberdim.systems import (
    CONTEXT_DEPTH,
    Disk,
    SimilaritySchedule,
    SmaleSystem,
    fiber_points_bulk,
    image_disk,
    invert_disk,
    make_system,
    verify_system,
)
from fiberdim.thermo import gibbs_markov, realized_table
from fiberdim.words import pair_alphabet

from oracles import (constant_potential, default_symbol_sup,
                     exact_coefficient, fiber_derivative_mod, fiber_map,
                     grid_square_distortion, padded_forward, pi2_hat,
                     pi_tilde, sample_fiber_limit_set)


@pytest.fixture(scope="module")
def conj():
    return make_system("inverse_conjugate")


@pytest.fixture(scope="module")
def square():
    return make_system("inverse_square")


class TestDiskGeometry:
    def test_invert_disk_exact_example(self):
        out = invert_disk(Disk(3 + 0j, 1.0))
        assert out.center == pytest.approx(0.375)
        assert out.radius == pytest.approx(0.125)

    def test_invert_disk_boundary_maps_to_boundary(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            r = rng.uniform(0.05, 0.9) * abs(c)
            if abs(c) <= r:
                continue
            out = invert_disk(Disk(c, r))
            for t in np.linspace(0.0, 2 * np.pi, 17):
                z = c + r * complex(math.cos(t), math.sin(t))
                assert abs(1.0 / z - out.center) == pytest.approx(out.radius, abs=1e-12)

    def test_invert_disk_rejects_origin(self):
        with pytest.raises(ValueError):
            invert_disk(Disk(0.5 + 0j, 1.0))

    def test_containment_predicates(self):
        big = Disk(0j, 1.0)
        assert big.contains(0.5 + 0.5j)
        assert not big.contains(1.2 + 0j)


class TestScheduleValidation:
    def test_ratio_cap(self):
        with pytest.raises(ConfigError):
            SimilaritySchedule(kind="equal", ratio=0.34)

    def test_inner_factor_range(self):
        with pytest.raises(ConfigError):
            SimilaritySchedule(inner_factor=0.0)
        with pytest.raises(ConfigError):
            SimilaritySchedule(inner_factor=0.6)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            SimilaritySchedule(kind="affine")

    def test_grid_symbol_out_of_range(self):
        sched = SimilaritySchedule(kind="equal", ratio=0.2, grid_digit=2)
        with pytest.raises(InvalidWord, match="truncation 3 exceeds the "
                           "schedule's digit limit 2"):
            sched.maps(1, 3)

    def test_custom_missing_symbol(self):
        sched = SimilaritySchedule(kind="custom", table=((1, 1, 0.25, 0.0, 0.0),))
        with pytest.raises(InvalidWord, match="digit limit 1"):
            sched.maps(2, 1)

    GRID = ((1, 1, 0.25, -0.5, -0.5), (1, 2, 0.25, -0.5, 0.5),
            (2, 1, 0.25, 0.5, -0.5), (2, 2, 0.25, 0.5, 0.5))

    @pytest.mark.parametrize("table", [
        GRID + ((1, 1, 0.05, 0.0, 0.0),),  # a symbol listed twice
        GRID[:3] + ((2, 2.5, 0.25, 0.5, 0.5),),  # a fractional digit
        GRID[:3],  # (2, 2) missing
        GRID[:2] + ((1, 3, 0.25, 0.0, 0.0),),  # (1, 3) in place of (2, 1)
        ()])
    def test_custom_table_checked_whole(self, table):
        symbols = sorted(row[:2] for row in table)
        with pytest.raises(ConfigError, match=re.escape(f"once, not {symbols}")):
            SimilaritySchedule(kind="custom", table=table)

    def test_geometric_digits_past_probe_bounded(self):
        # the digits <= 4 stay inside; the images of (6, 6) and beyond reach
        # 0.539 and more from the center
        with pytest.raises(ConfigError, match="with a digit above 4"):
            make_system("similarity", center=-0.1 - 0.1j, radius=0.5)
        make_system("similarity")  # the unit disk holds every image

    def test_custom_float_digits_index_the_table(self):
        # the Python API admits a digit such as 2.0; the config rejects it
        table = tuple((float(m), n, r, x, y) for m, n, r, x, y in self.GRID)
        mod, tr = SimilaritySchedule(kind="custom", table=table).maps(2, 1)
        assert mod == 0.125 and tr == 0.5 - 0.5j

    def test_custom_digit_limit_is_table_side(self):
        assert SimilaritySchedule(kind="custom", table=self.GRID).digit_limit == 2

    def test_two_ratio_dispatch(self):
        sched = SimilaritySchedule(kind="two_ratio", ratio_a=0.125, ratio_b=0.0625)
        mod = sched.maps([1, 2], [2, 1])[0]
        assert mod[0] == 0.125 * sched.inner_factor
        assert mod[1] == 0.0625 * sched.inner_factor

    CUSTOM = tuple((m, n, 0.04 * (m + n), 0.1 * m, -0.1 * n)
                   for m in range(1, 4) for n in range(1, 4))

    @pytest.mark.parametrize("sched", [
        SimilaritySchedule(base=3.0, inner_factor=0.25),
        SimilaritySchedule(kind="equal", ratio=0.2, grid_digit=3),
        SimilaritySchedule(kind="equal", ratio=0.2, grid_digit=1),
        SimilaritySchedule(kind="two_ratio", ratio_a=0.3, ratio_b=0.1,
                           grid_digit=4, inner_factor=0.4),
        SimilaritySchedule(kind="custom", table=CUSTOM)],
        ids=["geometric", "equal", "equal_1", "two_ratio", "custom"])
    def test_tables_match_closed_forms(self, sched):
        """``maps`` gives each kind's closed form, asked for the whole
        alphabet at once or for one symbol."""
        K = sched.digit_limit
        rows = {(m, n): (r, complex(re, im)) for m, n, r, re, im in sched.table}
        for M in ((1, 2, 5) if K == math.inf else range(1, K + 1)):
            symbols = pair_alphabet(M)
            mods, trs = sched.maps(*np.array(symbols).T)
            assert mods.shape == trs.shape == (M * M,)
            for (m, n), mod, tr in zip(symbols, mods, trs):
                one = sched.maps(m, n)
                assert one[0] == mod and one[1] == tr
                if sched.kind == "geometric":
                    ratio = sched.base ** -(m + n)
                    t = complex(0.6 * (1 - 2.0 ** (1 - m)) - 0.3,
                                0.6 * (1 - 2.0 ** (1 - n)) - 0.3)
                elif sched.kind == "custom":  # read at M < K too
                    ratio, t = rows[m, n]
                else:
                    G = sched.grid_digit
                    ratio = (sched.ratio if sched.kind == "equal" else
                             sched.ratio_a if m == 1 else sched.ratio_b)
                    t, step = 0j, 1.0 / max(G - 1, 1)
                    if G > 1:
                        t = complex(-0.5 + (m - 1) * step, -0.5 + (n - 1) * step)
                assert mod == ratio * sched.inner_factor
                assert tr == t
        if K < math.inf:
            with pytest.raises(InvalidWord, match=f"truncation {K + 1} exceeds"):
                sched.maps(K + 1, 1)


class TestMakeSystem:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            make_system("horseshoe")

    def test_schedule_only_for_similarity(self):
        with pytest.raises(ConfigError):
            make_system("inverse_conjugate", schedule=SimilaritySchedule())

    def test_domain_touching_singularity(self):
        with pytest.raises(ConfigError):
            make_system("inverse_conjugate", center=-1 + 1j, radius=0.5)

    def test_nearest_translate_singularity_rejected(self):
        # translate 3 + i puts the singularity at the center
        with pytest.raises(ConfigError):
            make_system("inverse_conjugate", center=-3 + 1j, radius=0.5)

    def test_certificate_covers_fractional_translates(self, conj):
        # the integer translates stay 1.118 from -conj(center) = 1.5, but the
        # translate value 1.55 + i of symbol (1, 1) meets w = -1.55 at
        # distance 1, where |T'| = 1
        assert conj.derivative_mod(-1.55 + 0j, 1.55 + 1j) == 1.0
        with pytest.raises(ConfigError):
            make_system("inverse_conjugate", center=-1.5 + 0j, radius=0.05)

    def test_contraction_follows_the_domain(self):
        # the certified sup follows the domain, but this domain's images of
        # (1, 1), (1, 2) and (2, 2) leave it, so make_system rejects it
        system = systems.FAMILIES["inverse_conjugate"](Disk(0.5 + 0.1j, 0.4))
        sup = system.one_step_sup()
        assert 1.0 / sup == pytest.approx((abs(1.5 + 0.9j) - 0.4) ** 2,
                                          rel=1e-15)
        assert system.contraction == 1.0 / sup
        assert sup == pytest.approx(0.5493, abs=1e-4)
        with pytest.raises(ConfigError,
                           match=r"symbol \(1, 1\) escapes the domain"):
            make_system("inverse_conjugate", center=0.5 + 0.1j, radius=0.4)

    @pytest.mark.parametrize("variant, contraction, match", [
        ("horseshoe", 2.0, "unknown variant"),
        ("inverse_conjugate", 1.0, "must exceed 1"),
        ("inverse_conjugate", 0.5, "must exceed 1"),
    ])
    def test_direct_construction_checks(self, variant, contraction, match):
        # the conjugate family certifies contraction (|1 + center| - r)^2 on a
        # disk centred at height 1, so this disk certifies `contraction`
        domain = Disk(complex(math.sqrt(contraction), 1.0), 1.0)
        with pytest.raises(ConfigError, match=match):
            make_system(variant, center=domain.center, radius=domain.radius)
        if variant in systems.FAMILIES:
            with pytest.raises(ConfigError, match=match):
                systems.FAMILIES[variant](domain)

    def test_constants_are_not_constructor_arguments(self):
        # the certified constants come from the domain: no caller sets them,
        # and a domain that does not contract is refused at construction
        for variant, center in [("inverse_conjugate", -0.2), ("inverse_square", 0.7)]:
            cls = systems.FAMILIES[variant]
            for name in ("contraction", "distortion_bound"):
                with pytest.raises(TypeError, match=name):
                    cls(Disk(0.5 + 0j, 0.5), **{name: 2.0})
            with pytest.raises(ConfigError, match="is not a contraction"):
                cls(Disk(complex(center), 0.5))

    def test_reciprocal_families_on_one_domain_differ(self, conj, square):
        # one domain, but the generated __eq__ compares classes, so the two
        # families stay apart as realized_table and gibbs_markov cache keys
        assert conj.domain == square.domain and conj != square
        assert isinstance(conj, SmaleSystem) and isinstance(square, SmaleSystem)
        assert (realized_table(conj, 2, 2).tobytes()
                != realized_table(square, 2, 2).tobytes())

    def test_escaping_similarity_image(self):
        sched = SimilaritySchedule(kind="custom", table=((1, 1, 0.25, 2.0, 0.0),))
        with pytest.raises(ConfigError):
            make_system("similarity", schedule=sched)

    def test_certified_contraction(self, conj, square):
        assert conj.contraction == pytest.approx(1.697224362268005)
        assert square.contraction > 1.0
        sim = make_system("similarity")
        # geometric schedule: strongest branch has ratio 1/4, inner factor 1/2
        assert sim.contraction == pytest.approx(8.0)


class TestSymbolSup:
    """The oracle's closed-form symbol sups, the bound behind theta = 1."""

    def test_default_domains_keep_the_closed_forms(self, conj, square):
        # derivative_mod is the modulus of a function analytic in w (or in
        # conj(w)), so its sup over the domain sits on the boundary circle:
        # the closed forms bound it at translate m + ni, and the conjugate
        # one is that sup up to the sampling of the circle
        ring = np.exp(2j * np.pi * np.arange(4096) / 4096)
        for system in (conj, square):
            w = system.domain.center + system.domain.radius * ring[:, None]
            for m, n in pair_alphabet(8):
                got = system.derivative_mod(w, m + 1j * n).max()
                want = default_symbol_sup(system.variant, m, n)
                assert got <= want * (1 + 1e-12)
                if system is conj:
                    assert got >= want * (1 - 1e-6)

    @pytest.mark.parametrize("variant, lo, hi", [
        ("inverse_conjugate", 1.0, 1.25), ("inverse_square", 0.5, 0.783)])
    def test_sup_times_modulus_squared_is_bounded(self, variant, lo, hi):
        # sup between lo/|p|^2 and hi/|p|^2 for m, n <= 2000
        n = np.arange(1, 2001)
        for m in range(1, 2001, 250):
            rows = np.arange(m, m + 250)[:, None]
            x = default_symbol_sup(variant, rows, n) * (rows ** 2 + n ** 2)
            assert lo <= x.min() and x.max() <= hi + 1e-12


class TestFiberFormulas:
    def test_conjugate_map_value(self, conj):
        assert conj.map(0j, 2 + 2j) == pytest.approx(0.25 - 0.25j)

    def test_square_map_value(self, square):
        assert square.map(0j, 2 + 2j) == pytest.approx(0.125 - 0.125j)

    def test_similarity_map_value(self):
        sched = SimilaritySchedule(kind="custom", table=((1, 1, 0.25, 0.5, 0.0),))
        sim = make_system("similarity", schedule=sched)
        coeff = sim.coefficients(np.array([1]), np.array([1]))
        assert sim.map(1 + 0j, coeff) == pytest.approx(0.625 + 0j)

    def test_conjugate_derivative_value(self, conj):
        assert conj.derivative_mod(0j, 2 + 2j) == pytest.approx(0.125)

    def test_square_derivative_value(self, square):
        got = square.derivative_mod(0.5 + 0j, 2 + 2j)
        assert got == pytest.approx(1.0 / 34.0625)

    def test_derivative_matches_finite_differences(self, conj, square):
        rng = np.random.default_rng(3)
        h = 1e-7
        for system in (conj, square):
            checked = 0
            while checked < 200:
                u = rng.random() + 1j * rng.random()
                w = system.domain.center + 0.9 * system.domain.radius * (2 * u - (1 + 1j))
                if abs(w - system.domain.center) > 0.9 * system.domain.radius:
                    continue
                theta = rng.random() * 2 * math.pi
                e = complex(math.cos(theta), math.sin(theta))
                fd = abs(system.map(w + h * e, 1.6 + 1.6j)
                         - system.map(w - h * e, 1.6 + 1.6j)) / (2 * h)
                ref = system.derivative_mod(w, 1.6 + 1.6j)
                assert abs(fd - ref) <= 1e-6 * ref
                checked += 1

    @pytest.mark.parametrize("variant", sorted(systems.FAMILIES))
    def test_derivative_mod_gives_one_value_per_point(self, variant):
        # one coefficient, the context of (1, 1) repeated, at a grid of points
        system = make_system(variant)
        ones = np.ones(CONTEXT_DEPTH, dtype=np.int64)
        c = system.coefficients(ones, ones)
        points = system.domain.center + 0.5 * system.domain.radius * np.exp(
            1j * np.arange(12.0)).reshape(3, 4)
        assert system.derivative_mod(points, c).shape == points.shape

    def test_checked_layer_rejects_escapes(self, conj):
        word = ((1, 1),) * 12
        with pytest.raises(DomainEscape):
            fiber_map(conj, word, 2.0 + 0j)
        with pytest.raises(DomainEscape):
            fiber_derivative_mod(conj, word, -1.0 + 0j)

    @pytest.mark.parametrize("variant", ["inverse_conjugate", "similarity"])
    def test_checked_layer_rejects_empty_word(self, variant):
        system = make_system(variant)
        with pytest.raises(InvalidWord):
            fiber_map(system, (), system.domain.center)

    def test_checked_layer_matches_formula(self, conj):
        word = ((2, 3),) * 12
        w = 0.4 + 0.1j
        assert fiber_map(conj, word, w) == conj.map(
            w, pi_tilde(word).mid)


class TestPastSelection:
    def test_constant_past_converges_to_fixed_point(self, conj):
        w, err = pi2_hat(conj, ((1, 1),) * 40, ((1, 1),) * 12)
        p = pi_tilde(((1, 1),) * 12).mid
        z = conj.domain.center
        for _ in range(300):
            z = 1.0 / (np.conj(z) + p)
        assert abs(w - z) <= err + 1e-10
        assert err == pytest.approx(conj.contraction ** -40 * conj.domain.diameter)

    def test_error_bound_decays_geometrically(self, conj):
        forward = ((1, 1),) * 12
        ref, _ = pi2_hat(conj, ((1, 1),) * 40, forward)
        prev = math.inf
        for depth in (5, 10, 20):
            w, err = pi2_hat(conj, ((1, 1),) * depth, forward)
            assert abs(w - ref) <= err
            assert err < prev
            prev = err

    def test_context_slices_two_sided_word(self, conj):
        forward = ((5, 5),) * 12
        w, _ = pi2_hat(conj, ((1, 2), (3, 4)), forward)
        # level 2 acts first on the context from time -2 on; level 1, the
        # most recent symbol, acts last
        inner = fiber_map(conj, ((3, 4), (1, 2)) + forward, conj.domain.center)
        assert w == fiber_map(conj, ((1, 2),) + forward, inner)
        swapped = fiber_map(conj, ((1, 2), (3, 4)) + forward, conj.domain.center)
        assert w != fiber_map(conj, ((3, 4),) + forward, swapped)

    def test_forward_word_required(self, conj):
        with pytest.raises(InvalidWord):
            pi2_hat(conj, ((1, 1),), ())

    @pytest.mark.parametrize("past, forward, depth", [
        (((0, 1),), ((1, 1),) * 12, 12),
        (((1, 1),), ((1, 1), (2, 1.5)), 12),
        (((1, 1),), ((1, 1),) * 12, 0),
    ])
    def test_invalid_words_rejected(self, conj, past, forward, depth):
        with pytest.raises(InvalidWord):
            pi2_hat(conj, past, forward, depth)


class TestImageGeometry:
    def test_depth_one_images_nest_in_domain(self, conj, square):
        for system in (conj, square):
            margin = math.inf
            for sym in pair_alphabet(8):
                for tail in (((1, 1),) * 11, ((8, 8),) * 11):
                    img = image_disk(system, sym, tail)
                    margin = min(margin,
                                 system.domain.radius
                                 - abs(img.center - system.domain.center)
                                 - img.radius)
            assert margin > 0.0

    def test_empty_tail_reads_the_symbol_alone(self, conj):
        # an empty tail is not the default repeated-symbol one: the symbol
        # (1, 1) alone reads 1.5 + 1.5i (tail 0.5), so the image inverts
        # the disk of centre 2 + 1.5i and radius 0.5
        img = image_disk(conj, (1, 1), ())
        assert img.center == pytest.approx(1 / 3 - 0.25j, abs=1e-15)
        assert img.radius == pytest.approx(1 / 12, abs=1e-15)
        assert image_disk(conj, (1, 1)).radius == pytest.approx(0.0729, abs=1e-4)

    def test_similarity_image_exact(self):
        sched = SimilaritySchedule(kind="equal", ratio=0.2, grid_digit=2,
                                   inner_factor=0.5)
        sim = make_system("similarity", schedule=sched)
        img = image_disk(sim, (1, 2))
        assert img.center == pytest.approx(-0.5 + 0.5j)
        assert img.radius == pytest.approx(0.1)

    def test_conjugate_image_contains_sampled_points(self, conj):
        # the enclosure is exact for this family, so images of sampled
        # points under the map of the same coefficient stay inside
        tail = ((2, 1),) * 11
        img = image_disk(conj, (1, 3), tail)
        m, n = np.array(((1, 3),) + tail).T
        c = conj.coefficients(m, n)
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = rng.random() + 1j * rng.random()
            w = conj.domain.center + conj.domain.radius * (2 * u - (1 + 1j))
            if abs(w - conj.domain.center) > conj.domain.radius:
                continue
            assert img.contains(conj.map(w, c), tol=1e-9)


VARIANTS = ["inverse_conjugate", "inverse_square", "similarity"]


class TestOneCoefficientPath:
    """Image disks read ``coefficients``; the exact-midpoint oracle
    stays within the coding error of it."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_image_disk_coefficient_is_the_bulk_one(self, variant, monkeypatch):
        system = make_system(variant)
        seen, image = [], type(system).image

        def spy(self, c):
            seen.append(c)
            return image(self, c)

        monkeypatch.setattr(type(system), "image", spy)
        rng = np.random.default_rng(7)
        for _ in range(20):
            sym = tuple(rng.integers(1, 4, size=2).tolist())
            tail = tuple(map(tuple, rng.integers(1, 9, size=(11, 2)).tolist()))
            image_disk(system, sym, tail)
            m, n = np.array((sym,) + tail).T
            got, want = seen.pop(), system.coefficients(m, n)
            if isinstance(want, tuple):  # similarity: (modulus, translation)
                assert got[0] == want[0] and got[1] == want[1]
            else:
                assert got == want

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_exact_midpoint_within_coding_error(self, variant):
        system = make_system(variant)
        m, n = np.random.default_rng(8).integers(1, 5, size=(2, 400, CONTEXT_DEPTH))
        bulk = system.coefficients(m, n)
        for i in range(len(m)):
            exact = exact_coefficient(system, tuple(zip(m[i], n[i])))
            if system.uses_schedule:  # the first symbol alone
                assert exact == (bulk[0][i], bulk[1][i])
            else:
                assert abs(exact - bulk[i]) <= math.sqrt(2) * 2.0 ** (1 - CONTEXT_DEPTH)

    def test_one_similarity_symbol_reads_per_digit_vectors(self):
        # one symbol whose larger digit is 2000 builds vectors of about 4000
        # entries, not a 2001 x 2001 table (152 MB)
        system = make_system("similarity")
        tracemalloc.start()
        try:
            img = image_disk(system, (1, 2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert img.center == complex(-0.3, 0.6 * (1 - 2.0 ** -1999) - 0.3)


class TestLimitSetSampling:
    def test_points_stay_in_domain(self, conj):
        pts = sample_fiber_limit_set(conj, ((1, 1),), 3, 25, 400, seed=2)
        assert pts.shape == (400,)
        assert np.all(np.abs(pts - conj.domain.center) <= conj.domain.radius + 1e-9)

    def test_equal_schedule_depth_one_cover(self):
        sched = SimilaritySchedule(kind="equal", ratio=0.2, grid_digit=2,
                                   inner_factor=0.5)
        sim = make_system("similarity", schedule=sched)
        pts = sample_fiber_limit_set(sim, ((1, 1),), 2, 25, 500, seed=4)
        covered = np.zeros(len(pts), dtype=bool)
        for sym in pair_alphabet(2):
            img = image_disk(sim, sym)
            covered |= np.abs(pts - img.center) <= img.radius + 1e-9
        assert covered.all()

    def test_seed_determinism(self):
        sched = SimilaritySchedule(kind="equal", ratio=0.2, grid_digit=2,
                                   inner_factor=0.5)
        sim = make_system("similarity", schedule=sched)
        a = sample_fiber_limit_set(sim, ((1, 1),), 2, 25, 500, seed=4)
        b = sample_fiber_limit_set(sim, ((1, 1),), 2, 25, 500, seed=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", ["inverse_conjugate", "similarity"])
    def test_points_match_tiled_forward_word(self, variant):
        # the padded forward word is one broadcast row; the points are
        # those of count explicit copies of it
        system = make_system(variant)
        fwd = ((1, 2), (2, 1), (1, 1))
        pts = sample_fiber_limit_set(system, fwd, 2, 25, 300, seed=6)
        chain = gibbs_markov(constant_potential(0.0, 2), 2, 1)
        past, _ = chain.sample_two_sided(25, 1, 300, 6)
        fwd_m, fwd_n = np.tile(np.array(padded_forward(fwd)).T[:, None],
                               (1, 300, 1))
        assert np.array_equal(
            pts, fiber_points_bulk(system, *chain.digits(past), fwd_m, fwd_n))

    def test_empty_forward_rejected(self, conj):
        with pytest.raises(InvalidWord):
            sample_fiber_limit_set(conj, (), 3, 25, 10, seed=0)

    @pytest.mark.parametrize("variant", ["inverse_conjugate", "similarity"])
    def test_empty_past_gives_domain_center(self, variant):
        system = make_system(variant)
        pts = sample_fiber_limit_set(system, ((1, 1),), 2, 0, 5, seed=0)
        assert np.array_equal(pts, np.full(5, system.domain.center))


class TestVerifyReports:
    def test_conjugate_separation_and_band(self, conj):
        report = verify_system(conj, 5)
        assert report.osc_ok
        # images over distinct first symbols share boundary points exactly
        assert abs(report.min_image_gap) < 1e-12
        assert 0.0 < report.derivative_band[0] < report.derivative_band[1] < 1.0
        # the certified constants of the system, which bound the samples
        assert report.contraction == conj.contraction
        assert report.contraction <= 1.0 / report.derivative_band[1]
        assert report.distortion_bound == conj.distortion_bound

    def test_square_separation_is_strict(self, square):
        report = verify_system(square, 5)
        assert report.osc_ok
        assert report.min_image_gap > 0.0
        assert 0.0 < report.derivative_band[0] < report.derivative_band[1] < 1.0
        # the default domain reaches w = 0, where log|T'| has no Lipschitz
        # constant
        assert report.distortion_bound == math.inf

    def test_single_digit_band_matches_analytic_envelope(self, conj):
        # with one symbol the translate is the golden point, so the one-step
        # derivative range over the domain disk has a closed form
        report = verify_system(conj, 1)
        phi = (1 + math.sqrt(5)) / 2
        c = abs(0.5 + phi * (1 + 1j))
        lo, hi = 1.0 / (c + 0.5) ** 2, 1.0 / (c - 0.5) ** 2
        assert lo <= report.derivative_band[0] <= 1.1 * lo
        assert 0.9 * hi <= report.derivative_band[1] <= hi

    def test_overlapping_similarity_flagged(self):
        table = ((1, 1, 0.3, -0.4, -0.4), (1, 2, 0.3, -0.4, -0.35),
                 (2, 1, 0.3, 0.4, 0.4), (2, 2, 0.3, 0.35, 0.4))
        system = make_system("similarity",
                             schedule=SimilaritySchedule(kind="custom", table=table))
        report = verify_system(system, 2)
        assert not report.osc_ok
        assert report.min_image_gap == pytest.approx(-0.25)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_min_gap_matches_pairwise_image_disks(self, variant):
        # one image call per tail against a loop over pairs of image_disk;
        # the third tail is the first draw of the report's generator
        system, M = make_system(variant), 3
        drawn = np.random.default_rng(5).integers(1, M + 1, size=(11, 2))
        worst = math.inf
        for tail in (((1, 1),) * 11, ((M, M),) * 11, tuple(map(tuple, drawn.tolist()))):
            disks = [image_disk(system, sym, tail) for sym in pair_alphabet(M)]
            for i, a in enumerate(disks):
                for b in disks[i + 1:]:
                    worst = min(worst, abs(a.center - b.center) - a.radius - b.radius)
        got = verify_system(system, M, samples=200, seed=5).min_image_gap
        assert got == pytest.approx(worst, rel=0, abs=1e-15)

    def test_distortion_constant_recorded(self, conj, square):
        assert verify_system(conj, 3).distortion_H_hat > 0.0
        # similarity maps have constant derivative, no log-derivative drift
        sim = make_system("similarity")
        assert verify_system(sim, 3).distortion_H_hat == 0.0


class TestSquareDistortion:
    """The closed-form Lipschitz constant of the square family's log|T'|."""

    OFFSET = {"center": 0.175 - 0.15j, "radius": 0.15}  # |w| in [0.080, 0.380]

    def test_default_domain_has_none(self, square):
        # log|T'| = log 2 + log|w| - 2 log|w^2 + 2c| falls to -inf at w = 0
        assert square.distortion_bound == math.inf

    def test_offset_domain_bounds_samples_and_the_grid(self):
        system = make_system("inverse_square", **self.OFFSET)
        bound = system.distortion_bound
        assert bound == pytest.approx(12.538207328141748, rel=1e-12)
        assert bound >= verify_system(system, 2).distortion_H_hat
        assert bound >= grid_square_distortion(system.domain)

    def test_bounds_log_derivative_differences(self):
        # |log|T'(w)| - log|T'(v)|| <= H |w - v| for point pairs of the
        # domain and translate values c in the unit squares above m + ni
        system = make_system("inverse_square", **self.OFFSET)
        rng = np.random.default_rng(4)
        d = system.domain
        w, v = d.center + d.radius * np.sqrt(rng.random((2, 4000))) * np.exp(
            2j * np.pi * rng.random((2, 4000)))
        c = rng.integers(1, 5, size=(2, 4000)) + rng.random((2, 4000))
        c = c[0] + 1j * c[1]
        log_d = [np.log(system.derivative_mod(p, c)) for p in (w, v)]
        slope = np.abs(log_d[0] - log_d[1]) / np.abs(w - v)
        assert 0.5 * system.distortion_bound < slope.max() <= system.distortion_bound


class TestBulkMatchesScalar:
    """The vectorised paths against the scalar reference ``pi2_hat``."""

    @pytest.fixture(params=["inverse_conjugate", "inverse_square", "similarity"])
    def system(self, request):
        return make_system(request.param)

    def point_tol(self, system):
        # coding error of the translate values, carried through the
        # contracting composition (fiber_points_bulk docstring)
        lam = system.contraction
        return math.sqrt(2) * 2.0 ** (1 - CONTEXT_DEPTH) * lam / (lam - 1)

    def test_vectorised_paths_match_pi2_hat(self, system):
        rng = np.random.default_rng(11)
        M, depth, count = 3, 20, 30
        past_m, past_n = rng.integers(1, M + 1, size=(2, count, depth))
        fwd_m, fwd_n = rng.integers(1, M + 1, size=(2, count, CONTEXT_DEPTH))
        bulk = fiber_points_bulk(system, past_m, past_n, fwd_m, fwd_n)
        for i in range(count):
            ref, _ = pi2_hat(system, tuple(zip(past_m[i], past_n[i])),
                             tuple(zip(fwd_m[i], fwd_n[i])), CONTEXT_DEPTH)
            assert abs(bulk[i] - ref) <= self.point_tol(system)

    @pytest.mark.parametrize("schedule", [
        SimilaritySchedule(), SimilaritySchedule(kind="equal", ratio=0.2),
        SimilaritySchedule(kind="two_ratio")], ids=lambda sched: sched.kind)
    def test_similarity_table_is_the_log_moduli(self, schedule):
        # a similarity map's derivative is its modulus at every point, so the
        # periodic table repeats log modulus of the first symbol over the
        # rest of the word, bit for bit; the reciprocal tables are checked
        # against their closed form in test_thermo.TestExactPeriodicRealization
        system = make_system("similarity", schedule=schedule)
        M, A = 2, 4
        log_moduli = np.log(system.moduli(M))
        for memory in (1, 2, 3):
            want = np.repeat(log_moduli, A ** (memory - 1))
            assert realized_table(system, M, memory).tobytes() == want.tobytes()


def reference_points_bulk(system, past_m, past_n, fwd_m, fwd_n):
    """In-test copy of the per-level composition before blocking: each level
    slices its CONTEXT_DEPTH-symbol context out of the past and forward rows."""
    def context(past, fwd, level):
        rows = past[:, level - 1::-1][:, :CONTEXT_DEPTH]
        if rows.shape[1] < CONTEXT_DEPTH:
            rows = np.concatenate(
                [rows, fwd[:, :CONTEXT_DEPTH - rows.shape[1]]], axis=1)
        return rows

    w = np.full(past_m.shape[0], system.domain.center, dtype=complex)
    for level in range(past_m.shape[1], 0, -1):
        w = system.map(w, system.coefficients(
            context(past_m, fwd_m, level), context(past_n, fwd_n, level)))
    return w


class TestBulkBlocks:
    """Blocked composition against the per-level reference, bit for bit."""

    @pytest.mark.parametrize("variant", ["inverse_conjugate", "inverse_square",
                                         "similarity"])
    @pytest.mark.parametrize("block", [None, 7, 100])
    def test_matches_per_level_reference(self, variant, block, monkeypatch):
        if block is not None:  # many blocks, the last one ragged
            monkeypatch.setattr(systems, "COMPOSITION_BLOCK", block)
        system = make_system(variant)
        rng = np.random.default_rng(3)
        for depth, n_fwd in [(25, 12), (25, 11), (5, 11), (3, 20), (1, 11),
                             (0, 11)]:
            past_m, past_n = rng.integers(1, 4, size=(2, 37, depth))
            fwd_m, fwd_n = rng.integers(1, 4, size=(2, 37, n_fwd))
            got = fiber_points_bulk(system, past_m, past_n, fwd_m, fwd_n)
            ref = reference_points_bulk(system, past_m, past_n, fwd_m, fwd_n)
            assert np.array_equal(got, ref), (depth, n_fwd)

    @pytest.mark.parametrize("variant", ["inverse_conjugate", "inverse_square",
                                         "similarity"])
    @pytest.mark.parametrize("depth", [0, 25])
    def test_short_forward_rows_rejected(self, variant, depth):
        # the level at time -1 reads CONTEXT_DEPTH - 1 forward symbols
        past_m, past_n = np.ones((2, 4, depth), dtype=np.int64)
        fwd_m, fwd_n = np.ones((2, 4, CONTEXT_DEPTH - 2), dtype=np.int64)
        with pytest.raises(InvalidWord, match="reads 11 forward symbols"):
            fiber_points_bulk(make_system(variant), past_m, past_n, fwd_m, fwd_n)

    def test_translate_values_match_formula(self):
        # the float continued fraction and the complex assembly, against
        # the fresh-array formulas they replace
        def cf(digits, tail=0.5):
            x = np.full(digits.shape[:-1], tail)
            for i in range(digits.shape[-1] - 1, -1, -1):
                x = 1.0 / (digits[..., i] + x)
            return x

        m, n = np.random.default_rng(5).integers(1, 40, size=(2, 50, 9, 12))
        assert np.array_equal(words.cf_value_float(m), cf(m))
        ref = (m[..., 0] + cf(m[..., 1:])) + 1j * (n[..., 0] + cf(n[..., 1:]))
        assert np.array_equal(systems.pi_values_bulk(m, n), ref)
