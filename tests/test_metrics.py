import math

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from psimlab import (DEFAULT_SHIFTS, ForwardModelSpec, Image,
                     InterferogramStack, PhaseMap, SsimParams,
                     align_global_offset, rms_error, ssim,
                     stitched_line_profile)
from psimlab.metrics import (Profile, _correlate_valid, foreground_mask,
                             masked_mean_ssim)

TWO_PI = 2.0 * math.pi


def gaussian(size, sigma):
    """Unnormalized 1D Gaussian taps, evenly spaced about the center."""
    half = (size - 1) / 2.0
    x = np.arange(size, dtype=np.float64) - half
    return np.exp(-(x ** 2) / (2.0 * sigma ** 2))


def gaussian_window(size=11, sigma=1.5):
    """Normalized 2D Gaussian window (weights sum to 1)."""
    g = gaussian(size, sigma)
    win = np.outer(g, g)
    return win / win.sum()


def brute_force_ssim(a, b, params):
    """Naive per-window double loop, the independent oracle: an 11-tap
    window of sigma 1.5, K1 = 0.01 and K2 = 0.03 (Wang et al. 2004)."""
    n = 11
    win = gaussian_window(n, 1.5)
    c1 = (0.01 * params.dynamic_range) ** 2
    c2 = (0.03 * params.dynamic_range) ** 2
    rows = a.shape[0] - n + 1
    cols = a.shape[1] - n + 1
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            wa = a[i:i + n, j:j + n]
            wb = b[i:i + n, j:j + n]
            mu_a = (win * wa).sum()
            mu_b = (win * wb).sum()
            var_a = (win * wa * wa).sum() - mu_a ** 2
            var_b = (win * wb * wb).sum() - mu_b ** 2
            cov = (win * wa * wb).sum() - mu_a * mu_b
            out[i, j] = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
                ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
    return out.mean(), out


class TestSsim:
    def test_identical_images(self):
        a = np.random.default_rng(0).uniform(0, 1, (16, 16))
        score, ssim_map = ssim(a, a, SsimParams())
        assert score == 1.0
        assert np.all(ssim_map == 1.0)

    def test_constant_pair(self):
        a = np.full((16, 16), 3.0)
        score, _ = ssim(a, a.copy(), SsimParams())
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        params = SsimParams(dynamic_range=1.0)
        for _ in range(5):
            a = rng.uniform(0, 1, (16, 16))
            b = rng.uniform(0, 1, (16, 16))
            score, ssim_map = ssim(a, b, params)
            oracle_score, oracle_map = brute_force_ssim(a, b, params)
            assert np.max(np.abs(ssim_map - oracle_map)) < 1e-12
            assert abs(score - oracle_score) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(0, 1, (12, 12))
            b = rng.uniform(0, 1, (12, 12))
            sa, _ = ssim(a, b, SsimParams())
            sb, _ = ssim(b, a, SsimParams())
            assert abs(sa - sb) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(16, 16))
            b = rng.normal(size=(16, 16))
            score, _ = ssim(a, b, SsimParams())
            assert -1.0 <= score <= 1.0

    def test_monotone_degradation_with_noise(self):
        rng = np.random.default_rng(3)
        base = np.cumsum(rng.normal(size=(24, 24)), axis=1)
        span = base.max() - base.min()
        params = SsimParams(dynamic_range=span)
        means = []
        for sigma in (0.0, 0.05, 0.1, 0.2):
            scores = [ssim(base, base + rng.normal(0, sigma * span, base.shape),
                           params)[0] for _ in range(20)]
            means.append(np.mean(scores))
        assert all(x >= y for x, y in zip(means, means[1:]))

    def test_window_weights_sum_to_one(self):
        assert gaussian_window(11, 1.5).sum() == pytest.approx(1.0, abs=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((16, 16)), np.zeros((16, 8)), SsimParams())
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)), SsimParams())


class TestRmsError:
    def test_identical(self):
        a = np.random.default_rng(0).normal(size=(8, 8))
        assert rms_error(a, a) == 0.0

    def test_constant_offset(self):
        a = np.zeros((8, 8))
        assert rms_error(a, a + 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_matches_compensated_summation_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(32, 32))
        b = rng.normal(size=(32, 32))
        acc = math.fsum(float(d) ** 2 for d in (a - b).ravel())
        oracle = math.sqrt(acc / a.size)
        assert rms_error(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rms_error(np.zeros((4, 4)), np.zeros((5, 4)))


class TestAlignGlobalOffset:
    def test_identity(self):
        t = PhaseMap(np.random.default_rng(0).normal(size=(8, 8)))
        out = align_global_offset(PhaseMap(t.data.copy()), t)
        assert np.array_equal(out.data, t.data)

    def test_single_branch(self):
        t = PhaseMap(np.random.default_rng(1).normal(size=(8, 8)))
        out = align_global_offset(PhaseMap(t.data + TWO_PI), t)
        assert np.max(np.abs(out.data - t.data)) < 1e-12

    def test_three_branches_plus_residual(self):
        t = PhaseMap(np.random.default_rng(2).normal(size=(8, 8)))
        out = align_global_offset(PhaseMap(t.data + 3 * TWO_PI + 0.1), t)
        assert np.max(np.abs(out.data - (t.data + 0.1))) < 1e-12

    def test_idempotent(self):
        t = PhaseMap(np.random.default_rng(3).normal(size=(8, 8)))
        p = PhaseMap(t.data + 5 * TWO_PI + 0.3)
        once = align_global_offset(p, t)
        twice = align_global_offset(once, t)
        assert np.array_equal(once.data, twice.data)

    def test_wrapped_inputs_rejected(self):
        t = PhaseMap(np.zeros((8, 8)), wrapped=True)
        with pytest.raises(ValueError):
            align_global_offset(t, PhaseMap(np.zeros((8, 8))))


class TestStitchedLineProfile:
    def constant_phase_stack(self, a, b, width=256, height=4):
        phi = np.zeros((height, width))
        frames = [Image(a + b * np.cos(phi + s)) for s in DEFAULT_SHIFTS]
        return InterferogramStack(frames, DEFAULT_SHIFTS, ForwardModelSpec())

    def test_length_and_markers(self):
        profile = stitched_line_profile(self.constant_phase_stack(2, 1), 0)
        assert len(profile.values) == 1280
        assert profile.boundaries == (256, 512, 768, 1024)

    def test_constant_frames(self):
        profile = stitched_line_profile(self.constant_phase_stack(3, 0), 1)
        assert np.all(profile.values == 3.0)

    def test_zero_phase_segment_pattern(self):
        # cos of each shift: A-B, A, A+B, A, A-B
        profile = stitched_line_profile(self.constant_phase_stack(2.0, 0.5), 2)
        segments = np.split(profile.values, 5)
        expected = [1.5, 2.0, 2.5, 2.0, 1.5]
        for seg, val in zip(segments, expected):
            assert seg == pytest.approx(val, abs=1e-12)

    def test_row_out_of_range(self):
        with pytest.raises(ValueError):
            stitched_line_profile(self.constant_phase_stack(2, 1, height=4), 4)

    def test_deconcatenation_round_trip(self):
        rng = np.random.default_rng(5)
        frames = [Image(rng.uniform(0, 1, (6, 32))) for _ in range(5)]
        stack = InterferogramStack(frames, DEFAULT_SHIFTS, ForwardModelSpec())
        profile = stitched_line_profile(stack, 3)
        for k, seg in enumerate(np.split(profile.values, 5)):
            assert np.array_equal(seg, frames[k].data[3])


def test_foreground_mask_and_masked_ssim():
    truth = np.zeros((32, 32))
    truth[8:24, 8:24] = 1.0
    pm = PhaseMap(truth)
    mask = foreground_mask(pm)
    assert mask[16, 16] and not mask[0, 0]
    score = masked_mean_ssim(ssim(truth, truth, SsimParams())[1], mask)
    assert score == 1.0


class TestSsimEdgeCases:
    """Separable SSIM against the brute-force oracle at the crop edges, on
    grids from the window's own side up."""

    # the side of SSIM's window, which is fixed
    @pytest.mark.parametrize("n", [11])
    @pytest.mark.parametrize("extra", [(0, 0), (5, 13), (14, 2), (0, 9)])
    def test_oracle_shape_symmetry_identity(self, n, extra):
        rng = np.random.default_rng(100 * n + extra[0] + extra[1])
        shape = (n + extra[0], n + extra[1])
        a = rng.uniform(0, 1, shape)
        b = np.clip(a + rng.normal(0, 0.2, shape), 0, 1)
        params = SsimParams()
        score, ssim_map = ssim(a, b, params)
        assert ssim_map.shape == (shape[0] - n + 1, shape[1] - n + 1)
        oracle_score, oracle_map = brute_force_ssim(a, b, params)
        assert np.max(np.abs(ssim_map - oracle_map)) < 1e-12
        assert abs(score - oracle_score) < 1e-12
        swapped_score, swapped_map = ssim(b, a, params)
        assert swapped_score == score
        assert np.array_equal(swapped_map, ssim_map)
        self_score, self_map = ssim(a, a, params)
        assert self_score == 1.0
        assert np.all(self_map == 1.0)

    def test_masked_mean_reuses_the_map(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, (20, 30))
        b = rng.uniform(0, 1, (20, 30))
        params = SsimParams()
        _, ssim_map = ssim(a, b, params)
        empty = np.zeros((20, 30), dtype=bool)
        assert masked_mean_ssim(ssim_map, empty) == ssim(a, b, params)[0]


def correlate1d_ssim(a, b, params):
    """SSIM as two ``scipy.ndimage.correlate1d`` passes per statistic,
    cropped to the fully-valid windows, then ``ssim``'s score and map
    formula: the reference its numpy passes must equal bit for bit.  The
    window and constants are Wang et al.'s, as in ``brute_force_ssim``."""
    n = 11
    taps = gaussian(n, 1.5)
    taps /= taps.sum()
    rows, cols = a.shape[0] - n + 1, a.shape[1] - n + 1
    half = n // 2

    def local_mean(x):
        x = correlate1d(x, taps, axis=0)[half:half + rows]
        return correlate1d(x, taps, axis=1)[:, half:half + cols]

    mu_a, mu_b = local_mean(a), local_mean(b)
    var_a = local_mean(a * a) - mu_a ** 2
    var_b = local_mean(b * b) - mu_b ** 2
    cov = local_mean(a * b) - mu_a * mu_b
    c1 = (0.01 * params.dynamic_range) ** 2
    c2 = (0.03 * params.dynamic_range) ** 2
    ssim_map = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / \
        ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
    return float(ssim_map.mean()), ssim_map


SHAPES = [(12, 12), (13, 29), (40, 17)]
SCALES = (1e-2, 1.0, 1e3)


class TestPassesMatchCorrelate1d:
    """The numpy Gaussian passes repeat ``correlate1d``'s loop order, so
    their sums round alike: an odd window's symmetric taps take its
    symmetric branch."""

    @pytest.mark.parametrize("n", [1, 3, 7, 11])
    @pytest.mark.parametrize("sigma", [0.5, 1.5, 4.0])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise_equal(self, n, sigma, shape):
        rng = np.random.default_rng(1000 * n + shape[0] + shape[1])
        taps = gaussian(n, sigma)
        taps /= taps.sum()
        rows, cols = shape[0] - n + 1, shape[1] - n + 1
        half = n // 2
        for scale in SCALES:
            x = rng.normal(0, scale, shape) + scale
            ours = _correlate_valid(x, taps, rows, 0)
            theirs = correlate1d(x, taps, axis=0)[half:half + rows]
            assert ours.tobytes() == theirs.tobytes()
            ours = _correlate_valid(x, taps, cols, 1)
            theirs = correlate1d(x, taps, axis=1)[:, half:half + cols]
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ssim_bitwise_equal(self, shape):
        rng = np.random.default_rng(shape[0] + shape[1])
        for scale in SCALES:
            x = rng.normal(0, scale, shape) + scale
            b = x + rng.normal(0, 0.3 * scale, shape)
            params = SsimParams(dynamic_range=4.0 * scale)
            score, ssim_map = ssim(x, b, params)
            ref_score, ref_map = correlate1d_ssim(x, b, params)
            assert ssim_map.flags.c_contiguous
            assert ssim_map.tobytes() == ref_map.tobytes()
            assert score == ref_score

    def test_phase_pair_at_512(self):
        rng = np.random.default_rng(21)
        yy, xx = np.mgrid[0:512, 0:512] / 512.0
        truth = 12.0 * np.exp(-((xx - 0.4) ** 2 + (yy - 0.6) ** 2) / 0.05)
        pred = truth + rng.normal(0, 0.3, truth.shape)
        params = SsimParams(dynamic_range=float(np.ptp(truth)))
        score, ssim_map = ssim(pred, truth, params)
        ref_score, ref_map = correlate1d_ssim(pred, truth, params)
        assert ssim_map.tobytes() == ref_map.tobytes()
        assert score == ref_score
