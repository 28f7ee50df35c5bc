import math

import numpy as np
import pytest

from psimlab import (ForwardModelSpec, Image, PhaseMap, PhaseObjectSpec,
                     SourceSpec, coherence_envelope, make_phase_object,
                     simulate_frame, simulate_stack, synth_dataset)

LAMBDA0 = SourceSpec().lambda0


def ridge_spec(center=14.0, width=8.0, height=130.0, edge=3.0):
    return PhaseObjectSpec(kind="waveguide_ridge", ridge_center=center,
                           ridge_width=width, ridge_height=height,
                           edge_width=edge)


class TestMakePhaseObject:
    def test_flat_is_all_zero(self):
        pm = make_phase_object(PhaseObjectSpec(kind="flat"), 32, 16,
                               LAMBDA0)
        assert not pm.wrapped
        assert np.all(pm.data == 0.0)

    def test_ridge_plateau_phase(self):
        # 4*pi*130/520 = pi on the plateau
        pm = make_phase_object(ridge_spec(height=130.0), 64, 64, lambda0=520.0)
        assert pm.data[:, 14] == pytest.approx(math.pi, abs=1e-12)
        assert pm.data[:, 40] == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_blob_peak_and_monotonicity(self):
        spec = PhaseObjectSpec(kind="cell_blobs", blobs=[(32, 32, 6.0, 65.0)])
        pm = make_phase_object(spec, 64, 64, lambda0=520.0)
        assert pm.data[32, 32] == pytest.approx(math.pi / 2, abs=1e-12)
        ray = pm.data[32, 32:]
        assert np.all(np.diff(ray) < 0)

    def test_out_of_bounds_geometry_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_phase_object(ridge_spec(center=62.0, width=12.0), 64, 64,
                              LAMBDA0)
        bad = PhaseObjectSpec(kind="cell_blobs", blobs=[(100, 5, 3.0, 10.0)])
        with pytest.raises(ValueError, match="outside"):
            make_phase_object(bad, 64, 64, LAMBDA0)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            make_phase_object(PhaseObjectSpec(kind="flat"), 4, 4, LAMBDA0)


class TestCoherenceEnvelope:
    def test_zero_opd(self):
        assert coherence_envelope(0.0, SourceSpec()) == 1.0

    def test_at_coherence_length(self):
        src = SourceSpec()
        assert coherence_envelope(src.coherence_length, src) == \
            pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_filtered_source_coherence_length(self):
        # (2 ln 2 / pi) * 520^2 / 72, high-precision scalar evaluation
        src = SourceSpec(lambda0=520.0, delta_lambda=72.0)
        expected = (2.0 * math.log(2.0) / math.pi) * 520.0 ** 2 / 72.0
        assert src.coherence_length == pytest.approx(expected, rel=1e-15)
        assert 1000.0 < src.coherence_length < 2000.0

    def test_even_in_opd(self):
        src = SourceSpec()
        dz = np.random.default_rng(7).uniform(-5000, 5000, 1000)
        assert np.array_equal(coherence_envelope(dz, src),
                              coherence_envelope(-dz, src))

    def test_strictly_decreasing_in_magnitude(self):
        src = SourceSpec()
        dz = np.linspace(0, 4000, 200)
        gamma = coherence_envelope(dz, src)
        assert np.all(np.diff(gamma) < 0)


class TestSimulateFrame:
    def zero_phase(self, n=16):
        return PhaseMap(np.zeros((n, n)))

    def narrowband_model(self, **kw):
        # delta_lambda ~ 0 makes the envelope = 1 to double precision
        return ForwardModelSpec(source=SourceSpec(delta_lambda=1e-8), **kw)

    def test_fully_constructive(self):
        frame = simulate_frame(self.zero_phase(), 0.0, self.narrowband_model())
        assert frame.data == pytest.approx(4.0, abs=1e-12)

    def test_fully_destructive(self):
        frame = simulate_frame(self.zero_phase(), math.pi,
                               self.narrowband_model())
        assert frame.data == pytest.approx(0.0, abs=1e-12)

    def test_scalar_interference_formula(self):
        # I = 1.25 + 0.9 * cos(pi/3 + pi/2) = 1.25 + 0.9 cos(5pi/6)
        # gamma = 0.9 is pinned by choosing delta_lambda from the implied OPD
        phi = math.pi / 3
        pm = PhaseMap(np.full((8, 8), phi))
        opd = 520.0 * phi / (2.0 * math.pi)
        lc = opd / math.sqrt(-math.log(0.9))
        delta_lambda = (2.0 * math.log(2.0) / math.pi) * 520.0 ** 2 / lc
        model = ForwardModelSpec(
            source=SourceSpec(lambda0=520.0, delta_lambda=delta_lambda),
            i_object=1.0, i_reference=0.25)
        frame = simulate_frame(pm, math.pi / 2, model)
        expected = 1.25 + 0.9 * math.cos(5.0 * math.pi / 6.0)
        assert frame.data == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.470577, abs=5e-7)

    def test_noise_field_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            simulate_frame(self.zero_phase(16), 0.0, ForwardModelSpec(),
                           noise_field=Image(np.zeros((8, 8))))

    def test_wrapped_input_rejected(self):
        pm = PhaseMap(np.zeros((8, 8)), wrapped=True)
        with pytest.raises(ValueError, match="unwrapped"):
            simulate_frame(pm, 0.0, ForwardModelSpec())

    def test_intensity_nonnegative_without_noise(self):
        rng = np.random.default_rng(3)
        pm = PhaseMap(rng.uniform(0, 2 * math.pi, (32, 32)))
        model = ForwardModelSpec(i_object=1.0, i_reference=0.3)
        for shift in (-math.pi, 0.0, 1.2):
            assert np.all(simulate_frame(pm, shift, model).data >= 0.0)

    def test_shift_equivariance(self):
        # phase and shift enter the cosine only as a sum; tested with a
        # narrowband source so the phase-implied OPD change is negligible
        rng = np.random.default_rng(5)
        pm = PhaseMap(rng.uniform(0, math.pi, (16, 16)))
        model = self.narrowband_model()
        delta = 0.7
        a = simulate_frame(pm, delta, model)
        b = simulate_frame(PhaseMap(pm.data + delta), 0.0, model)
        assert np.max(np.abs(a.data - b.data)) < 1e-12


class TestSimulateStack:
    def test_degenerate_noise_keeps_nominal_shifts(self):
        pm = make_phase_object(ridge_spec(), 64, 64, LAMBDA0)
        model = ForwardModelSpec()
        stack = simulate_stack(pm, model, seed=11)
        assert stack.realized_shifts == model.shift_schedule

    def test_same_seed_identical(self):
        pm = make_phase_object(ridge_spec(), 32, 32, LAMBDA0)
        model = ForwardModelSpec(jitter_sigma=0.05, noise_sigma=0.01)
        a = simulate_stack(pm, model, seed=42)
        b = simulate_stack(pm, model, seed=42)
        assert a.realized_shifts == b.realized_shifts
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.data, fb.data)

    def test_jitter_matches_reference_rng_stream(self):
        # oracle: independent run of the documented PCG64 stream
        pm = make_phase_object(ridge_spec(), 32, 32, LAMBDA0)
        model = ForwardModelSpec(jitter_sigma=0.05)
        stack = simulate_stack(pm, model, seed=123)
        oracle = np.random.default_rng(123).normal(0.0, 0.05, 5)
        expected = tuple(s + e for s, e in zip(model.shift_schedule, oracle))
        assert stack.realized_shifts == expected

    def test_noiseless_frames_are_analytic(self):
        pm = make_phase_object(ridge_spec(), 32, 32, LAMBDA0)
        model = ForwardModelSpec()
        stack = simulate_stack(pm, model, seed=0)
        for frame, shift in zip(stack.frames, model.shift_schedule):
            direct = simulate_frame(pm, shift, model)
            assert np.array_equal(frame.data, direct.data)


class TestSynthDataset:
    def test_large_dataset_frame_totals(self):
        model = ForwardModelSpec()
        data = synth_dataset(312, 16, 16, "cell_blobs", model, seed=1)
        assert len(data) == 312
        assert sum(len(stack.frames) for stack, _ in data) == 1560
        data = synth_dataset(240, 16, 16, "cell_blobs", model, seed=1)
        assert sum(len(stack.frames) for stack, _ in data) == 1200

    def test_determinism(self):
        model = ForwardModelSpec(noise_sigma=0.01)
        a = synth_dataset(1, 32, 32, "waveguide_ridge", model, seed=9)
        b = synth_dataset(1, 32, 32, "waveguide_ridge", model, seed=9)
        assert np.array_equal(a[0][1].data, b[0][1].data)
        for fa, fb in zip(a[0][0].frames, b[0][0].frames):
            assert np.array_equal(fa.data, fb.data)

    def test_samples_differ(self):
        model = ForwardModelSpec()
        data = synth_dataset(3, 32, 32, "cell_blobs", model, seed=2)
        assert not np.array_equal(data[0][1].data, data[1][1].data)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            synth_dataset(0, 16, 16, "flat", ForwardModelSpec(), seed=0)

    @pytest.mark.parametrize("side", [*range(8, 24), 32, 64])
    @pytest.mark.parametrize("family", ["cell_blobs", "waveguide_ridge"])
    def test_every_seed_draws_an_object_that_fits(self, family, side):
        # the draws scale with the side: below 13 px a blob radius can
        # fall under 1 px, below 20 px a ridge and its edges can outgrow
        # the image
        for seed in range(40):
            (stack, truth), = synth_dataset(1, side, side, family,
                                            ForwardModelSpec(), seed=seed)
            assert truth.shape == stack.shape == (side, side)


class TestSpecValidation:
    def test_shift_schedule_length(self):
        with pytest.raises(ValueError, match=r"shift_schedule = \(0\.0, "
                           r"1\.0, 2\.0\) is not of type Tuple\[float, "
                           r"float, float, float, float\]"):
            ForwardModelSpec(shift_schedule=(0.0, 1.0, 2.0))

    def test_positive_intensities(self):
        with pytest.raises(ValueError):
            ForwardModelSpec(i_object=0.0)

    def test_source_positivity(self):
        with pytest.raises(ValueError):
            SourceSpec(lambda0=-1.0)
