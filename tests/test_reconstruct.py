import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from psimlab import (DEFAULT_SHIFTS, ForwardModelSpec, Image,
                     InterferogramStack, PhaseMap, PhaseObjectSpec, SourceSpec,
                     align_global_offset, five_step_wrapped_phase,
                     make_phase_object, modulation_amplitude, phase_to_height,
                     simulate_stack, unwrap_phase)
from psimlab import reconstruct
from psimlab.reconstruct import QualityMap

from helpers import TWO_PI, wrap_to_pi

LAMBDA0 = SourceSpec().lambda0


def cosine_stack(a, b, phi, shifts=DEFAULT_SHIFTS, shape=(8, 8)):
    """Frames I_k = a + b cos(phi + delta_k) on a constant-phase field."""
    phi = np.broadcast_to(np.asarray(phi, dtype=np.float64), shape)
    frames = [Image(a + b * np.cos(phi + s)) for s in shifts]
    return InterferogramStack(frames, shifts, ForwardModelSpec(), seed=None)


def smooth_surface(shape, amplitude, seed, max_grad=2.8):
    """Band-limited random surface, rescaled so adjacent-pixel steps stay
    below ``max_grad`` (< pi, keeping unwrapping path independent)."""
    rng = np.random.default_rng(seed)
    rows = np.linspace(0, 1, shape[0])[:, None]
    cols = np.linspace(0, 1, shape[1])[None, :]
    surf = np.zeros(shape)
    for _ in range(4):
        fr, fc = rng.uniform(-2, 2, 2)
        ph = rng.uniform(0, TWO_PI)
        surf += np.cos(TWO_PI * (fr * rows + fc * cols) + ph)
    surf *= amplitude / max(np.abs(surf).max(), 1e-9)
    gmax = max(np.abs(np.diff(surf, axis=0)).max(),
               np.abs(np.diff(surf, axis=1)).max())
    if gmax > max_grad:
        surf *= max_grad / gmax
    return surf


class TestFiveStepWrappedPhase:
    def test_scalar_construction_pi_over_3(self):
        # I = (1.5, 2.8660, 2.5, 1.1340, 1.5); atan2(3.4641, 2.0) = pi/3
        stack = cosine_stack(2.0, 1.0, math.pi / 3)
        i = [f.data[0, 0] for f in stack.frames]
        assert i == pytest.approx([1.5, 2.8660, 2.5, 1.1340, 1.5], abs=1e-4)
        phase = five_step_wrapped_phase(stack)
        assert phase.wrapped
        assert phase.data == pytest.approx(math.pi / 3, abs=1e-12)

    def test_zero_phase(self):
        phase = five_step_wrapped_phase(cosine_stack(2.0, 1.0, 0.0))
        assert phase.data == pytest.approx(0.0, abs=1e-12)

    def test_pi_branch_choice(self):
        # numerator 0, denominator -4B < 0 -> phi = +pi, not -pi
        phase = five_step_wrapped_phase(cosine_stack(2.0, 1.0, math.pi))
        assert phase.data == pytest.approx(math.pi, abs=1e-12)

    def test_degenerate_pixels_get_zero(self):
        phase = five_step_wrapped_phase(cosine_stack(3.0, 0.0, 1.0))
        assert np.all(phase.data == 0.0)

    def test_frame_count_enforced(self):
        stack = cosine_stack(2.0, 1.0, 0.0)
        stack.frames = stack.frames[:4]
        with pytest.raises(ValueError):
            five_step_wrapped_phase(stack)

    def test_round_trip_against_simulator(self):
        spec = PhaseObjectSpec(kind="cell_blobs", blobs=[(20, 40, 8.0, 90.0)])
        truth = make_phase_object(spec, 64, 48, LAMBDA0)
        stack = simulate_stack(truth, ForwardModelSpec(), seed=0)
        phase = five_step_wrapped_phase(stack)
        assert np.max(np.abs(phase.data - wrap_to_pi(truth.data))) < 1e-10

    def test_affine_intensity_invariance(self):
        stack = cosine_stack(2.0, 1.0, smooth_surface((16, 16), 2.5, 1),
                             shape=(16, 16))
        ref = five_step_wrapped_phase(stack).data
        scaled = InterferogramStack(
            [Image(3.7 * f.data + 11.0) for f in stack.frames],
            stack.realized_shifts, stack.model)
        assert np.max(np.abs(five_step_wrapped_phase(scaled).data - ref)) \
            < 1e-12

    def test_tangent_ratio_matches_published_form(self):
        rng = np.random.default_rng(8)
        stack = cosine_stack(2.0, 1.0, rng.uniform(-3, 3, (32, 32)),
                             shape=(32, 32))
        i1, i2, i3, i4, i5 = [f.data for f in stack.frames]
        phase = five_step_wrapped_phase(stack).data
        den = i1 - 2 * i3 + i5
        ok = np.abs(den) > 1e-9
        ratio = 2.0 * (i4 - i2)[ok] / den[ok]
        assert np.max(np.abs(np.tan(phase[ok]) - ratio)) < 1e-9


class TestModulationAmplitude:
    def test_scalar_example(self):
        q = modulation_amplitude(cosine_stack(2.0, 1.0, math.pi / 3))
        assert q.data == pytest.approx(1.0, abs=1e-12)

    def test_no_fringes(self):
        q = modulation_amplitude(cosine_stack(3.0, 0.0, 0.5))
        assert np.all(q.data == 0.0)

    def test_independent_of_phase(self):
        phi_a = smooth_surface((16, 16), 2.0, 2)
        phi_b = smooth_surface((16, 16), 2.0, 3)
        qa = modulation_amplitude(cosine_stack(2.0, 0.7, phi_a, shape=(16, 16)))
        qb = modulation_amplitude(cosine_stack(2.0, 0.7, phi_b, shape=(16, 16)))
        assert np.max(np.abs(qa.data - qb.data)) < 1e-12

    def test_equals_fringe_envelope_for_simulated_stack(self):
        spec = PhaseObjectSpec(kind="cell_blobs", blobs=[(16, 16, 5.0, 60.0)])
        truth = make_phase_object(spec, 32, 32, LAMBDA0)
        model = ForwardModelSpec(i_object=1.0, i_reference=0.25)
        stack = simulate_stack(truth, model, seed=0)
        from psimlab.simulate import coherence_envelope, phase_to_opd
        gamma = coherence_envelope(phase_to_opd(truth.data, 520.0),
                                   model.source)
        expected = 2.0 * math.sqrt(0.25) * gamma
        assert np.max(np.abs(modulation_amplitude(stack).data - expected)) \
            < 1e-12


class TestUnwrapPhase:
    def quality_ones(self, shape):
        return QualityMap(np.ones(shape))

    def test_no_wraps_identity(self):
        surf = smooth_surface((16, 16), 2.0, 4)  # inside (-pi, pi)
        wrapped = PhaseMap(wrap_to_pi(surf), wrapped=True)
        out = unwrap_phase(wrapped, self.quality_ones((16, 16)))
        assert not out.wrapped
        assert np.max(np.abs(out.data - wrapped.data)) < 1e-12

    def test_horizontal_ramp_vs_itoh_oracle(self):
        ramp = np.tile(np.linspace(0, 4 * math.pi, 64), (8, 1))
        wrapped = PhaseMap(wrap_to_pi(ramp), wrapped=True)
        out = unwrap_phase(wrapped, self.quality_ones((8, 64)))
        # oracle: 1D cumulative wrapped-difference integration per row
        d = np.diff(wrapped.data, axis=1)
        d -= TWO_PI * np.round(d / TWO_PI)
        oracle = np.concatenate(
            [wrapped.data[:, :1], wrapped.data[:, :1] + np.cumsum(d, axis=1)],
            axis=1)
        shift = np.median(out.data - ramp)
        assert np.max(np.abs(out.data - shift - ramp)) < 1e-9
        assert np.max(np.abs(out.data - (oracle + np.median(out.data - oracle)))) < 1e-9

    def test_matches_bfs_oracle_on_8x8(self):
        surf = smooth_surface((8, 8), 4.5, 6)
        wrapped = PhaseMap(wrap_to_pi(surf), wrapped=True)
        quality = QualityMap(np.random.default_rng(1).uniform(0.1, 1, (8, 8)))
        out = unwrap_phase(wrapped, quality)
        # oracle: plain FIFO region growing from the same seed pixel
        seed = np.unravel_index(np.argmax(quality.data), (8, 8))
        oracle = np.full((8, 8), np.nan)
        oracle[seed] = wrapped.data[seed]
        queue = [seed]
        while queue:
            r, c = queue.pop(0)
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= nr < 8 and 0 <= nc < 8 and np.isnan(oracle[nr, nc]):
                    d = wrapped.data[nr, nc] - wrapped.data[r, c]
                    d -= TWO_PI * np.round(d / TWO_PI)
                    oracle[nr, nc] = oracle[r, c] + d
                    queue.append((nr, nc))
        diff = out.data - oracle
        assert np.all(np.round(diff / TWO_PI) == 0)
        assert np.max(np.abs(diff)) < 1e-9

    def test_congruence_mod_2pi(self):
        surf = smooth_surface((24, 24), 7.0, 7)
        wrapped = PhaseMap(wrap_to_pi(surf), wrapped=True)
        out = unwrap_phase(wrapped, self.quality_ones((24, 24)))
        resid = out.data - wrapped.data
        assert np.max(np.abs(resid - TWO_PI * np.round(resid / TWO_PI))) \
            < 1e-12

    def test_zero_quality_warns_and_proceeds(self):
        surf = smooth_surface((12, 12), 5.0, 8)
        wrapped = PhaseMap(wrap_to_pi(surf), wrapped=True)
        with pytest.warns(UserWarning, match="raster"):
            out = unwrap_phase(wrapped, QualityMap(np.zeros((12, 12))))
        shift = np.median(out.data - surf)
        assert np.max(np.abs(out.data - shift - surf)) < 1e-9

    def test_unwrapped_input_rejected(self):
        with pytest.raises(ValueError):
            unwrap_phase(PhaseMap(np.zeros((8, 8)), wrapped=False),
                         self.quality_ones((8, 8)))

    def test_path_independence_on_smooth_fields(self):
        surf = smooth_surface((20, 20), 8.0, 9)
        wrapped = PhaseMap(wrap_to_pi(surf), wrapped=True)
        quality = QualityMap(np.random.default_rng(2).uniform(0.5, 1, (20, 20)))
        a = unwrap_phase(wrapped, quality)
        with pytest.warns(UserWarning):
            b = unwrap_phase(wrapped, QualityMap(np.zeros((20, 20))))
        diff = a.data - b.data
        assert np.max(np.abs(diff - np.median(diff))) < 1e-9


class TestPhaseToHeight:
    def test_zero(self):
        hm = phase_to_height(PhaseMap(np.zeros((8, 8))), 520.0)
        assert np.all(hm.data == 0.0)

    def test_pi_gives_quarter_wavelength(self):
        hm = phase_to_height(PhaseMap(np.full((8, 8), math.pi)), 520.0)
        assert hm.data == pytest.approx(130.0, abs=1e-12)

    def test_two_fringes(self):
        hm = phase_to_height(PhaseMap(np.full((8, 8), 4 * math.pi)), 520.0)
        assert hm.data == pytest.approx(520.0, abs=1e-12)

    def test_wrapped_rejected(self):
        with pytest.raises(ValueError):
            phase_to_height(PhaseMap(np.zeros((8, 8)), wrapped=True), 520.0)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        p1 = rng.normal(size=(8, 8))
        p2 = rng.normal(size=(8, 8))
        h12 = phase_to_height(PhaseMap(p1 + p2), 520.0).data
        h1 = phase_to_height(PhaseMap(p1), 520.0).data
        h2 = phase_to_height(PhaseMap(p2), 520.0).data
        assert np.max(np.abs(h12 - h1 - h2)) < 1e-12


def test_full_round_trip_alignment():
    spec = PhaseObjectSpec(kind="waveguide_ridge", ridge_center=40.0,
                           ridge_width=20.0, ridge_height=200.0, edge_width=6.0)
    truth = make_phase_object(spec, 96, 64, LAMBDA0)
    assert truth.data.max() > math.pi  # forces real wraps
    stack = simulate_stack(truth, ForwardModelSpec(), seed=0)
    wrapped = five_step_wrapped_phase(stack)
    quality = modulation_amplitude(stack)
    unwrapped = unwrap_phase(wrapped, quality)
    aligned = align_global_offset(unwrapped, truth)
    assert np.max(np.abs(aligned.data - truth.data)) < 1e-9


def heap_unwrap_oracle(wrapped, quality):
    """The tuple-keyed heap flood fill that ``unwrap_phase`` replaced (its
    loop unchanged; input checks and the all-zero path left out), kept as
    the reference its output must equal bit for bit."""
    q = quality.data
    w = wrapped.data
    rows, cols = w.shape
    seed_flat = int(np.argmax(q))  # argmax breaks ties row-major
    sr, sc = divmod(seed_flat, cols)
    out = np.empty_like(w)
    solved = np.zeros(w.shape, dtype=bool)
    queued = np.zeros(w.shape, dtype=bool)
    out[sr, sc] = w[sr, sc]
    solved[sr, sc] = True
    frontier = []

    def push_neighbors(r, c):
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < rows and 0 <= nc < cols and not solved[nr, nc] \
                    and not queued[nr, nc]:
                queued[nr, nc] = True
                heapq.heappush(frontier, (-q[nr, nc], nr * cols + nc))

    push_neighbors(sr, sc)
    while frontier:
        _, flat = heapq.heappop(frontier)
        r, c = divmod(flat, cols)
        if solved[r, c]:
            continue
        best_q = -1.0
        ref = None
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < rows and 0 <= nc < cols and solved[nr, nc]:
                if q[nr, nc] > best_q:
                    best_q = q[nr, nc]
                    ref = (nr, nc)
        d = w[r, c] - w[ref]
        d -= TWO_PI * np.round(d / TWO_PI)
        out[r, c] = out[ref] + d
        solved[r, c] = True
        push_neighbors(r, c)
    return out, (sr, sc)


def assert_matches_heap_oracle(wrapped, quality):
    out = unwrap_phase(wrapped, quality)
    expected, seed = heap_unwrap_oracle(wrapped, quality)
    assert np.array_equal(out.data, expected)
    assert out.data.tobytes() == expected.tobytes()  # signed zeros too
    assert out.meta["seed_pixel"] == seed


_shapes = st.tuples(st.integers(1, 20), st.integers(1, 20))
# exact multiples of pi / 2 put wrapped differences on the +-pi rounding
# boundary, and signed zeros test the sign of every zero difference
_phase_values = st.one_of(
    st.sampled_from([math.pi, math.pi / 2, 0.0, -0.0, -math.pi / 2]),
    st.floats(-math.pi, math.pi, exclude_min=True))
# few distinct levels and many zeros, so most pops break a quality tie
_quality_values = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]),
                            st.floats(0.0, 4.0))


class TestUnwrapMatchesHeapOracle:
    @settings(max_examples=300, deadline=None)
    @given(shape=_shapes, data=st.data())
    def test_random_maps(self, shape, data):
        w = data.draw(hnp.arrays(np.float64, shape, elements=_phase_values))
        q = data.draw(hnp.arrays(np.float64, shape, elements=_quality_values))
        assume(np.any(q > 0))
        assert_matches_heap_oracle(PhaseMap(w, wrapped=True), QualityMap(q))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2)])
    def test_thin_and_tiny_grids(self, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        w = wrap_to_pi(rng.uniform(-8, 8, shape))
        q = rng.choice([0.0, 0.5, 1.0], shape)
        q.flat[-1] = 1.0
        assert_matches_heap_oracle(PhaseMap(w, wrapped=True), QualityMap(q))

    @pytest.mark.parametrize("side", [64, 128])
    @pytest.mark.parametrize("noise", [0.0, 1.5])
    def test_simulated_stacks(self, side, noise):
        spec = PhaseObjectSpec(kind="waveguide_ridge", ridge_center=side / 2,
                               ridge_width=side / 3, ridge_height=200.0,
                               edge_width=6.0)
        truth = make_phase_object(spec, side, side, LAMBDA0)
        stack = simulate_stack(truth, ForwardModelSpec(noise_sigma=noise),
                               seed=side)
        assert_matches_heap_oracle(five_step_wrapped_phase(stack),
                                   modulation_amplitude(stack))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (12, 9)])
    def test_all_zero_quality_warns_and_fills_from_the_origin(self, shape):
        rng = np.random.default_rng(shape[0] * 17 + shape[1])
        wrapped = PhaseMap(wrap_to_pi(rng.uniform(-8, 8, shape)), wrapped=True)
        quality = QualityMap(np.zeros(shape))
        with pytest.warns(UserWarning, match="raster"):
            out = unwrap_phase(wrapped, quality)
        expected, _ = heap_unwrap_oracle(wrapped, quality)
        assert out.data.tobytes() == expected.tobytes()
        assert out.meta["seed_pixel"] == (0, 0)

    def test_plateau_quality(self):
        # two quality levels in blocks: whole plateaus tie at every pop
        rng = np.random.default_rng(3)
        q = np.kron(rng.integers(1, 3, (6, 6)), np.ones((5, 5))).astype(float)
        w = wrap_to_pi(rng.uniform(-8, 8, q.shape))
        assert_matches_heap_oracle(PhaseMap(w, wrapped=True), QualityMap(q))

    def test_signed_zeros_and_half_turn_steps(self):
        # neighbors differ by exactly +-pi (np.round(+-0.5) == 0) or by a
        # signed zero; the seed holds -0.0
        h = math.pi / 2
        w = np.array([[-0.0, math.pi, 0.0, -h],
                      [h, -0.0, -h, math.pi],
                      [0.0, math.pi, -0.0, h]])
        q = np.array([[2.0, 1.0, 1.0, 0.0],
                      [1.0, 1.0, 0.0, 1.0],
                      [0.5, 0.0, 1.0, 1.0]])
        assert_matches_heap_oracle(PhaseMap(w, wrapped=True), QualityMap(q))

    def test_signed_zero_quality_ties(self):
        # -0.0 and 0.0 tie, so among solved neighbors of equal quality the
        # first of up, down, left, right must stay the reference
        rng = np.random.default_rng(12)
        q = rng.choice([-0.0, 0.0, 0.0, 0.5], (9, 11))
        q[4, 5] = 1.0
        w = wrap_to_pi(rng.uniform(-8, 8, q.shape))
        assert_matches_heap_oracle(PhaseMap(w, wrapped=True), QualityMap(q))

    def test_spiral_quality(self):
        # quality falls along a square spiral corridor between low walls, so
        # the fill follows the corridor and each reference chain is as long
        # as the path behind it
        n = 21
        rng = np.random.default_rng(13)
        q = rng.uniform(0.0, 0.1, (n, n))
        r = c = n // 2
        path = [(r, c)]
        moves = ((0, 1), (1, 0), (0, -1), (-1, 0))
        leg = 0
        while 0 <= r < n and 0 <= c < n:
            dr, dc = moves[leg % 4]
            for _ in range(2 * (leg // 2 + 1)):
                r, c = r + dr, c + dc
                if 0 <= r < n and 0 <= c < n:
                    path.append((r, c))
            leg += 1
        for k, (r, c) in enumerate(path):
            q[r, c] = 2.0 + len(path) - k
        w = wrap_to_pi(rng.uniform(-8, 8, q.shape))
        assert_matches_heap_oracle(PhaseMap(w, wrapped=True), QualityMap(q))


class TestSliceEdges:
    """Passes 2 and 3 of ``unwrap_phase`` with slices so short that nearly
    every reference lies in an earlier slice."""

    @pytest.mark.parametrize("slice_", [1, 7, 64])
    @settings(max_examples=50, deadline=None)
    @given(shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
           data=st.data())
    def test_random_maps(self, slice_, shape, data):
        w = data.draw(hnp.arrays(np.float64, shape, elements=_phase_values))
        q = data.draw(hnp.arrays(np.float64, shape, elements=_quality_values))
        assume(np.any(q > 0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reconstruct, "_SLICE", slice_)
            assert_matches_heap_oracle(PhaseMap(w, wrapped=True),
                                       QualityMap(q))

    @pytest.mark.parametrize("slice_", [1, 7, 64])
    def test_plateau_quality(self, monkeypatch, slice_):
        monkeypatch.setattr(reconstruct, "_SLICE", slice_)
        rng = np.random.default_rng(slice_)
        q = np.kron(rng.integers(1, 3, (8, 8)), np.ones((5, 5))).astype(float)
        w = wrap_to_pi(rng.uniform(-8, 8, q.shape))
        assert_matches_heap_oracle(PhaseMap(w, wrapped=True), QualityMap(q))


def test_unwrap_memory_is_bounded():
    # the per-pixel tables of all three passes are flat typed arrays, and
    # pass 2 scans a slice of pops at a time: a Python int or float per
    # pixel, or a full-size scan temporary, is what would break the bounds
    # (pass 1's two rank lists took 512^2 to 23.5 MB)
    for side, bound in ((256, 11e6), (512, 16e6)):
        rng = np.random.default_rng(14)
        wrapped = PhaseMap(wrap_to_pi(rng.uniform(-8, 8, (side, side))),
                           wrapped=True)
        quality = QualityMap(rng.uniform(0.0, 1.0, (side, side)))
        tracemalloc.start()
        try:
            unwrap_phase(wrapped, quality)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, side


def assert_pops_like_one_heap(q):
    assert reconstruct._pop_order(q, q.shape[1] + 2).tolist() \
        == heapq_pop_order(q)


def heapq_pop_order(q):
    """The padded cells (stride = columns + 2) in the order one plain heap
    of (-quality, row-major index) keys pops them, the seed first."""
    rows, cols = q.shape
    stride = cols + 2
    key = [(-v, f) for f, v in enumerate(q.ravel().tolist())]
    seed = min(range(q.size), key=key.__getitem__)
    queued = {seed}
    frontier = [key[seed]]
    order = []
    while frontier:
        _, f = heapq.heappop(frontier)
        r, c = divmod(f, cols)
        order.append((r + 1) * stride + c + 1)
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            n = nr * cols + nc
            if 0 <= nr < rows and 0 <= nc < cols and n not in queued:
                queued.add(n)
                heapq.heappush(frontier, key[n])
    return order


def walled_basin(side, seed):
    """A best-quality corner outside a one-pixel wall of the lowest quality,
    with one gate into a noisy basin; the fill floods the corner region,
    then the whole basin waits behind the gate."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 1.0, (side, side))  # the basin
    k = side // 4
    q[:k, :] = rng.uniform(1.0, 2.0, (k, side))
    q[:, :k] = rng.uniform(1.0, 2.0, (side, k))
    q[0, 0] = 3.0
    q[k, k:] = 0.0
    q[k:, k] = 0.0
    q[k, side // 2] = 0.05  # the gate
    w = wrap_to_pi(rng.uniform(-8, 8, q.shape))
    return PhaseMap(w, wrapped=True), QualityMap(q)


class TestPopOrderBlockEdges:
    """The block queue of ``_pop_order`` with blocks so short that queued
    ranks cross a block edge at nearly every push."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @settings(max_examples=150, deadline=None)
    @given(shape=_shapes, data=st.data())
    def test_random_maps(self, block, shape, data):
        w = data.draw(hnp.arrays(np.float64, shape, elements=_phase_values))
        q = data.draw(hnp.arrays(np.float64, shape, elements=_quality_values))
        assume(np.any(q > 0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reconstruct, "_BLOCK", block)
            assert_matches_heap_oracle(PhaseMap(w, wrapped=True),
                                       QualityMap(q))
            assert_pops_like_one_heap(q)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("side", [64, 128])
    @pytest.mark.parametrize("noise", [0.0, 1.5])
    def test_simulated_stacks(self, monkeypatch, block, side, noise):
        monkeypatch.setattr(reconstruct, "_BLOCK", block)
        spec = PhaseObjectSpec(kind="waveguide_ridge", ridge_center=side / 2,
                               ridge_width=side / 3, ridge_height=200.0,
                               edge_width=6.0)
        truth = make_phase_object(spec, side, side, LAMBDA0)
        stack = simulate_stack(truth, ForwardModelSpec(noise_sigma=noise),
                               seed=side)
        quality = modulation_amplitude(stack)
        assert_matches_heap_oracle(five_step_wrapped_phase(stack), quality)
        assert_pops_like_one_heap(quality.data)

    @pytest.mark.parametrize("block", [1, 3, 7, 256])
    def test_walled_basin(self, monkeypatch, block):
        monkeypatch.setattr(reconstruct, "_BLOCK", block)
        wrapped, quality = walled_basin(48, 15)
        assert_matches_heap_oracle(wrapped, quality)
        assert_pops_like_one_heap(quality.data)


class TestRankTies:
    """Ranks come from the default sort unless two sorted qualities compare
    equal.  Each map here has one tie that the row-major order must break
    and that decides the output; in these draws the default sort of numpy
    on x86-64 puts the tied pair in the wrong order for some seeds."""

    @pytest.mark.parametrize("seed", range(8))
    def test_one_tie_between_far_apart_pixels(self, seed):
        # the tie is for the highest quality, so it picks the seed
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.5, 1.0, (48, 48))
        q[3, 5] = q[40, 44] = 1.5
        assert len(np.unique(q)) == q.size - 1
        w = wrap_to_pi(rng.uniform(-8, 8, q.shape))
        assert_matches_heap_oracle(PhaseMap(w, wrapped=True), QualityMap(q))

    @pytest.mark.parametrize("seed", range(8))
    def test_signed_zero_tie(self, seed):
        # the corner is reached only through its two neighbors, 0.0 and
        # -0.0, which pop last; the one popped first is its reference
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.5, 1.0, (48, 48))
        q[0, 1] = 0.0
        q[1, 0] = -0.0
        w = wrap_to_pi(rng.uniform(-8, 8, q.shape))
        assert_matches_heap_oracle(PhaseMap(w, wrapped=True), QualityMap(q))
