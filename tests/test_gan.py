import importlib
import math
import tracemalloc

import numpy as np
import pytest

from psimlab import (ForwardModelSpec, Image, SourceSpec,
                     align_global_offset, rms_error, synth_dataset)
from psimlab.gan import (GanSpec, PatchDiscriminator, UNetGenerator,
                         bce_with_logits, build_pairs, chain_infer_frames,
                         discriminator_loss, generator_loss, infer_phase,
                         init_gan, load_gan, save_gan, train, train_step)
from psimlab.gan.data import (PairedSample, augment, denormalize, normalize,
                              rotations_12, split_dataset)
from psimlab.gan.train import _entries
from psimlab.nn import adam_step, ops, save_checkpoint
from psimlab.nn.layers import Conv2d, ConvTranspose2d, InstanceNorm
from psimlab.reconstruct import (five_step_wrapped_phase,
                                 modulation_amplitude, unwrap_phase)

from helpers import chained_stack

LN2 = math.log(2.0)


def tiny_dataset(count=6, side=16, seed=0, noise_sigma=0.0, jitter_sigma=0.0):
    model = ForwardModelSpec(noise_sigma=noise_sigma,
                            jitter_sigma=jitter_sigma)
    return synth_dataset(count, side, side, "cell_blobs", model, seed=seed)


def tiny_spec(mode="phase"):
    return GanSpec(mode=mode, depth=2, base=4, disc_blocks=2, disc_base=4,
                   image_side=16)


def random_pairs(n, side=16, seed=0):
    rng = np.random.default_rng(seed)
    return [PairedSample(rng.uniform(-1, 1, (side, side)),
                        rng.uniform(-1, 1, (side, side)))
            for _ in range(n)]


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def zero_params(net):
    for _, p in net.parameters():
        p[...] = 0.0


class TestBuildPairs:
    def test_frames_mode_counts(self):
        dataset = tiny_dataset(6)
        pairs, info = build_pairs(dataset, "frames")
        assert len(pairs) == 24
        assert info["mode"] == "frames"
        assert "intensity_range" in info

    def test_frames_mode_consecutive_round_trip(self):
        dataset = tiny_dataset(3)
        pairs, info = build_pairs(dataset, "frames")
        lo, hi = info["intensity_range"]
        for k, pair in enumerate(pairs[:4]):
            stack = dataset[0][0]
            assert np.max(np.abs(denormalize(pair.input, lo, hi)
                                 - stack.frames[k].data)) < 1e-12
            assert np.max(np.abs(denormalize(pair.target, lo, hi)
                                 - stack.frames[k + 1].data)) < 1e-12
            assert pair.input.min() >= -1.0 and pair.input.max() <= 1.0

    def test_phase_mode_counts_and_range(self):
        dataset = tiny_dataset(5)
        pairs, info = build_pairs(dataset, "phase")
        assert len(pairs) == 5
        lo, hi = info["phase_range"]
        # 5 percent headroom keeps ground truth clear of the clip boundary
        assert lo < min(t.data.min() for _, t in dataset)
        assert hi > max(t.data.max() for _, t in dataset)

    def test_phase_mode_target_round_trip(self):
        dataset = tiny_dataset(4)
        pairs, info = build_pairs(dataset, "phase")
        lo, hi = info["phase_range"]
        for pair, (_, truth) in zip(pairs, dataset):
            assert np.max(np.abs(denormalize(pair.target, lo, hi)
                                 - truth.data)) < 1e-12

    def test_unknown_mode_and_empty(self):
        with pytest.raises(ValueError):
            build_pairs(tiny_dataset(2), "both")
        with pytest.raises(ValueError):
            build_pairs([], "frames")

    def test_normalize_denormalize_inverse(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(2.0, 9.0, (8, 8))
        assert np.max(np.abs(denormalize(normalize(x, 2.0, 9.0), 2.0, 9.0)
                             - x)) < 1e-12


class TestAugment:
    def sample(self, seed=0, side=16):
        rng = np.random.default_rng(seed)
        return PairedSample(rng.normal(size=(side, side)),
                            rng.normal(size=(side, side)))

    def test_identity(self):
        s = self.sample()
        out = augment(s, 0)
        assert np.array_equal(out.input, s.input)
        assert out.input is not s.input

    def test_four_quarter_turns_identity(self):
        s = self.sample(2)
        out = s
        for _ in range(4):
            out = augment(out, 90)
        assert np.array_equal(out.input, s.input)

    def test_rotation_preserves_shape(self):
        s = self.sample(3)
        out = augment(s, 30)
        assert out.input.shape == s.input.shape
        assert np.all(np.isfinite(out.input))

    def test_input_and_target_transform_together(self):
        rng = np.random.default_rng(4)
        grid = rng.normal(size=(16, 16))
        s = PairedSample(grid, grid.copy())
        out = augment(s, 150)
        assert np.array_equal(out.input, out.target)

    def test_rotations_12_counts(self):
        assert len(rotations_12([self.sample()] * 270)) == 3240
        assert len(rotations_12([self.sample()] * 210)) == 2520


class TestSplit:
    def test_default_fraction(self):
        train_set, test_set = split_dataset(list(range(312)), seed=0)
        assert len(train_set) == 250 and len(test_set) == 62

    def test_explicit_count(self):
        train_set, test_set = split_dataset(list(range(312)), seed=0,
                                            train_count=270)
        assert len(train_set) == 270 and len(test_set) == 42

    def test_disjoint_cover(self):
        data = list(range(40))
        train_set, test_set = split_dataset(data, seed=5)
        assert sorted(train_set + test_set) == data

    def test_deterministic(self):
        data = list(range(40))
        a = split_dataset(data, seed=9)
        b = split_dataset(data, seed=9)
        assert a == b

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            split_dataset([1], seed=0)
        with pytest.raises(ValueError):
            split_dataset(list(range(10)), seed=0, train_count=10)


class TestModels:
    def test_generator_shapes(self):
        gen = UNetGenerator(depth=2, base=4, rng=np.random.default_rng(0))
        x = np.zeros((1, 1, 16, 16))
        assert gen.forward(x).shape == (1, 1, 16, 16)
        with pytest.raises(ValueError):
            gen.forward(np.zeros((1, 1, 15, 16)))

    def test_zero_generator_outputs_zero(self):
        gen = UNetGenerator(depth=2, base=4, rng=np.random.default_rng(0))
        zero_params(gen)
        x = np.random.default_rng(1).normal(size=(1, 1, 16, 16))
        assert np.array_equal(gen.forward(x), np.zeros((1, 1, 16, 16)))

    def test_generator_output_bounded(self):
        gen = UNetGenerator(depth=2, base=4, rng=np.random.default_rng(2))
        y = gen.forward(np.random.default_rng(3).normal(size=(1, 1, 16, 16)))
        assert np.all(np.abs(y) <= 1.0)

    def test_unique_parameter_names(self):
        spec, rng = GanSpec(), np.random.default_rng(0)
        gen = UNetGenerator(spec.depth, spec.base, rng=rng)
        disc = PatchDiscriminator(spec.disc_blocks, spec.disc_base, rng=rng)
        names = [n for n, _ in gen.parameters()] + \
            [n for n, _ in disc.parameters()]
        assert len(names) == len(set(names))

    def test_parameter_layout_is_pinned(self):
        # parameter order is the checkpoint and Adam-key order: renaming or
        # reordering breaks every saved checkpoint
        gen = [
            ("down0.conv4x4s2_1to4.w", (4, 1, 4, 4)),
            ("down0.conv4x4s2_1to4.b", (4,)),
            ("down1.conv4x4s2_4to8.w", (8, 4, 4, 4)),
            ("down1.inorm_8.gamma", (8,)), ("down1.inorm_8.beta", (8,)),
            ("up0.convT4x4s2_8to4.w", (8, 4, 4, 4)),
            ("up0.inorm_4.gamma", (4,)), ("up0.inorm_4.beta", (4,)),
            ("up1.convT4x4s2_8to4.w", (8, 4, 4, 4)),
            ("up1.inorm_4.gamma", (4,)), ("up1.inorm_4.beta", (4,)),
            ("g_head.conv3x3s1_5to1.w", (1, 5, 3, 3)),
            ("g_head.conv3x3s1_5to1.b", (1,))]
        disc = [
            ("d.conv4x4s2_2to4.w", (4, 2, 4, 4)),
            ("d.conv4x4s2_2to4.b", (4,)),
            ("d.conv4x4s2_4to8.w", (8, 4, 4, 4)),
            ("d.inorm_8.gamma", (8,)), ("d.inorm_8.beta", (8,)),
            ("d.conv3x3s1_8to1.w", (1, 8, 3, 3)),
            ("d.conv3x3s1_8to1.b", (1,))]
        rng = np.random.default_rng(0)
        for net, layout in ((UNetGenerator(depth=2, base=4, rng=rng), gen),
                            (PatchDiscriminator(blocks=2, base=4, rng=rng),
                             disc)):
            assert [(n, p.shape) for n, p in net.parameters()] == layout
            assert [(n, g.shape) for n, g in net.gradients()] == layout

    def test_bias_exactly_where_no_norm_follows_at_the_paper_spec(self):
        # a norm right after a conv would cancel its bias exactly
        convs = 0
        spec, rng = GanSpec(), np.random.default_rng(0)
        for block in UNetGenerator(spec.depth, spec.base, rng=rng).layers + [
                PatchDiscriminator(spec.disc_blocks, spec.disc_base, rng=rng)]:
            for layer, after in zip(block.layers, block.layers[1:] + [None]):
                if isinstance(layer, (Conv2d, ConvTranspose2d)):
                    names = [n for n, _ in layer.parameters()]
                    assert (f"{layer.name}.b" in names) != isinstance(
                        after, InstanceNorm), layer.name
                    convs += 1
        assert convs == 13

    def test_discriminator_patch_grid(self):
        disc = PatchDiscriminator(blocks=3, base=16,
                                  rng=np.random.default_rng(0))
        a = np.zeros((1, 1, 64, 64))
        pair = np.concatenate([a, a], axis=1)
        assert disc.forward(pair).shape == (1, 1, 8, 8)

    def test_zero_discriminator_is_undecided(self):
        disc = PatchDiscriminator(blocks=2, base=4,
                                  rng=np.random.default_rng(0))
        zero_params(disc)
        x = np.random.default_rng(1).normal(size=(1, 1, 16, 16))
        logits = disc.forward(np.concatenate([x, x], axis=1))
        assert np.array_equal(logits, np.zeros_like(logits))
        assert np.all(ops.sigmoid_forward(logits) == 0.5)

    def test_discriminator_matches_manual_ops(self):
        rng = np.random.default_rng(4)
        disc = PatchDiscriminator(blocks=1, base=2, rng=rng)
        a = rng.normal(size=(1, 1, 8, 8))
        b = rng.normal(size=(1, 1, 8, 8))
        conv1, act, conv2 = disc.layers
        x = np.concatenate([a, b], axis=1)
        y = ops.conv2d_forward(x, conv1.w, conv1.b, 2, 1)
        y = ops.leaky_relu_forward(y, 0.2)
        y = ops.conv2d_forward(y, conv2.w, conv2.b, 1, 1)
        assert np.max(np.abs(disc.forward(x) - y)) < 1e-12


class TestLosses:
    def test_bce_at_zero_logit(self):
        loss, _ = bce_with_logits(np.zeros((2, 3)), 1.0)
        assert loss == pytest.approx(LN2, abs=1e-15)
        loss, _ = bce_with_logits(np.zeros((2, 3)), 0.0)
        assert loss == pytest.approx(LN2, abs=1e-15)

    def test_bce_matches_naive_formula(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0, 3, (4, 4))
        for t in (0.0, 1.0):
            loss, grad = bce_with_logits(z, t)
            p = 1.0 / (1.0 + np.exp(-z))
            naive = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
            assert loss == pytest.approx(naive, abs=1e-12)
            assert np.max(np.abs(grad - (p - t) / z.size)) < 1e-12

    def test_bce_extreme_logits_finite(self):
        loss, grad = bce_with_logits(np.array([1e4, -1e4]), 1.0)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_bce_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(3, 3))
        _, grad = bce_with_logits(z, 1.0)
        h = 1e-6
        for idx in np.ndindex(z.shape):
            zp, zm = z.copy(), z.copy()
            zp[idx] += h
            zm[idx] -= h
            num = (bce_with_logits(zp, 1.0)[0]
                   - bce_with_logits(zm, 1.0)[0]) / (2 * h)
            assert abs(grad[idx] - num) < 1e-8

    def test_gan_losses_at_equilibrium(self):
        logits = np.zeros((1, 1, 4, 4))
        g = np.full((1, 1, 8, 8), 0.25)
        l_d = (discriminator_loss(logits, True)[0]
               + discriminator_loss(logits, False)[0])
        adv, l1, _, _ = generator_loss(logits, g, g.copy(), 100.0)
        assert l_d == pytest.approx(LN2, abs=1e-15)
        assert adv + l1 == pytest.approx(LN2, abs=1e-15)

    def test_gan_losses_l1_term(self):
        logits = np.zeros((1, 1, 4, 4))
        g = np.zeros((1, 1, 4, 4))
        t = g + 0.02
        adv, l1, _, _ = generator_loss(logits, g, t, 100.0)
        assert adv + l1 == pytest.approx(LN2 + 100.0 * 0.02, abs=1e-12)


class TestTraining:
    def test_zero_lr_leaves_parameters(self):
        spec = tiny_spec("frames")
        spec.lr = 0.0
        state = init_gan(spec, seed=0)
        before = [(n, p.copy()) for n, p in
                  state.generator.parameters() +
                  state.discriminator.parameters()]
        train_step(state, random_pairs(1))
        after = state.generator.parameters() + \
            state.discriminator.parameters()
        for (n, b), (_, a) in zip(before, after):
            assert np.array_equal(b, a), n
        assert state.step == 1
        assert len(state.history) == 1
        # moments still advance so a later lr change behaves like Adam
        assert state.g_opt.t == 1 and state.d_opt.t == 1

    def test_deterministic_training(self):
        pairs = random_pairs(4, seed=2)
        runs = []
        for _ in range(2):
            state = train(init_gan(tiny_spec("frames"), seed=3), pairs, 5)
            runs.append([p.copy() for _, p in state.generator.parameters()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_resume_matches_straight_run(self, tmp_path):
        pairs = random_pairs(5, seed=4)
        straight = train(init_gan(tiny_spec("frames"), seed=7), pairs, 6)

        state = train(init_gan(tiny_spec("frames"), seed=7), pairs, 3)
        path = tmp_path / "mid.ckpt"
        save_gan(path, state)
        resumed = train(load_gan(path), pairs, 3)

        assert resumed.step == straight.step == 6
        for (n, a), (_, b) in zip(
                straight.generator.parameters() +
                straight.discriminator.parameters(),
                resumed.generator.parameters() +
                resumed.discriminator.parameters()):
            assert np.array_equal(a, b), n

    def test_step_matches_loop_with_second_generator_forward(self):
        def reference_step(state, batch):
            # the loop before the generator forward was shared: losses
            # worked out inline and G(x) recomputed for the generator update
            x = np.stack([p.input for p in batch])[:, None]
            target = np.stack([p.target for p in batch])[:, None]
            gen, disc = state.generator, state.discriminator
            lam = state.spec.lambda_l1
            fake = gen.forward(x)
            bce_real, grad_real = bce_with_logits(
                disc.forward(np.concatenate([x, target], axis=1)), 1.0)
            disc.backward(0.5 * grad_real)
            real_grads = [g.copy() for _, g in disc.gradients()]
            bce_fake, grad_fake = bce_with_logits(
                disc.forward(np.concatenate([x, fake], axis=1)), 0.0)
            disc.backward(0.5 * grad_fake)
            d_grads = [(name, g_real + g) for (name, g), g_real
                       in zip(disc.gradients(), real_grads)]
            adam_step(disc.parameters(), d_grads, state.d_opt)
            fake = gen.forward(x)
            l_g_adv, grad_logits = bce_with_logits(
                disc.forward(np.concatenate([x, fake], axis=1)), 1.0)
            grad_fake_img = disc.backward(grad_logits)[:, 1:]
            l1 = float(np.mean(np.abs(fake - target)))
            gen.backward(grad_fake_img
                         + lam * np.sign(fake - target) / fake.size)
            adam_step(gen.parameters(), gen.gradients(), state.g_opt)
            state.step += 1
            state.history.append((0.5 * (bce_real + bce_fake), l_g_adv,
                                  lam * l1))

        pairs = random_pairs(6, seed=8)
        shared, reference = (init_gan(tiny_spec("phase"), seed=9)
                             for _ in range(2))
        for k in range(3):
            batch = pairs[2 * k:2 * k + 2]
            train_step(shared, batch)
            reference_step(reference, batch)
        assert shared.history == reference.history
        for (n, a), (_, b) in zip(
                shared.generator.parameters() +
                shared.discriminator.parameters(),
                reference.generator.parameters() +
                reference.discriminator.parameters()):
            assert np.array_equal(a, b), n

    def test_losses_recorded_finite(self):
        state = train(init_gan(tiny_spec("frames"), seed=1),
                      random_pairs(3, seed=5), 4)
        assert len(state.history) == 4
        assert all(np.isfinite(v) for row in state.history for v in row)

    def test_overfits_small_set(self):
        dataset = tiny_dataset(2, seed=11)
        pairs, info = build_pairs(dataset, "phase")
        state = init_gan(tiny_spec("phase"), seed=0, norm_info=info)
        train(state, pairs, 60)
        l1 = [row[2] for row in state.history]
        assert np.mean(l1[-10:]) < np.mean(l1[:10])

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            train_step(init_gan(tiny_spec("frames")), [])

    def test_paper_config_step_memory_is_bounded(self):
        # a batch-8 step at 64^2, depth 4, base 16: the activations cache
        # 1-byte masks, not their float inputs, Adam updates in place and
        # each backward drops its forward's cache, so the caches of the
        # discriminator and of the blocks already backpropagated are gone
        # when up0 runs its backward (52 MB when each activation held its
        # input, 44.5 MB when the caches lived until the next forward)
        state = init_gan(GanSpec(), seed=0)
        pairs = random_pairs(8, side=64, seed=9)
        for _ in range(2):  # the Adam moments exist from here on
            train_step(state, pairs)
        assert traced_peak(train_step, state, pairs) <= 34e6

    def test_paper_config_load_memory_is_bounded(self, tmp_path):
        # the 10.5 MB checkpoint streams: each kept array is read straight
        # into its parameter or moment, and inference keeps the generator
        # alone (3.2 MB, and its gradient buffers).  Reading the whole
        # blob and copying each array out peaked at 23.5 MB
        path = tmp_path / "gan.ckpt"
        save_gan(path, init_gan(GanSpec(), seed=0))
        loaded = []
        assert traced_peak(lambda: loaded.append(
            load_gan(path, generator_only=True))) <= 9e6
        assert traced_peak(load_gan, path) <= 16e6
        state = loaded[0]
        assert state.discriminator is None
        assert state.g_opt is None and state.d_opt is None


class TestInference:
    def test_chain_identity_generator(self, monkeypatch):
        state = init_gan(tiny_spec("frames"), seed=0,
                         norm_info={"intensity_range": (0.0, 4.0)})
        i1 = Image(np.random.default_rng(0).uniform(0, 4, (16, 16)))
        monkeypatch.setattr(importlib.import_module("psimlab.gan.train"),
                            "generator_apply", lambda state, g: g)
        frames = chain_infer_frames(state, i1)
        stack = chained_stack(i1, frames)
        assert len(frames) == 4
        for f in frames:
            assert np.max(np.abs(f.data - i1.data)) < 1e-12
        assert stack.frames[0] is i1

    def test_chain_with_analytic_advance_oracle(self, monkeypatch):
        dataset = tiny_dataset(1, side=16, seed=21)
        stack, truth = dataset[0]
        lo = min(f.data.min() for f in stack.frames)
        hi = max(f.data.max() for f in stack.frames)

        truth_frames = [f.data for f in stack.frames]
        cursor = {"k": 0}

        def oracle(_, grid):
            expected = normalize(truth_frames[cursor["k"]], lo, hi)
            assert np.max(np.abs(grid - expected)) < 1e-9
            cursor["k"] += 1
            return normalize(truth_frames[cursor["k"]], lo, hi)

        state = init_gan(tiny_spec("frames"), seed=0,
                         norm_info={"intensity_range": (lo, hi)})
        monkeypatch.setattr(importlib.import_module("psimlab.gan.train"),
                            "generator_apply", oracle)
        frames = chain_infer_frames(state, stack.frames[0])
        chained = chained_stack(stack.frames[0], frames)
        for pred, true in zip(frames, truth_frames[1:]):
            assert np.max(np.abs(pred.data - true)) < 1e-9

        wrapped = five_step_wrapped_phase(chained)
        quality = modulation_amplitude(chained)
        unwrapped = align_global_offset(unwrap_phase(wrapped, quality), truth)
        assert rms_error(unwrapped.data, truth.data) < 1e-9

    def test_chain_requires_frames_mode(self):
        state = init_gan(tiny_spec("phase"))
        with pytest.raises(ValueError):
            chain_infer_frames(state, Image(np.ones((16, 16))))

    def test_infer_phase_denormalizes(self):
        state = init_gan(tiny_spec("phase"), seed=0,
                         norm_info={"intensity_range": (0.0, 1.0),
                                    "phase_range": (0.0, 4.0)})
        zero_params(state.generator)
        out = infer_phase(state, Image(np.random.default_rng(0)
                                       .uniform(0, 1, (16, 16))))
        # zero generator emits the midpoint of the recorded phase range
        assert np.max(np.abs(out.data - 2.0)) < 1e-12
        assert not out.wrapped

    def test_infer_phase_requires_phase_mode(self):
        state = init_gan(tiny_spec("frames"))
        with pytest.raises(ValueError):
            infer_phase(state, Image(np.ones((16, 16))))

    def test_infer_phase_requires_range(self):
        state = init_gan(tiny_spec("phase"))
        with pytest.raises(ValueError):
            infer_phase(state, Image(np.ones((16, 16))))


class TestCheckpointing:
    def test_round_trip(self, tmp_path):
        state = train(init_gan(tiny_spec("frames"), seed=2,
                               norm_info={"intensity_range": (0.0, 4.0)}),
                      random_pairs(3, seed=6), 3)
        path = tmp_path / "gan.ckpt"
        save_gan(path, state)
        back = load_gan(path)

        assert back.step == 3
        assert back.seed == 2
        assert back.spec == state.spec
        assert back.norm_info["intensity_range"] == [0.0, 4.0] or \
            back.norm_info["intensity_range"] == (0.0, 4.0)
        for (n, a), (_, b) in zip(
                state.generator.parameters() +
                state.discriminator.parameters(),
                back.generator.parameters() +
                back.discriminator.parameters()):
            assert np.array_equal(a, b), n
        for name in state.g_opt.m:
            assert np.array_equal(state.g_opt.m[name], back.g_opt.m[name])
            assert np.array_equal(state.g_opt.v[name], back.g_opt.v[name])
        assert back.g_opt.t == state.g_opt.t

    def test_untrained_state_resaves_byte_identical(self, tmp_path):
        # an untrained state has no Adam moments yet: they are saved as zeros
        state = init_gan(tiny_spec("phase"), seed=3,
                         norm_info={"intensity_range": (0.0, 4.0),
                                    "phase_range": (-1.0, 1.0)})
        first, again = tmp_path / "first.ckpt", tmp_path / "again.ckpt"
        save_gan(first, state)
        save_gan(again, load_gan(first))
        assert first.read_bytes() == again.read_bytes()

    def test_restored_state_trains_identically(self, tmp_path):
        pairs = random_pairs(4, seed=8)
        state = train(init_gan(tiny_spec("frames"), seed=5), pairs, 2)
        path = tmp_path / "gan.ckpt"
        save_gan(path, state)
        back = load_gan(path)
        train(state, pairs, 2)
        train(back, pairs, 2)
        for (n, a), (_, b) in zip(state.generator.parameters(),
                                  back.generator.parameters()):
            assert np.array_equal(a, b), n

    def test_full_load_initializes_no_gan(self, tmp_path, monkeypatch):
        # both networks are built unset and the read fills them: no weight
        # is drawn only to be overwritten
        pairs = random_pairs(4, seed=8)
        state = train(init_gan(tiny_spec("frames"), seed=5), pairs, 2)
        first, again = tmp_path / "first.ckpt", tmp_path / "again.ckpt"
        save_gan(first, state)

        def refuse(*args, **kwargs):
            raise AssertionError("load_gan called init_gan")

        monkeypatch.setattr(importlib.import_module("psimlab.gan.train"),
                            "init_gan", refuse)
        back = load_gan(first)
        save_gan(again, back)
        assert first.read_bytes() == again.read_bytes()
        train(state, pairs, 2)
        train(back, pairs, 2)
        for (n, a), (_, b) in zip(
                state.generator.parameters() +
                state.discriminator.parameters(),
                back.generator.parameters() +
                back.discriminator.parameters(), strict=True):
            assert a.tobytes() == b.tobytes(), n
        assert (back.g_opt.t, back.d_opt.t) == (state.g_opt.t, state.d_opt.t)

    @pytest.mark.parametrize("mode", ["phase", "frames"])
    def test_generator_only_load_infers_bitwise_as_the_full_load(
            self, mode, tmp_path):
        dataset = tiny_dataset(3, seed=4)
        pairs, info = build_pairs(dataset, mode)
        state = train(init_gan(tiny_spec(mode), seed=1, norm_info=info),
                      pairs, 3)
        path = tmp_path / "gan.ckpt"
        save_gan(path, state)
        full, alone = load_gan(path), load_gan(path, generator_only=True)
        assert alone.discriminator is None and alone.g_opt is None
        assert (alone.spec, alone.step, alone.seed, alone.norm_info) == \
            (full.spec, full.step, full.seed, full.norm_info)
        for (n, a), (m, b) in zip(full.generator.parameters(),
                                  alone.generator.parameters(),
                                  strict=True):
            assert n == m and a.tobytes() == b.tobytes(), n
        i1 = dataset[0][0].frames[0]
        if mode == "phase":
            outs = [infer_phase(s, i1).data for s in (full, alone)]
        else:
            outs = [np.stack([f.data for f in chain_infer_frames(s, i1)])
                    for s in (full, alone)]
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_paper_config_save_streams(self, tmp_path):
        # 10.5 MB of parameters and moments are hashed and written array by
        # array: no joined blob and no per-array bytes copy
        entries = _entries(init_gan(GanSpec(), seed=0))
        assert sum(p.nbytes for _, p in entries) > 10e6
        peak = traced_peak(save_checkpoint, tmp_path / "c.ckpt", entries,
                           {"step": 0})
        assert peak < 1e6
