import hashlib
import json

import numpy as np
import pytest

from psimlab import Image, PhaseMap
from psimlab import io
from psimlab.metrics import Profile
from psimlab.nn import (CheckpointError, checkpoint, load_checkpoint,
                        save_checkpoint)

from helpers import read_profile_csv


class TestPfm:
    def test_round_trip(self, tmp_path):
        data = np.random.default_rng(0).normal(size=(12, 20))
        path = tmp_path / "x.pfm"
        io.write_pfm(path, data)
        back = io.read_pfm(path)
        assert back.shape == (12, 20)
        assert np.array_equal(back, data.astype(np.float32).astype(np.float64))

    def test_header_format(self, tmp_path):
        path = tmp_path / "x.pfm"
        io.write_pfm(path, np.zeros((3, 5)))
        raw = path.read_bytes()
        assert raw.startswith(b"Pf\n5 3\n-1.0\n")
        assert len(raw) == len(b"Pf\n5 3\n-1.0\n") + 4 * 15

    def test_rejects_non_pfm(self, tmp_path):
        path = tmp_path / "x.pfm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            io.read_pfm(path)

    @pytest.mark.parametrize("header", [b"Pf\n99999999 99999999\n-1.0\n",
                                        b"Pf\n-1 4\n-1.0\n",
                                        b"Pf\n0 4\n-1.0\n"],
                             ids=["huge", "negative", "zero"])
    def test_rejects_header_the_file_cannot_hold(self, tmp_path, header):
        # the huge claim must fail on the file size, not on allocating it
        path = tmp_path / "x.pfm"
        path.write_bytes(header + bytes(16))
        with pytest.raises(ValueError):
            io.read_pfm(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300],
                             ids=["nan", "inf", "beyond_float32"])
    def test_writes_no_value_that_is_not_finite_in_float32(self, tmp_path,
                                                           value):
        path = tmp_path / "x.pfm"
        data = np.zeros((3, 5))
        data[1, 2] = value
        with np.errstate(over="raise"), pytest.raises(ValueError):
            io.write_pfm(path, data)
        assert not path.exists()

    def test_sidecar_round_trip(self, tmp_path):
        path = tmp_path / "p.pfm"
        io.save_phase(path, PhaseMap(np.zeros((8, 8)), wrapped=True), seed=7)
        meta = io.read_sidecar(path)
        assert meta["role"] == "phase"
        assert meta["units"] == "radians"
        assert meta["wrapped"] is True
        assert meta["seed"] == 7
        back = io.load_phase(path)
        assert back.wrapped

    def test_image_sidecar(self, tmp_path):
        path = tmp_path / "i.pfm"
        io.save_image(path, Image(np.ones((4, 4))), seed=1)
        assert io.read_sidecar(path)["role"] == "intensity"


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        profile = Profile(np.arange(20, dtype=np.float64), (5, 10, 15))
        path = tmp_path / "p.csv"
        io.write_profile_csv(path, profile)
        text = path.read_text()
        assert "# segment=1" in text and "# segment=4" not in text
        back = read_profile_csv(path)
        assert np.array_equal(back.values, profile.values)
        assert back.boundaries == profile.boundaries


class TestCheckpoint:
    def params(self):
        rng = np.random.default_rng(0)
        return [("a.w", rng.normal(size=(2, 3))), ("a.b", rng.normal(size=3))]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        params = self.params()
        save_checkpoint(path, params, meta={"step": 5})
        back, meta = load_checkpoint(path)
        assert meta == {"step": 5}
        for (n, p), (bn, bp) in zip(params, back):
            assert n == bn
            assert np.array_equal(p, bp)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, self.params())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(path)

    @staticmethod
    def framed(header):
        raw = json.dumps(header).encode()
        return len(raw).to_bytes(8, "little") + raw

    @staticmethod
    def reheadered(raw, extra=None, **first):
        """``raw`` with ``first`` set in its first header entry and the entry
        ``extra`` added, the blob kept."""
        hlen = int.from_bytes(raw[:8], "little")
        header = json.loads(raw[8:8 + hlen])
        header["params"][0].update(first)
        header["params"] += [extra] if extra else []
        return TestCheckpoint.framed(header) + raw[8 + hlen:]

    @pytest.mark.parametrize("mangle", [
        lambda raw: raw[:5],  # short length prefix
        lambda raw: raw[:40],  # short header
        lambda raw: raw[:8] + b"\xff" + raw[9:],  # header not UTF-8
        lambda raw: raw[:8] + b"[" + raw[9:],  # header not JSON
        lambda raw: TestCheckpoint.framed([1, 2]),
        lambda raw: TestCheckpoint.framed(
            {"format": "psimlab-checkpoint-v1", "meta": {}}),
        lambda raw: TestCheckpoint.framed(
            {"format": "psimlab-checkpoint-v1", "meta": {},
             "blob_sha256": "", "params": [{"shape": [2]}]}),
        lambda raw: TestCheckpoint.reheadered(raw, shape=[2.5]),
        lambda raw: TestCheckpoint.reheadered(raw, shape=["a"]),
        # the product matches the blob
        lambda raw: TestCheckpoint.reheadered(raw, shape=[-1, -6]),
        lambda raw: TestCheckpoint.reheadered(raw, shape=[True, 6]),
        lambda raw: TestCheckpoint.reheadered(raw, shape=6),
        # an empty entry whose shape numpy cannot hold
        lambda raw: TestCheckpoint.reheadered(
            raw, extra={"name": "z", "shape": [0, 2 ** 62, 4]}),
        lambda raw: TestCheckpoint.reheadered(raw, name=7),
        lambda raw: TestCheckpoint.reheadered(raw, name=["a.w"]),
        lambda raw: raw + b"\0" * 8,  # one array more than the header
    ])
    def test_malformed_header_raises_checkpoint_error(self, tmp_path, mangle):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, self.params())
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_plan_reads_into_its_arrays_and_checks_the_rest(self, tmp_path):
        path = tmp_path / "c.ckpt"
        params = self.params()
        save_checkpoint(path, params, meta={"step": 5})
        dst = np.empty((2, 3))
        seen = []

        def plan(meta):
            seen.append(meta)
            return {"a.w": dst, "a.b": (3,)}

        kept, meta = load_checkpoint(path, plan)
        assert seen == [meta] == [{"step": 5}]
        assert len(kept) == 1 and kept[0][0] == "a.w" and kept[0][1] is dst
        assert np.array_equal(dst, params[0][1])

    @pytest.mark.parametrize("plan,match", [
        ({"a.w": np.empty((2, 3)), "a.c": (3,)}, "no entry 'a.c'"),
        ({"a.w": np.empty((3, 2))}, "a.w has shape"),
        ({"a.b": (1, 3)}, "a.b has shape"),
    ])
    def test_plan_that_does_not_fit_raises_checkpoint_error(
            self, tmp_path, plan, match):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, self.params())
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path, lambda meta: plan)

    @pytest.mark.parametrize("plan", [None, lambda meta: {"a.w": (2, 3)}],
                             ids=["kept", "skipped"])
    def test_array_not_finite_raises_once_the_hash_checks_out(
            self, tmp_path, plan):
        path = tmp_path / "c.ckpt"
        params = self.params()
        params[0][1][1, 2] = np.inf
        save_checkpoint(path, params)
        with pytest.raises(CheckpointError, match="a.w is not finite"):
            load_checkpoint(path, plan)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(path, plan)

    def test_skipped_arrays_stream_through_one_buffer(self, tmp_path,
                                                      monkeypatch):
        # arrays larger than the buffer are read in several pieces, all
        # hashed and checked
        monkeypatch.setattr(checkpoint, "SKIP_BUFFER_BYTES", 64)
        path = tmp_path / "c.ckpt"
        big = np.random.default_rng(2).normal(size=(5, 7))
        save_checkpoint(path, [("big", big), ("tail", np.ones(9))])
        kept, _ = load_checkpoint(path, lambda meta: {"tail": np.empty(9)})
        assert [name for name, _ in kept] == ["tail"]
        big[4, 6] = np.nan
        save_checkpoint(path, [("big", big), ("tail", np.ones(9))])
        with pytest.raises(CheckpointError, match="big is not finite"):
            load_checkpoint(path, lambda meta: {"big": (5, 7)})

    def test_bytes_equal_the_joined_blob_writer(self, tmp_path):
        def joined(path, params, meta):
            blob = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes()
                            for _, p in params)
            header = json.dumps({
                "format": "psimlab-checkpoint-v1",
                "params": [{"name": n, "shape": list(p.shape)}
                           for n, p in params],
                "blob_sha256": hashlib.sha256(blob).hexdigest(),
                "meta": meta}, sort_keys=True).encode("utf-8")
            path.write_bytes(len(header).to_bytes(8, "little") + header + blob)

        rng = np.random.default_rng(1)
        params = self.params() + [
            ("scalar", np.array(-0.0)),
            ("transposed", rng.normal(size=(3, 4)).T),
            ("strided", rng.normal(size=(4, 6))[:, ::2]),
            ("single", rng.normal(size=5).astype(np.float32)),
            ("empty", np.zeros((0, 3)))]
        save_checkpoint(tmp_path / "a.ckpt", params, {"k": 1})
        joined(tmp_path / "b.ckpt", params, {"k": 1})
        assert (tmp_path / "a.ckpt").read_bytes() == \
            (tmp_path / "b.ckpt").read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, self.params(), meta={"k": 1})
        save_checkpoint(p2, self.params(), meta={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()
