import struct

import numpy as np
import pytest

from rfdm.dsp import RfdmSequence, cube_to_rfdm
from rfdm.errors import IntegrityError, ManifestError
from rfdm.io import (
    CKPT_MAGIC,
    RFDM_MAGIC,
    load_checkpoint,
    read_cube,
    read_manifest,
    read_rfdm,
    save_checkpoint,
    sha256_file,
    verify_manifest_files,
    write_confusion_csv,
    write_cube,
    write_curve_csv,
    write_dataset_manifest,
    write_rfdm,
    write_rfdm_csv,
    write_rfdm_pgm,
)
from rfdm.model import CnnTcn, CnnTcnConfig, predict
from rfdm.nn import Adam
from rfdm.radar import RadarConfig, linear_scatterer, synthesize_cube

CFG = RadarConfig()
TINY = CnnTcnConfig(
    t_frames=4, height=8, width=8, conv_channels=(2, 3, 4),
    dropout=0.0, head_hidden=(6, 5),
)


class TestCubeFormat:
    def test_round_trip_bits(self, tmp_path):
        cube = synthesize_cube(CFG, [linear_scatterer(3.0, 1.0)], n_frames=2,
                               noise_sigma=0.2, rng_seed=1)
        p = tmp_path / "a.rfdc"
        write_cube(p, cube)
        back = read_cube(p)
        assert np.array_equal(back.samples, cube.samples)
        assert back.n_frames == 2

    def test_truncation_detected(self, tmp_path):
        cube = synthesize_cube(CFG, [], n_frames=1)
        p = tmp_path / "b.rfdc"
        write_cube(p, cube)
        raw = p.read_bytes()
        p.write_bytes(raw[:-12])  # chop into the trailer
        with pytest.raises(IntegrityError, match="truncat"):
            read_cube(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.rfdc"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(IntegrityError, match="magic"):
            read_cube(p)

    def test_short_header(self, tmp_path):
        p = tmp_path / "e.rfdc"
        p.write_bytes(b"RFDC" + bytes(6))
        with pytest.raises(IntegrityError, match="truncated cube header"):
            read_cube(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "f.rfdc"
        write_cube(p, synthesize_cube(CFG, [], n_frames=1))
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(IntegrityError, match="trailing bytes after the cube"):
            read_cube(p)

    def test_write_is_deterministic(self, tmp_path):
        cube = synthesize_cube(CFG, [linear_scatterer(4.0, -1.0)], n_frames=1,
                               noise_sigma=0.1, rng_seed=7)
        p1, p2 = tmp_path / "d1.rfdc", tmp_path / "d2.rfdc"
        write_cube(p1, cube)
        write_cube(p2, cube)
        assert sha256_file(p1) == sha256_file(p2)

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_returned_digest_is_of_the_bytes_written(self, tmp_path, contiguous):
        cube = synthesize_cube(RadarConfig(n_rx=2), [linear_scatterer(2.0, 0.5)], n_frames=4,
                               noise_sigma=0.3, rng_seed=2)
        cube.n_frames = 2
        cube.samples = cube.samples[::2] if not contiguous else cube.samples[:2]
        p = tmp_path / "g.rfdc"
        digest = write_cube(p, cube)
        assert digest == sha256_file(p)
        want = (b"RFDC" + struct.pack("<5I", 1, 2, 128, 112, 2)
                + np.ascontiguousarray(cube.samples).astype("<c16").tobytes()
                + struct.pack("<Q", 2 * 128 * 112 * 2))
        assert p.read_bytes() == want


class TestRfdmFormat:
    def test_round_trip_f32_exact(self, tmp_path):
        cube = synthesize_cube(CFG, [linear_scatterer(2.0, 2.0)], n_frames=2,
                               noise_sigma=0.1, rng_seed=3)
        seq = cube_to_rfdm(cube)
        p = tmp_path / "a.rfdm"
        write_rfdm(p, seq)
        back = read_rfdm(p)
        assert back.scale_mode == seq.scale_mode
        assert np.array_equal(back.frames, seq.frames.astype(np.float32).astype(np.float64))

    def test_truncation(self, tmp_path):
        seq = RfdmSequence(frames=np.random.default_rng(0).random((2, 4, 4)))
        p = tmp_path / "b.rfdm"
        write_rfdm(p, seq)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(IntegrityError, match="truncated"):
            read_rfdm(p)

    def _written(self, tmp_path):
        p = tmp_path / "c.rfdm"
        write_rfdm(p, RfdmSequence(frames=np.ones((1, 2, 2))))
        return p, p.read_bytes()

    def test_short_header(self, tmp_path):
        p, raw = self._written(tmp_path)
        p.write_bytes(raw[:10])
        with pytest.raises(IntegrityError, match="header"):
            read_rfdm(p)

    def test_unknown_scale_code(self, tmp_path):
        p, raw = self._written(tmp_path)
        p.write_bytes(raw[:20] + bytes([9]) + raw[21:])
        with pytest.raises(IntegrityError, match="scale code 9"):
            read_rfdm(p)

    def test_trailing_bytes(self, tmp_path):
        p, raw = self._written(tmp_path)
        p.write_bytes(raw + b"junk")
        with pytest.raises(IntegrityError, match="trailing"):
            read_rfdm(p)

    def test_payload_size_past_ssize_t(self, tmp_path):
        # 4 * (2**32 - 1)**3 bytes cannot be passed to a read at all
        p = tmp_path / "d.rfdm"
        p.write_bytes(RFDM_MAGIC + struct.pack("<4IB", 1, *[0xFFFFFFFF] * 3, 0))
        assert p.stat().st_size == 21
        with pytest.raises(IntegrityError, match="truncated rfdm payload"):
            read_rfdm(p)


class TestCheckpoint:
    def test_round_trip_predictions_bit_identical(self, tmp_path):
        model = CnnTcn(TINY, init_seed=5)
        x = np.random.default_rng(0).random((4, 8, 8))
        before = predict(model, x)
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, model)
        loaded, adam_state = load_checkpoint(p)
        assert adam_state is None
        after = predict(loaded, x)
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])

    def test_adam_state_round_trip(self, tmp_path):
        model = CnnTcn(TINY, init_seed=2)
        adam = Adam(model.params(), lr=1e-3)
        for p_ in model.params():
            p_.grad[...] = 0.01
        adam.step()
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, model, adam=adam)
        _, state = load_checkpoint(p)
        assert state["t"] == 1
        assert all(np.array_equal(a, b) for a, b in zip(state["m"], adam.m))
        assert all(np.array_equal(a, b) for a, b in zip(state["v"], adam.v))

    def test_bn_running_stats_round_trip(self, tmp_path):
        model = CnnTcn(TINY, init_seed=1)
        x = np.random.default_rng(1).random((2, 4, 8, 8))
        model.forward(x, train=True)  # move running stats off init
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, model)
        loaded, _ = load_checkpoint(p)
        for (na, a), (nb, b) in zip(model.buffers(), loaded.buffers()):
            assert na == nb and np.array_equal(a, b)


class TestCheckpointFailsClosed:
    def test_short_header(self, tmp_path):
        p = tmp_path / "m.rfnn"
        p.write_bytes(CKPT_MAGIC + bytes(5))
        with pytest.raises(IntegrityError, match="truncated checkpoint header"):
            load_checkpoint(p)

    def test_descriptor_longer_than_file(self, tmp_path):
        p = tmp_path / "m.rfnn"
        p.write_bytes(CKPT_MAGIC + struct.pack("<2I", 1, 0xFFFFFFFF) + b"{}")
        with pytest.raises(IntegrityError, match="truncated checkpoint descriptor"):
            load_checkpoint(p)

    @pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"not json", b"{}", b"[]",
                                      b'{"kind": "cnn-tcn", "config": {}, "params": []}'],
                             ids=["non-utf8", "non-json", "empty", "list", "no-buffers"])
    def test_bad_descriptor(self, tmp_path, blob):
        p = tmp_path / "m.rfnn"
        p.write_bytes(CKPT_MAGIC + struct.pack("<2I", 1, len(blob)) + blob)
        with pytest.raises(IntegrityError, match="unreadable checkpoint descriptor"):
            load_checkpoint(p)

    def test_shape_mismatch(self, tmp_path):
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        raw = p.read_bytes()
        (blob_len,) = struct.unpack("<I", raw[8:12])
        blob = raw[12 : 12 + blob_len].replace(b'"shape": [3, 5, 1, 2]', b'"shape": [3, 5, 2, 1]')
        assert blob != raw[12 : 12 + blob_len]
        p.write_bytes(raw[:12] + blob + raw[12 + blob_len :])
        with pytest.raises(IntegrityError, match="layout does not match"):
            load_checkpoint(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(IntegrityError, match="trailing bytes after the checkpoint"):
            load_checkpoint(p)

    def test_truncated_adam_state(self, tmp_path):
        model = CnnTcn(TINY)
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, model, adam=Adam(model.params()))
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(IntegrityError, match="truncated checkpoint"):
            load_checkpoint(p)


class TestManifests:
    def test_hash_verification(self, tmp_path):
        cube = synthesize_cube(CFG, [], n_frames=1)
        write_cube(tmp_path / "s0.rfdc", cube)
        rows = [{"path": "s0.rfdc", "sha256": sha256_file(tmp_path / "s0.rfdc")}]
        write_dataset_manifest(tmp_path / "m.json", CFG, {"n": 1}, rows)
        man = read_manifest(tmp_path / "m.json")
        verify_manifest_files(man, tmp_path)
        # corrupt the cube: verification must name the file
        data = bytearray((tmp_path / "s0.rfdc").read_bytes())
        data[40] ^= 0xFF
        (tmp_path / "s0.rfdc").write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="s0.rfdc"):
            verify_manifest_files(man, tmp_path)

    def test_missing_file_and_bad_manifest(self, tmp_path):
        write_dataset_manifest(tmp_path / "m.json", CFG, {}, [{"path": "gone.rfdc"}])
        with pytest.raises(IntegrityError, match="missing"):
            verify_manifest_files(read_manifest(tmp_path / "m.json"), tmp_path)
        (tmp_path / "bad.json").write_text("{}")
        with pytest.raises(ManifestError, match="samples"):
            read_manifest(tmp_path / "bad.json")


class TestExports:
    def test_curve_csv(self, tmp_path):
        p = tmp_path / "curve.csv"
        write_curve_csv(p, [(0, 1.5, 0.25), (1, 0.75, 0.5)])
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_acc"
        assert lines[1].startswith("0,1.5,")

    def test_confusion_csv_header(self, tmp_path):
        p = tmp_path / "conf.csv"
        names = ["SwipeLeft", "SwipeRight", "SwipeUp", "SwipeDown", "Push", "Pull", "Circle"]
        write_confusion_csv(p, {"class_names": names, "counts": np.eye(7, dtype=int).tolist()})
        lines = p.read_text().strip().splitlines()
        assert lines[0].split(",")[1:] == names
        assert len(lines) == 8

    def test_rfdm_csv_round_trip(self, tmp_path):
        seq = RfdmSequence(frames=np.random.default_rng(2).random((2, 5, 6)))
        paths = write_rfdm_csv(tmp_path / "m", seq)
        assert len(paths) == 2
        got = np.array([[float(v) for v in line.split(",")]
                        for line in paths[0].read_text().strip().splitlines()])
        # 9 significant digits identify each float32 exactly
        assert np.array_equal(got.astype(np.float32), seq.frames[0].astype(np.float32))

    def test_constant_rfdm_pgm_single_gray(self, tmp_path):
        seq = RfdmSequence(frames=np.full((1, 4, 4), 3.3))
        (p,) = write_rfdm_pgm(tmp_path / "m", seq)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        assert set(raw[len(b"P5\n4 4\n255\n"):]) == {0}

    def test_pgm_deterministic_bytes(self, tmp_path):
        seq = RfdmSequence(frames=np.random.default_rng(3).random((1, 8, 8)))
        (p1,) = write_rfdm_pgm(tmp_path / "a", seq)
        (p2,) = write_rfdm_pgm(tmp_path / "b", seq)
        assert p1.read_bytes() == p2.read_bytes()
