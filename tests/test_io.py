import dataclasses
import functools
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfdm.io
from helpers import (
    linear_scatterer,
    older_checkpoint_layout,
    rewrite_descriptor,
    traced_peak,
    with_structure_keys,
)
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
    write_manifest,
    write_rfdm,
)
from rfdm.model import CnnTcn, CnnTcnConfig, layout, predict
from rfdm.radar import RadarConfig, synthesize_cube

CFG = RadarConfig()
TINY = CnnTcnConfig(t_frames=4, height=8, width=8, conv_channels=(2, 3, 4))


class TestCubeFormat:
    def test_round_trip_bits(self, tmp_path):
        cube = synthesize_cube(CFG, [linear_scatterer(3.0, 1.0)], n_frames=2,
                               noise_sigma=0.2, rng_seed=1)
        p = tmp_path / "a.rfdc"
        write_cube(p, cube)
        back = read_cube(p, CFG)
        assert np.array_equal(back, cube)
        assert back.shape[0] == 2

    def test_truncation_detected(self, tmp_path):
        cube = synthesize_cube(CFG, [], n_frames=1)
        p = tmp_path / "b.rfdc"
        write_cube(p, cube)
        raw = p.read_bytes()
        p.write_bytes(raw[:-12])  # chop into the trailer
        with pytest.raises(IntegrityError, match="truncat"):
            read_cube(p, CFG)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.rfdc"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(IntegrityError, match="magic"):
            read_cube(p, CFG)

    def test_short_header(self, tmp_path):
        p = tmp_path / "e.rfdc"
        p.write_bytes(b"RFDC" + bytes(6))
        with pytest.raises(IntegrityError, match="truncated cube header"):
            read_cube(p, CFG)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "f.rfdc"
        write_cube(p, synthesize_cube(CFG, [], n_frames=1))
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(IntegrityError, match="trailing bytes after the cube"):
            read_cube(p, CFG)

    @pytest.mark.parametrize("field", ["n_chirps", "n_samples"])
    def test_dims_differing_from_the_config(self, tmp_path, field):
        p = tmp_path / "x.rfdc"
        write_cube(p, synthesize_cube(CFG, [], n_frames=1))
        other = dataclasses.replace(CFG, **{field: getattr(CFG, field) // 2})
        with pytest.raises(IntegrityError, match=r"x\.rfdc: \(chirps, samples, rx\)"):
            read_cube(p, other)

    @pytest.mark.parametrize("n_rx", [0, 2])
    def test_rx_other_than_one_is_refused(self, tmp_path, n_rx):
        # a well-formed file of n_rx channels: its header, samples and
        # trailer agree, and the reader refuses it for its rx dim alone
        x = np.ones((1, 128, 112, n_rx), dtype="<c16")
        p = tmp_path / "rx.rfdc"
        p.write_bytes(b"RFDC" + struct.pack("<5I", 1, *x.shape) + x.tobytes()
                      + struct.pack("<Q", x.size))
        with pytest.raises(IntegrityError, match=re.escape(
                f"rx.rfdc: (chirps, samples, rx) (128, 112, {n_rx}) differ from the "
                f"radar config's (128, 112, 1) with one rx")):
            read_cube(p, CFG)

    def test_non_finite_sample(self, tmp_path):
        p = tmp_path / "n.rfdc"
        write_cube(p, synthesize_cube(CFG, [], n_frames=1))
        raw = p.read_bytes()
        p.write_bytes(raw[:40] + struct.pack("<d", np.nan) + raw[48:])
        with pytest.raises(IntegrityError, match="n.rfdc: non-finite cube samples"):
            read_cube(p, CFG)

    def test_samples_are_a_view_of_the_bytes_read(self, tmp_path):
        p = tmp_path / "v.rfdc"
        write_cube(p, synthesize_cube(CFG, [], n_frames=1, noise_sigma=0.1))
        samples = read_cube(p, CFG)
        assert samples.dtype == np.complex128
        assert not samples.flags.owndata and not samples.flags.writeable

    def test_write_is_deterministic(self, tmp_path):
        cube = synthesize_cube(CFG, [linear_scatterer(4.0, -1.0)], n_frames=1,
                               noise_sigma=0.1, rng_seed=7)
        p1, p2 = tmp_path / "d1.rfdc", tmp_path / "d2.rfdc"
        write_cube(p1, cube)
        write_cube(p2, cube)
        assert sha256_file(p1) == sha256_file(p2)

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_returned_digest_is_of_the_bytes_written(self, tmp_path, contiguous):
        # the header's dims are the cube's, then one rx channel
        cube = synthesize_cube(CFG, [linear_scatterer(2.0, 0.5)], n_frames=4,
                               noise_sigma=0.3, rng_seed=2)
        cube = cube[::2] if not contiguous else cube[:2]
        p = tmp_path / "g.rfdc"
        digest = write_cube(p, cube)
        assert digest == sha256_file(p)
        want = (b"RFDC" + struct.pack("<5I", 1, 2, 128, 112, 1)
                + np.ascontiguousarray(cube).astype("<c16").tobytes()
                + struct.pack("<Q", 2 * 128 * 112))
        assert p.read_bytes() == want

    def test_cube_counts_its_frames_from_its_samples(self, tmp_path):
        cube = synthesize_cube(CFG, [linear_scatterer(2.0, 0.5)], n_frames=8,
                               noise_sigma=0.3, rng_seed=5)
        p = tmp_path / "eight.rfdc"
        write_cube(p, cube)
        assert np.array_equal(read_cube(p, CFG), cube)

    def test_fortran_order_cube_round_trips(self, tmp_path):
        # the samples' last axis is strided, so no float64 view of them exists
        cube = np.asfortranarray(synthesize_cube(CFG, [linear_scatterer(2.0, 0.5)], n_frames=1,
                                                 noise_sigma=0.3, rng_seed=4))
        p = tmp_path / "h.rfdc"
        write_cube(p, cube)
        assert np.array_equal(read_cube(p, CFG), cube)


class TestRfdmFormat:
    def test_round_trip_f32_exact(self, tmp_path):
        cube = synthesize_cube(CFG, [linear_scatterer(2.0, 2.0)], n_frames=2,
                               noise_sigma=0.1, rng_seed=3)
        seq = cube_to_rfdm(cube, True, 32, 32)
        p = tmp_path / "a.rfdm"
        write_rfdm(p, seq)
        back = read_rfdm(p)
        assert np.array_equal(back.frames, seq.frames.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_returned_digest_is_of_the_bytes_written(self, tmp_path, contiguous):
        frames = np.random.default_rng(5).random((3, 4, 6))
        seq = RfdmSequence(frames=frames if contiguous else frames[:, ::2])
        p = tmp_path / "d.rfdm"
        digest = write_rfdm(p, seq)
        assert digest == sha256_file(p)
        t, n_r, n_d = seq.frames.shape
        want = (b"RFDM" + struct.pack("<4I", 1, t, n_r, n_d) + struct.pack("<B", 1)
                + np.ascontiguousarray(seq.frames).astype("<f4").tobytes())
        assert p.read_bytes() == want

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
        # 1 (maps divided by their maximum) is the only scale; 0 was unscaled maps
        p, raw = self._written(tmp_path)
        assert raw[20] == 1
        for code in (9, 0):
            p.write_bytes(raw[:20] + bytes([code]) + raw[21:])
            with pytest.raises(IntegrityError, match=f"scale code {code}"):
                read_rfdm(p)

    def test_log_db_scale_code_is_refused(self, tmp_path):
        # code 2 was log-dB scaling, which the program no longer writes
        p, raw = self._written(tmp_path)
        p.write_bytes(raw[:20] + bytes([2]) + raw[21:])
        with pytest.raises(IntegrityError, match="scale code 2"):
            read_rfdm(p)

    def test_trailing_bytes(self, tmp_path):
        p, raw = self._written(tmp_path)
        p.write_bytes(raw + b"junk")
        with pytest.raises(IntegrityError, match="trailing"):
            read_rfdm(p)

    def test_payload_size_past_ssize_t(self, tmp_path):
        # 4 * (2**32 - 1)**3 bytes cannot be passed to a read at all
        p = tmp_path / "d.rfdm"
        p.write_bytes(RFDM_MAGIC + struct.pack("<4IB", 1, *[0xFFFFFFFF] * 3, 1))
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
        loaded, nothing = load_checkpoint(p)
        assert nothing is None
        after = predict(loaded, x)
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])

    def test_bytes_are_the_descriptor_then_the_arrays(self, tmp_path):
        model = CnnTcn(TINY, init_seed=5)
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, model)
        descriptor = {
            "kind": "cnn-tcn",
            "config": dataclasses.asdict(TINY),
            "params": [{"name": q.name, "shape": list(q.value.shape)} for q in model.params()],
            "buffers": [{"name": n, "shape": list(b.shape)} for n, b in model.buffers()],
        }
        blob = json.dumps(descriptor, sort_keys=True).encode("utf-8")
        arrays = [q.value for q in model.params()] + [b for _, b in model.buffers()]
        want = (b"RFNN" + struct.pack("<2I", 1, len(blob)) + blob
                + b"".join(a.astype("<f8").tobytes() for a in arrays))
        assert p.read_bytes() == want

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

    def test_checkpoint_with_frame_conv_biases_is_rejected(self, tmp_path):
        # the layout of a checkpoint written while the frame convs had biases
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        raw = p.read_bytes()
        (blob_len,) = struct.unpack("<I", raw[8:12])
        entry = b'{"name": "frame.conv1.w", "shape": [3, 5, 1, 2]}'
        blob = raw[12 : 12 + blob_len].replace(
            entry, entry + b', {"name": "frame.conv1.b", "shape": [2]}')
        payload = raw[12 + blob_len :]
        p.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                      + payload[: 8 * 3 * 5 * 2] + bytes(16) + payload[8 * 3 * 5 * 2 :])
        with pytest.raises(IntegrityError, match="layout does not match"):
            load_checkpoint(p)

    @pytest.mark.parametrize("at_end, value, fragment", [
        (False, np.inf, "non-finite values in frame.conv1.w"),
        (True, -1.0, "negative running variance in frame.bn3.running_var"),
    ], ids=["non-finite-weight", "negative-variance"])
    def test_invalid_payload_value(self, tmp_path, at_end, value, fragment):
        # the first weight, or the last buffer (bn3's running variance)
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        raw = p.read_bytes()
        i = len(raw) - 8 if at_end else 12 + struct.unpack("<I", raw[8:12])[0]
        p.write_bytes(raw[:i] + struct.pack("<d", value) + raw[i + 8 :])
        with pytest.raises(IntegrityError, match=fragment):
            load_checkpoint(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(IntegrityError, match="trailing bytes after the checkpoint"):
            load_checkpoint(p)

    def test_file_ends_after_the_buffers(self, tmp_path):
        model = CnnTcn(TINY)
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, model)
        raw = p.read_bytes()
        (blob_len,) = struct.unpack("<I", raw[8:12])
        arrays = [q.value for q in model.params()] + [b for _, b in model.buffers()]
        assert len(raw) == 12 + blob_len + 8 * sum(a.size for a in arrays)

    def test_small_file_declaring_a_huge_model_builds_nothing(self, tmp_path):
        # the descriptor honestly declares frames of 40000 x 40000 cells, whose
        # 10**8 features per frame feed the first temporal block (about 4e8
        # doubles, 3.2 GB), over a 16 kB file: the size check runs before the
        # model would be built. Measured traced peak: 25 kB.
        huge = dataclasses.replace(TINY, height=40_000, width=40_000)
        shapes = dict(layout("cnn-tcn", huge))

        def declare_huge_model(descriptor):
            descriptor["config"].update(height=huge.height, width=huge.width)
            for d in descriptor["params"] + descriptor["buffers"]:
                d["shape"] = list(shapes[d["name"]])

        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        rewrite_descriptor(p, declare_huge_model)

        def load():
            with pytest.raises(IntegrityError, match="truncated checkpoint"):
                load_checkpoint(p)

        assert traced_peak(load) < 1e6

    @pytest.mark.parametrize("width", [10**9, 1000], ids=["unallocatable", "fits"])
    def test_config_larger_than_the_declared_arrays_builds_nothing(self, tmp_path, width):
        # the descriptor declares TINY's arrays, and the file holds them, but
        # its config widens conv3: a model of 10**9 channels cannot be
        # allocated (MemoryError if it were built), and one of 1000 channels
        # (about 5 MB of parameters and gradients) would be allocated in full
        # before the layout check. Both are rejected before any parameter is
        # allocated.
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        rewrite_descriptor(p, lambda descriptor: descriptor["config"].update(
            conv_channels=[2, 3, width]))

        def load():
            with pytest.raises(IntegrityError, match="layout does not match"):
                load_checkpoint(p)

        assert traced_peak(load) < 1e6

    @pytest.mark.parametrize("shape", [[-1, 5], [2.0, 5], [True, 5], "ab"],
                             ids=["negative", "float", "bool", "string"])
    def test_dimension_that_is_not_a_count(self, tmp_path, shape):
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        rewrite_descriptor(p, lambda descriptor: descriptor["params"][-1].update(shape=shape))
        with pytest.raises(IntegrityError, match="unreadable checkpoint descriptor"):
            load_checkpoint(p)

    @pytest.mark.parametrize("key, value, fragment", [
        ("t_frames", 4.0, "config.t_frames must be an integer, got 4.0"),
        ("t_frames", True, "config.t_frames must be an integer, got true"),
        ("conv_channels", [2, 3.0, 4], "config.conv_channels[1] must be an integer, got 3.0"),
    ], ids=["float", "bool", "float-width"])
    def test_config_checked_by_the_config_file_rule(self, tmp_path, monkeypatch, key, value,
                                                     fragment):
        # TINY's own values, as a number, a boolean or an array holding a
        # number: refused before any model is built
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        rewrite_descriptor(p, lambda descriptor: descriptor["config"].update({key: value}))
        built = []
        monkeypatch.setattr(rfdm.io, "build_model", lambda *args, **kw: built.append(args))
        with pytest.raises(IntegrityError, match="unreadable checkpoint descriptor") as exc:
            load_checkpoint(p)
        assert fragment in str(exc.value)
        assert built == []

    def test_checkpoint_in_the_older_layout_is_rejected(self, tmp_path):
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        p.write_bytes(older_checkpoint_layout(p.read_bytes()))
        with pytest.raises(IntegrityError, match="unreadable checkpoint descriptor"):
            load_checkpoint(p)

    def test_checkpoint_carrying_the_structure_keys_builds_nothing(self, tmp_path, monkeypatch):
        # a default model's file as written while the config carried the
        # dilations, the dropout, the head widths and the reduction divisor:
        # refused on its config, before any model is built. Measured traced
        # peaks: 414 kB, most of it the 407 kB file read; 1.27 MB for the same
        # file without the five keys, which builds the model
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(CnnTcnConfig()))
        p.write_bytes(with_structure_keys(p.read_bytes()))
        built = []
        monkeypatch.setattr(rfdm.io, "build_model", lambda *args, **kw: built.append(args))

        def load():
            with pytest.raises(IntegrityError, match="unreadable checkpoint descriptor"):
                load_checkpoint(p)

        assert traced_peak(load) < 1e6
        assert built == []


def assert_prefixes_fail_closed(path, reader, cuts):
    """Every listed prefix of the file at `path` makes `reader` raise
    IntegrityError."""
    raw = path.read_bytes()
    for n in cuts:
        path.write_bytes(raw[:n])
        with pytest.raises(IntegrityError):
            reader(path)


def strided_cuts(size, head):
    """Every cut inside the first `head` bytes and the last 16 (the header and
    the trailer), and every 61st one between them."""
    return sorted(set(range(head)) | set(range(head, size, 61)) | set(range(size - 16, size)))


class TestTruncationSweep:
    def test_every_rfdm_prefix(self, tmp_path):
        p = tmp_path / "a.rfdm"
        write_rfdm(p, RfdmSequence(frames=np.random.default_rng(1).random((2, 3, 4))))
        assert_prefixes_fail_closed(p, read_rfdm, range(p.stat().st_size))

    def test_strided_rfdc_prefixes(self, tmp_path):
        cfg = RadarConfig(n_samples=16, n_chirps=8)
        p = tmp_path / "a.rfdc"
        write_cube(p, synthesize_cube(cfg, [linear_scatterer(1.0, 0.5)], n_frames=2,
                                      noise_sigma=0.1, rng_seed=1))
        assert_prefixes_fail_closed(p, lambda path: read_cube(path, cfg),
                                    strided_cuts(p.stat().st_size, 24))

    def test_strided_rfnn_prefixes(self, tmp_path):
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        assert_prefixes_fail_closed(p, load_checkpoint, strided_cuts(p.stat().st_size, 12))


def flipped(raw, flips):
    """`raw` with each (byte, bit) of `flips` inverted, one flip at a time."""
    for i, bit in flips:
        data = bytearray(raw)
        data[i] ^= 1 << bit
        yield bytes(data)


class TestBitFlips:
    def test_every_rfdm_bit_flip(self, tmp_path):
        p = tmp_path / "a.rfdm"
        write_rfdm(p, RfdmSequence(frames=np.random.default_rng(1).random((2, 3, 4))))
        raw = p.read_bytes()
        loaded = 0
        for data in flipped(raw, [(i, b) for i in range(len(raw)) for b in range(8)]):
            p.write_bytes(data)
            try:
                seq = read_rfdm(p)
            except IntegrityError:
                continue
            loaded += 1
            assert np.all(np.isfinite(seq.frames)) and np.all(seq.frames >= 0)
        assert 0 < loaded < 8 * len(raw)

    def test_checkpoint_descriptor_bit_flips(self, tmp_path):
        # every bit of every digit in the config, where a flip changes the
        # architecture, and a seeded sample of the rest of the descriptor
        p = tmp_path / "m.rfnn"
        save_checkpoint(p, CnnTcn(TINY))
        raw = p.read_bytes()
        (blob_len,) = struct.unpack("<I", raw[8:12])
        blob = raw[12 : 12 + blob_len]
        start = blob.index(b'"config"')
        digits = [12 + i for i in range(start, blob.index(b"}", start))
                  if blob[i] in b"0123456789"]
        rng = np.random.default_rng(0)
        flips = [(i, b) for i in digits for b in range(8)]
        flips += zip((12 + rng.integers(0, blob_len, 600)).tolist(),
                     rng.integers(0, 8, 600).tolist())
        outcomes = set()
        for data in flipped(raw, flips):
            p.write_bytes(data)
            try:
                load_checkpoint(p)
                outcomes.add("loaded")
            except IntegrityError:
                outcomes.add("refused")
        assert outcomes == {"loaded", "refused"}


def mutations(raw, offset, fmt):
    """Strategy: `raw` cut short, with a run of up to 16 bytes overwritten,
    with one of the values of struct format `fmt` from byte `offset` on
    overwritten by NaN, an infinity, -1 or any float, or with a tail
    appended. Half the cuts and runs start in the header (and
    descriptor) before `offset`."""
    n = len(raw)
    start = st.one_of(st.integers(0, offset - 1), st.integers(0, n - 1))
    size = struct.calcsize(fmt)
    slot = st.integers(0, (n - offset) // size - 1).map(lambda k: offset + k * size)
    value = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, -1.0]), st.floats(width=8 * size))

    def overwrite(i, run):
        run = run[: n - i]
        return raw[:i] + run + raw[i + len(run):]

    return st.one_of(
        start.map(lambda k: raw[:k]),
        st.builds(overwrite, start, st.binary(min_size=1, max_size=16)),
        st.builds(overwrite, slot, value.map(lambda v: struct.pack(fmt, v))),
        st.binary(min_size=1, max_size=64).map(lambda tail: raw + tail),
    )


MUTATION_RADAR = RadarConfig(n_samples=16, n_chirps=8)


def valid_checkpoint(loaded):
    """(model, None), the model's parameters and buffers finite and no
    running variance negative."""
    model, nothing = loaded
    assert nothing is None
    for name, a in [(p.name, p.value) for p in model.params()] + model.buffers():
        assert np.all(np.isfinite(a)), name
        assert not (name.endswith(".running_var") and np.any(a < 0)), name


def valid_cube(cube):
    """A cube of MUTATION_RADAR's chirp and sample counts, every sample
    finite."""
    r = MUTATION_RADAR
    assert cube.ndim == 3 and cube.shape[1:] == (r.n_chirps, r.n_samples)
    assert np.all(np.isfinite(cube))


# file name -> (reader, check that what it returned is valid, payload value format)
READERS = {
    "a.rfdc": (functools.partial(read_cube, config=MUTATION_RADAR), valid_cube, "<d"),
    "a.rfdm": (read_rfdm, lambda seq: seq.validate(), "<f"),
    "m.rfnn": (load_checkpoint, valid_checkpoint, "<d"),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    write_cube(d / "a.rfdc", synthesize_cube(MUTATION_RADAR, [linear_scatterer(1.0, 0.5)],
                                             n_frames=2, noise_sigma=0.1, rng_seed=1))
    write_rfdm(d / "a.rfdm", RfdmSequence(frames=np.random.default_rng(1).random((2, 3, 4))))
    save_checkpoint(d / "m.rfnn", CnnTcn(TINY))
    return d


class TestMutatedFiles:
    """A reader given a mutated valid file returns a valid object or raises
    IntegrityError, and nothing else."""

    @pytest.mark.parametrize("name", sorted(READERS))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_reads_a_valid_object_or_refuses(self, valid_files, name, data):
        reader, check, fmt = READERS[name]
        raw = (valid_files / name).read_bytes()
        # the payload follows the header, or the checkpoint's descriptor
        offset = {"a.rfdc": 24, "a.rfdm": 21}.get(name) or 12 + struct.unpack_from("<I", raw, 8)[0]
        p = valid_files / ("mutated" + Path(name).suffix)
        p.write_bytes(data.draw(mutations(raw, offset, fmt)))
        try:
            loaded = reader(p)
        except IntegrityError:
            return
        check(loaded)


class TestDigests:
    @pytest.mark.parametrize("reader", ["cube", "rfdm"])
    def test_reader_checks_the_digest_of_the_bytes_it_parses(self, tmp_path, reader):
        p = tmp_path / f"f.{reader}"
        if reader == "cube":
            digest = write_cube(p, synthesize_cube(CFG, [], n_frames=1))
            read = functools.partial(read_cube, config=CFG)
        else:
            digest, read = write_rfdm(p, RfdmSequence(frames=np.ones((1, 2, 2)))), read_rfdm
        read(p, sha256=digest)
        with pytest.raises(IntegrityError, match=f"f.{reader}: sha256 mismatch"):
            read(p, sha256="0" * 64)


class TestManifests:
    def test_hash_verification(self, tmp_path):
        # verify_manifest_files reads no file bytes; the reader checks the
        # row's digest on the bytes it parses
        cube = synthesize_cube(CFG, [], n_frames=1)
        digest = write_cube(tmp_path / "s0.rfdc", cube)
        write_manifest(tmp_path / "m.json", CFG, [{"path": "s0.rfdc", "sha256": digest}],
                       spec={"n": 1})
        man = read_manifest(tmp_path / "m.json")
        verify_manifest_files(man, tmp_path)
        read_cube(tmp_path / "s0.rfdc", CFG, sha256=man["samples"][0]["sha256"])
        # corrupt the cube: the reader must name the file
        data = bytearray((tmp_path / "s0.rfdc").read_bytes())
        data[40] ^= 0xFF
        (tmp_path / "s0.rfdc").write_bytes(bytes(data))
        verify_manifest_files(man, tmp_path)
        read_cube(tmp_path / "s0.rfdc", CFG)  # still well formed
        with pytest.raises(IntegrityError, match="s0.rfdc: sha256 mismatch"):
            read_cube(tmp_path / "s0.rfdc", CFG, sha256=man["samples"][0]["sha256"])

    def test_missing_file_and_bad_manifest(self, tmp_path):
        write_manifest(tmp_path / "m.json", CFG, [{"path": "gone.rfdc", "sha256": "0" * 64}],
                       spec={})
        with pytest.raises(IntegrityError, match="missing"):
            verify_manifest_files(read_manifest(tmp_path / "m.json"), tmp_path)
        with pytest.raises(ManifestError, match="row 0 lacks required field 'index'"):
            verify_manifest_files(read_manifest(tmp_path / "m.json"), tmp_path, ("index",))
        with pytest.raises(ManifestError, match="row 1 lacks required field 'path'"):
            verify_manifest_files({"samples": [{"path": "m.json"}, 3]}, tmp_path)
        # every row names the digest its reader checks
        with pytest.raises(ManifestError, match="row 0 lacks required field 'sha256'"):
            verify_manifest_files({"samples": [{"path": "m.json"}]}, tmp_path)
        for doc in ("{}", '{"samples": 3}', "3"):
            (tmp_path / "bad.json").write_text(doc)
            with pytest.raises(ManifestError, match="lacks a 'samples' list"):
                read_manifest(tmp_path / "bad.json")


    @pytest.mark.parametrize("field, value, want", [
        ("path", 5, "a string"), ("path", None, "a string"), ("path", ["a"], "a string"),
        ("index", None, "a non-negative integer"), ("index", [1], "a non-negative integer"),
        ("index", 1.5, "a non-negative integer"), ("index", "a", "a non-negative integer"),
        ("index", True, "a non-negative integer"), ("index", -1, "a non-negative integer"),
        ("class_id", 7, "an integer in [0, 7)"), ("class_id", False, "an integer in [0, 7)"),
        ("sha256", 5, "64 lowercase hex characters"),
        ("sha256", None, "64 lowercase hex characters"),
        ("sha256", "A" * 64, "64 lowercase hex characters"),
        ("sha256", "0" * 63, "64 lowercase hex characters"),
        ("sha256", "0" * 64 + "\n", "64 lowercase hex characters"),
    ])
    def test_row_field_of_another_type(self, tmp_path, field, value, want):
        # checked before any file is looked for
        row = {"path": "gone.rfdc", "index": 0, "class_id": 0, "sha256": "0" * 64, field: value}
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest row 0: {field} must be {want}, got {json.dumps(value)}")):
            verify_manifest_files({"samples": [row]}, tmp_path, ("index", "class_id"))


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
