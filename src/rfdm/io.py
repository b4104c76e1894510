"""File formats: raw cubes (RFDC), map sequences (RFDM), checkpoints (RFNN),
JSON manifests with content hashes, and CSV/PGM exports.

All binary payloads are little-endian. Cube files carry a trailing sample
count for truncation detection; manifests carry sha256 digests so any stage
can verify its inputs byte-for-byte. The readers fail closed: a short or
overlong file, or a header that does not describe the bytes after it,
raises IntegrityError.
"""

import hashlib
import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dsp import RfdmSequence
from .errors import IntegrityError, ManifestError
from .model import CnnTcnConfig, build_model
from .radar import DataCube, RadarConfig

CUBE_MAGIC = b"RFDC"
RFDM_MAGIC = b"RFDM"
CKPT_MAGIC = b"RFNN"
FORMAT_VERSION = 1

_SCALE_CODES = {"linear": 0, "linear-maxnorm": 1, "log-db": 2}
_SCALE_NAMES = {v: k for k, v in _SCALE_CODES.items()}


def _read_exact(f, n, path, what) -> bytes:
    """The next n bytes of f. The file size is checked first, so a corrupt
    length field raises IntegrityError instead of sizing a read."""
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise IntegrityError(f"{path}: truncated {what}")
    return f.read(n)


def _expect_end(f, path, what) -> None:
    if f.read(1):
        raise IntegrityError(f"{path}: trailing bytes after the {what}")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# RFDC raw cube
# ---------------------------------------------------------------------------


def write_cube(path, cube: DataCube) -> str:
    """Write `cube` as RFDC; returns the SHA-256 hex digest of the bytes written."""
    cube.validate()
    # complex128 is stored as interleaved (re, im) float64 pairs; on a
    # little-endian host this is the samples' own buffer, not a copy
    x = np.ascontiguousarray(cube.samples, dtype="<c16")
    n_frames, n_chirps, n_samples, n_rx = x.shape
    h = hashlib.sha256()
    with open(path, "wb") as f:
        for part in (CUBE_MAGIC,
                     struct.pack("<5I", FORMAT_VERSION, n_frames, n_chirps, n_samples, n_rx),
                     x,
                     struct.pack("<Q", x.size)):
            f.write(part)
            h.update(part)
    return h.hexdigest()


def read_cube(path, config: RadarConfig | None = None) -> DataCube:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CUBE_MAGIC:
            raise IntegrityError(f"{path}: bad magic {magic!r}, expected {CUBE_MAGIC!r}")
        header = _read_exact(f, 20, path, "cube header")
        version, n_frames, n_chirps, n_samples, n_rx = struct.unpack("<5I", header)
        if version != FORMAT_VERSION:
            raise IntegrityError(f"{path}: unsupported cube version {version}")
        count = n_frames * n_chirps * n_samples * n_rx
        payload = _read_exact(f, 16 * count + 8, path, "cube file")
        (stored,) = struct.unpack("<Q", payload[-8:])
        if stored != count:
            raise IntegrityError(
                f"{path}: trailer count {stored} != header count {count} (truncation?)"
            )
        _expect_end(f, path, "cube trailer")
    samples = np.frombuffer(payload, dtype="<c16", count=count)
    samples = samples.reshape(n_frames, n_chirps, n_samples, n_rx)
    cfg = config or RadarConfig()
    if (n_chirps, n_samples, n_rx) != (cfg.n_chirps, cfg.n_samples, cfg.n_rx):
        cfg = RadarConfig(
            f_c=cfg.f_c, B=cfg.B, f_s=cfg.f_s, n_samples=n_samples,
            n_chirps=n_chirps, t_pri=cfg.t_pri, t_frame=cfg.t_frame, n_rx=n_rx,
        )
    return DataCube(config=cfg, samples=samples.astype(np.complex128), n_frames=n_frames)


# ---------------------------------------------------------------------------
# RFDM map sequences
# ---------------------------------------------------------------------------


def write_rfdm(path, seq: RfdmSequence) -> None:
    seq.validate()
    t, n_r, n_d = seq.frames.shape
    code = _SCALE_CODES.get(seq.scale_mode)
    if code is None:
        raise ValueError(f"unknown scale mode {seq.scale_mode!r}")
    with open(path, "wb") as f:
        f.write(RFDM_MAGIC)
        f.write(struct.pack("<4I", FORMAT_VERSION, t, n_r, n_d))
        f.write(struct.pack("<B", code))
        f.write(seq.frames.astype("<f4").tobytes())


def read_rfdm(path) -> RfdmSequence:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != RFDM_MAGIC:
            raise IntegrityError(f"{path}: bad magic {magic!r}, expected {RFDM_MAGIC!r}")
        header = _read_exact(f, 17, path, "rfdm header")
        version, t, n_r, n_d, code = struct.unpack("<4IB", header)
        if version != FORMAT_VERSION:
            raise IntegrityError(f"{path}: unsupported rfdm version {version}")
        if code not in _SCALE_NAMES:
            raise IntegrityError(f"{path}: unknown scale code {code}")
        payload = _read_exact(f, 4 * t * n_r * n_d, path, "rfdm payload")
        _expect_end(f, path, "rfdm payload")
    frames = np.frombuffer(payload, dtype="<f4").reshape(t, n_r, n_d).astype(np.float64)
    return RfdmSequence(frames=frames, scale_mode=_SCALE_NAMES[code])


# ---------------------------------------------------------------------------
# RFNN checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, model, adam=None) -> None:
    descriptor = model.describe()
    descriptor["params"] = [{"name": p.name, "shape": list(p.value.shape)}
                            for p in model.params()]
    descriptor["buffers"] = [{"name": n, "shape": list(b.shape)}
                             for n, b in model.buffers()]
    blob = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<2I", FORMAT_VERSION, len(blob)))
        f.write(blob)
        for p in model.params():
            f.write(p.value.astype("<f8").tobytes())
        for _, b in model.buffers():
            f.write(b.astype("<f8").tobytes())
        if adam is None:
            f.write(struct.pack("<B", 0))
        else:
            f.write(struct.pack("<B", 1))
            f.write(struct.pack("<Q", adam.t))
            for m in adam.m:
                f.write(m.astype("<f8").tobytes())
            for v in adam.v:
                f.write(v.astype("<f8").tobytes())


def load_checkpoint(path):
    """Rebuild the model (and optional Adam state dict) from an RFNN file."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CKPT_MAGIC:
            raise IntegrityError(f"{path}: bad magic {magic!r}, expected {CKPT_MAGIC!r}")
        version, blob_len = struct.unpack("<2I", _read_exact(f, 8, path, "checkpoint header"))
        if version != FORMAT_VERSION:
            raise IntegrityError(f"{path}: unsupported checkpoint version {version}")
        blob = _read_exact(f, blob_len, path, "checkpoint descriptor")
        try:
            descriptor = json.loads(blob.decode("utf-8"))
            kind, config = descriptor["kind"], descriptor["config"]
            layout = [(d["name"], list(d["shape"]))
                      for d in descriptor["params"] + descriptor["buffers"]]
            cfg = CnnTcnConfig(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in config.items()})
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise IntegrityError(f"{path}: unreadable checkpoint descriptor ({exc!r})") from exc
        model = build_model(kind, cfg, init_seed=0)
        params = model.params()
        named = [(p.name, p.value) for p in params] + model.buffers()
        if layout != [(n, list(a.shape)) for n, a in named]:
            raise IntegrityError(f"{path}: parameter layout does not match architecture")

        def read_array(like):
            buf = _read_exact(f, 8 * like.size, path, "checkpoint")
            return np.frombuffer(buf, dtype="<f8").reshape(like.shape)

        for _, a in named:
            a[...] = read_array(a)
        (flag,) = _read_exact(f, 1, path, "checkpoint")
        adam_state = None
        if flag:
            (t,) = struct.unpack("<Q", _read_exact(f, 8, path, "checkpoint"))
            ms = [read_array(p.value) for p in params]
            vs = [read_array(p.value) for p in params]
            adam_state = {"t": t, "m": ms, "v": vs}
        _expect_end(f, path, "checkpoint")
    return model, adam_state


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def write_dataset_manifest(path, radar_config: RadarConfig, spec_info: dict, rows: list) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "radar_config": asdict(radar_config),
        "spec": spec_info,
        "samples": rows,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def read_manifest(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if "samples" not in doc:
        raise ManifestError(f"{path}: manifest lacks a 'samples' list")
    return doc


def verify_manifest_files(manifest: dict, base_dir) -> None:
    """Check that every referenced file exists and matches its digest."""
    base = Path(base_dir)
    for row in manifest["samples"]:
        p = base / row["path"]
        if not p.exists():
            raise IntegrityError(f"missing file {p}")
        if "sha256" in row:
            actual = sha256_file(p)
            if actual != row["sha256"]:
                raise IntegrityError(
                    f"{p}: sha256 mismatch (manifest {row['sha256'][:12]}.., file {actual[:12]}..)"
                )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def write_curve_csv(path, curve) -> None:
    lines = ["epoch,train_loss,val_acc"]
    for epoch, loss, acc in curve:
        lines.append("%d,%.17g,%.17g" % (epoch, loss, acc))
    Path(path).write_text("\n".join(lines) + "\n")


def write_confusion_csv(path, confusion_dict) -> None:
    names = confusion_dict["class_names"]
    lines = ["true\\pred," + ",".join(names)]
    for name, row in zip(names, confusion_dict["counts"]):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_rfdm_csv(path_stem, seq: RfdmSequence) -> list:
    """One CSV per frame (exact f32 round-trip values); returns paths written."""
    paths = []
    frames = seq.frames.astype(np.float32)
    for t in range(frames.shape[0]):
        p = Path(f"{path_stem}_f{t:03d}.csv")
        lines = [",".join("%.9g" % v for v in row) for row in frames[t]]
        p.write_text("\n".join(lines) + "\n")
        paths.append(p)
    return paths


def write_rfdm_pgm(path_stem, seq: RfdmSequence) -> list:
    """8-bit binary PGM per frame, min-max scaled; returns paths written."""
    paths = []
    for t in range(seq.frames.shape[0]):
        frame = seq.frames[t]
        lo, hi = float(frame.min()), float(frame.max())
        if hi > lo:
            img = np.round((frame - lo) / (hi - lo) * 255.0).astype(np.uint8)
        else:
            img = np.zeros(frame.shape, dtype=np.uint8)
        p = Path(f"{path_stem}_f{t:03d}.pgm")
        header = f"P5\n{frame.shape[1]} {frame.shape[0]}\n255\n".encode()
        p.write_bytes(header + img.tobytes())
        paths.append(p)
    return paths
