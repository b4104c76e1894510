"""File formats: raw cubes (RFDC), map sequences (RFDM), checkpoints (RFNN),
JSON manifests with content hashes, and the training-curve and confusion
CSVs: every layout decision, the checkpoint descriptor and the manifest
document included, is made here.

All binary payloads are little-endian, hashed as they are written; cube
files carry a trailing sample count, and an RFDM file's scale byte is
always 1 (maps divided by their sequence maximum). Each reader reads its
file once and verifies those bytes alone: the magic, the version, the
scale byte, the exact size the header implies and, for cubes and map
sequences, the manifest row's digest (`sha256=`). Readers fail closed: a
mismatch, or a payload its type rejects (a non-finite value, a negative
map magnitude or running variance), raises IntegrityError. Writers check
no values: the program built what they write, and the CLI's numpy error
rule (overflow, invalid and divide raise) stops a stage whose arithmetic
fails before its output reaches a writer, so no ConfigError or ShapeError
comes from here for a value the program made. A cube is
written from, and read back as, the plain complex128 [frame, chirp, sample]
array; a map sequence as an RfdmSequence. The RFDC header keeps a fourth
dim, the receive channel count, after the sample count: this module alone
knows it, writes it as 1 and refuses any other value. The manifest check
fails a row that lacks a required field (`sha256` among them) or holds
another type, and a repeated `index`, with ManifestError. `check_value` is
the one type rule for the JSON objects read from outside: a config file, a
manifest's radar_config and a checkpoint descriptor's config.
"""

import hashlib
import json
import math
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dsp import RfdmSequence
from .errors import ConfigError, IntegrityError, ManifestError, ShapeError
from .gestures import N_CLASSES
from .model import CnnTcnConfig, build_model, layout
from .radar import RadarConfig

CUBE_MAGIC = b"RFDC"
RFDM_MAGIC = b"RFDM"
CKPT_MAGIC = b"RFNN"
FORMAT_VERSION = 1
_RFDM_SCALE = 1


def _expect_size(data, path, size, what, exact=True) -> None:
    """IntegrityError if `data` is shorter than `size` bytes or, when
    `exact`, longer."""
    if len(data) < size:
        raise IntegrityError(f"{path}: truncated {what}")
    if exact and len(data) > size:
        raise IntegrityError(f"{path}: trailing bytes after the {what}")


def _read_file(path, magic, what, header_size, sha256) -> bytes:
    """Every byte of `path`, read once, with the digest (if given), magic,
    header length and the u32 format version after the magic checked."""
    data = Path(path).read_bytes()
    if sha256 is not None:
        actual = hashlib.sha256(data).hexdigest()
        if actual != sha256:
            raise IntegrityError(f"{path}: sha256 mismatch (manifest {sha256}, file {actual})")
    if data[:4] != magic:
        raise IntegrityError(f"{path}: bad magic {data[:4]!r}, expected {magic!r}")
    _expect_size(data, path, header_size, what + " header", exact=False)
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FORMAT_VERSION:
        raise IntegrityError(f"{path}: unsupported {what} version {version}")
    return data


def _write(path, parts) -> str:
    """Write `parts` (bytes, or C-contiguous arrays written as their
    buffers) to `path` in order; returns the SHA-256 hex digest of the bytes
    written."""
    h = hashlib.sha256()
    with open(path, "wb") as f:
        for part in parts:
            f.write(part)
            h.update(part)
    return h.hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# JSON values read from outside
# ---------------------------------------------------------------------------


# JSON type names of the default values' Python types
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "an array", dict: "an object"}


def _has_type_of(value, default) -> bool:
    """Whether `value` has the JSON type of `default`: an int counts as a
    float, and a bool never counts as a number."""
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def check_value(name: str, value, default) -> None:
    """ConfigError unless `value` has the JSON type of `default` and, if a
    number, is finite (json reads NaN and Infinity). An object's keys must
    be keys of the default, each value checked the same way; each row of an
    array is checked against the default's first row. This is the one rule
    for JSON read from outside, run once on each input before any output: a
    config file against the CLI's defaults (name "", so its keys name the
    sections), a dataset manifest's radar_config against RadarConfig's
    fields and a checkpoint descriptor's config against CnnTcnConfig's. The
    dataclasses and the loops past it take those values as checked."""
    if not _has_type_of(value, default):
        raise ConfigError(f"config value of the wrong type: {name or 'the top level'} must be "
                          f"{_JSON_TYPES[type(default)]}, got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {json.dumps(value)}")
    if isinstance(value, dict):
        for key, v in value.items():
            key_name = f"{name}.{key}" if name else key
            if key not in default:
                raise ConfigError(f"unknown config key {key_name!r}")
            check_value(key_name, v, default[key])
    elif isinstance(value, list) and default:
        for i, row in enumerate(value):
            check_value(f"{name}[{i}]", row, default[0])


# ---------------------------------------------------------------------------
# RFDC raw cube
# ---------------------------------------------------------------------------


def write_cube(path, cube: np.ndarray) -> str:
    """Write a [frame, chirp, sample] cube as RFDC, with one rx channel;
    returns the SHA-256 hex digest of the bytes written. The cube is
    written as given: the CLI's numpy error rule stops a synthesis that
    overflows before its cube gets here."""
    # complex128 is stored as interleaved (re, im) float64 pairs; on a
    # little-endian host this is the cube's own buffer, not a copy
    x = np.ascontiguousarray(cube, dtype="<c16")
    return _write(path, (CUBE_MAGIC, struct.pack("<5I", FORMAT_VERSION, *x.shape, 1), x,
                         struct.pack("<Q", x.size)))


def read_cube(path, config: RadarConfig, *, sha256=None) -> np.ndarray:
    """An RFDC file's complex128 [frame, chirp, sample] cube, a read-only
    view of the bytes read. A cube whose chirp or sample count differs from
    `config`, or whose rx count is not 1, raises IntegrityError."""
    data = _read_file(path, CUBE_MAGIC, "cube", 24, sha256)
    n_frames, n_chirps, n_samples, n_rx = struct.unpack_from("<4I", data, 8)
    count = n_frames * n_chirps * n_samples * n_rx
    _expect_size(data, path, 24 + 16 * count + 8, "cube file")
    (stored,) = struct.unpack_from("<Q", data, len(data) - 8)
    if stored != count:
        raise IntegrityError(f"{path}: trailer count {stored} != header count {count}")
    expect = (config.n_chirps, config.n_samples, 1)
    if (n_chirps, n_samples, n_rx) != expect:
        raise IntegrityError(f"{path}: (chirps, samples, rx) {(n_chirps, n_samples, n_rx)} "
                             f"differ from the radar config's {expect} with one rx")
    samples = np.frombuffer(data, dtype="<c16", count=count, offset=24)
    if not np.all(np.isfinite(samples)):
        raise IntegrityError(f"{path}: non-finite cube samples")
    return samples.reshape(n_frames, n_chirps, n_samples)


# ---------------------------------------------------------------------------
# RFDM map sequences
# ---------------------------------------------------------------------------


def write_rfdm(path, seq: RfdmSequence) -> str:
    """Write `seq` as RFDM; returns the SHA-256 hex digest of the bytes
    written. The maps are written as given: the CLI's numpy error rule
    stops transforms that overflow before their maps get here."""
    x = np.ascontiguousarray(seq.frames, dtype="<f4")
    return _write(path, (RFDM_MAGIC, struct.pack("<4IB", FORMAT_VERSION, *x.shape,
                                                 _RFDM_SCALE), x))


def read_rfdm(path, *, sha256=None) -> RfdmSequence:
    """An RFDM file's maps; a scale byte other than 1 raises IntegrityError."""
    data = _read_file(path, RFDM_MAGIC, "rfdm", 21, sha256)
    t, n_r, n_d, code = struct.unpack_from("<3IB", data, 8)
    if code != _RFDM_SCALE:
        raise IntegrityError(f"{path}: unknown scale code {code}")
    _expect_size(data, path, 21 + 4 * t * n_r * n_d, "rfdm payload")
    frames = np.frombuffer(data, dtype="<f4", offset=21).reshape(t, n_r, n_d)
    seq = RfdmSequence(frames=frames.astype(np.float64))
    try:
        seq.validate()
    except ShapeError as exc:
        raise IntegrityError(f"{path}: invalid rfdm payload ({exc})") from exc
    return seq


# ---------------------------------------------------------------------------
# RFNN checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, model) -> None:
    """Write `model` as RFNN: a JSON descriptor (its kind, its config and
    the name and shape of each parameter and buffer), then the parameters
    and buffers as <f8 in that order."""
    params, buffers = [(p.name, p.value) for p in model.params()], model.buffers()
    descriptor = {"kind": model.kind, "config": asdict(model.cfg),
                  "params": [{"name": n, "shape": list(a.shape)} for n, a in params],
                  "buffers": [{"name": n, "shape": list(a.shape)} for n, a in buffers]}
    blob = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    _write(path, [CKPT_MAGIC, struct.pack("<2I", FORMAT_VERSION, len(blob)), blob]
           + [np.ascontiguousarray(a, "<f8") for _, a in params + buffers])


# the JSON form of a checkpoint descriptor's config: conv_channels an array
_MODEL_CONFIG = json.loads(json.dumps(asdict(CnnTcnConfig())))


def load_checkpoint(path):
    """Rebuild the model from an RFNN file. Returns (model, None): the file
    holds no optimizer state, and callers unpack two values."""
    data = _read_file(path, CKPT_MAGIC, "checkpoint", 12, None)
    (blob_len,) = struct.unpack_from("<I", data, 8)
    _expect_size(data, path, 12 + blob_len, "checkpoint descriptor", exact=False)
    offset = 12 + blob_len
    try:
        descriptor = json.loads(data[12:offset].decode("utf-8"))
        kind, config = descriptor["kind"], descriptor["config"]
        declared = [(d["name"], tuple(d["shape"]))
                    for d in descriptor["params"] + descriptor["buffers"]]
        if not all(type(n) is int and n >= 0 for _, shape in declared for n in shape):
            raise ValueError("array dimensions must be non-negative integers")
        # an unknown or mistyped field, or a value that is not finite,
        # raises ConfigError (a ValueError)
        check_value("config", config, _MODEL_CONFIG)
        cfg = CnnTcnConfig(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in config.items()})
        # the file holds exactly the arrays the descriptor declares, and they
        # are the arrays the config builds, both checked before any model is
        # built: neither a small file nor a small descriptor can make a huge
        # model. An invalid architecture raises ConfigError
        _expect_size(data, path, offset + 8 * sum(math.prod(shape) for _, shape in declared),
                     "checkpoint")
        if declared != layout(kind, cfg):
            raise IntegrityError(f"{path}: parameter layout does not match architecture")
        model = build_model(kind, cfg, init_seed=0)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise IntegrityError(f"{path}: unreadable checkpoint descriptor ({exc!r})") from exc
    for name, a in [(p.name, p.value) for p in model.params()] + model.buffers():
        a[...] = np.frombuffer(data, dtype="<f8", count=a.size, offset=offset).reshape(a.shape)
        offset += 8 * a.size
        if not np.all(np.isfinite(a)):
            raise IntegrityError(f"{path}: non-finite values in {name}")
        if name.endswith(".running_var") and np.any(a < 0):
            raise IntegrityError(f"{path}: negative running variance in {name}")
    return model, None


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def write_manifest(path, radar_config: RadarConfig, rows: list, **section) -> None:
    """Write a manifest: the format version, the radar config, the one
    section that describes how the rows were made (`spec=` for a dataset,
    `preprocess=` for map sequences) and the rows."""
    doc = {"version": FORMAT_VERSION, "radar_config": asdict(radar_config), **section,
           "samples": rows}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def read_manifest(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("samples"), list):
        raise ManifestError(f"{path}: manifest lacks a 'samples' list")
    return doc


# what a row's value of each typed field must be, and its test (a JSON bool
# is no number); every field a reader takes from a row is typed here
_STRING = ("a string", lambda v: type(v) is str)
_COUNT = ("a non-negative integer", lambda v: type(v) is int and v >= 0)
_FINITE = ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v))
_ROW_TYPES = {
    "path": _STRING,
    "index": _COUNT,
    "class_id": (f"an integer in [0, {N_CLASSES})",
                 lambda v: type(v) is int and 0 <= v < N_CLASSES),
    "sha256": ("64 lowercase hex characters",
               lambda v: type(v) is str and re.fullmatch("[0-9a-f]{64}", v) is not None),
    "user_id": _COUNT,
    "location_id": _COUNT,
    "base_range": _FINITE,
    "azimuth_deg": _FINITE,
    "environment": _STRING,
}


def require_field(rows, key) -> list:
    """The `key` of every manifest row; ManifestError naming the first row
    that lacks it or, for a field of _ROW_TYPES, holds another type, and
    for `index`, which names a row's output file, the first two rows that
    share one. The CLI calls this where it reads a manifest, before any
    output (verify_manifest_files, evaluate.make_splits); the code past
    that takes the values as checked."""
    want, valid = _ROW_TYPES.get(key, (None, None))
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or key not in row:
            raise ManifestError(f"manifest row {i} lacks required field {key!r}")
        if valid and not valid(row[key]):
            raise ManifestError(f"manifest row {i}: {key} must be {want}, "
                                f"got {json.dumps(row[key])}")
    values = [row[key] for row in rows]
    if key == "index":
        first = {}
        for i, v in enumerate(values):
            if first.setdefault(v, i) != i:
                raise ManifestError(f"manifest rows {first[v]} and {i} share index {v}")
    return values


def verify_manifest_files(manifest: dict, base_dir, fields=()) -> None:
    """Check that every row has each of `fields`, a `path` and a `sha256`,
    each of a type require_field accepts, and that the file it names
    exists. File bytes are not read here: each reader checks the row's
    digest on the bytes it parses."""
    rows = manifest["samples"]
    for key in (*fields, "path", "sha256"):
        require_field(rows, key)
    for row in rows:
        p = Path(base_dir) / row["path"]
        if not p.exists():
            raise IntegrityError(f"missing file {p}")


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
