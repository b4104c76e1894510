"""Command-line entry point: gen, preprocess, train, eval, infer.

One JSON config file drives the pipeline; flags override file values which
override defaults. All randomness flows from --seed through named
sub-streams, and every subcommand emits a run manifest (the only artifact
carrying a timestamp) so runs can be reproduced bit-for-bit.

Exit codes: 0 ok, 1 internal/IO/out of memory, 2 usage, 3 configuration,
4 data/manifest, 5 integrity, 6 simulation.
"""

import argparse
import datetime
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .dsp import check_crop, cube_to_rfdm
from .errors import (
    ConfigError,
    DataError,
    IntegrityError,
    ManifestError,
    ShapeError,
    SimulationError,
)
from .evaluate import PROTOCOLS, VAL_FRACTION, carve_validation, make_splits, run_protocol
from .gestures import (
    GESTURE_CLASSES,
    DatasetSpec,
    Environment,
    ScenePlacement,
    UserProfile,
    dataset_plan,
    standard_benchmark_spec,
    synthesize_sample,
)
from .io import (
    check_value,
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
from .model import MODEL_KINDS, CnnTcnConfig, TrainConfig, build_model, predict, train_model
from .radar import RadarConfig
from .seeding import child_seed, substream

# exception classes -> exit code, in the order main tries them
EXIT_CODES = (
    (IntegrityError, 5),
    (ManifestError, 4),
    (DataError, 4),
    (SimulationError, 6),
    (ConfigError, 3),
    (ShapeError, 3),
    (ValueError, 3),
    (OSError, 1),
    (MemoryError, 1),
)


def _default_config() -> dict:
    bench, train = standard_benchmark_spec(instances=2), TrainConfig()
    return {
        "radar": asdict(RadarConfig()),
        "gen": {
            "instances": bench.instances,
            "n_frames": bench.n_frames,
            "noise_sigma": bench.noise_sigma,
            "users": [asdict(u) for u in bench.users],
            "placements": [
                {"base_range": p.base_range, "azimuth_deg": p.azimuth_deg,
                 "environment": p.environment.value}
                for p in bench.placements
            ],
        },
        "preprocess": {"mti": True, "n_range_crop": 32, "n_doppler_crop": 32},
        "train": {
            "lr": train.lr,
            "batch_size": train.batch_size,
            "epochs": train.epochs,
            "model": "cnn-tcn",
            "val_fraction": VAL_FRACTION,
        },
        "eval": {"protocol": "loocv"},
    }


def _load_config(path) -> dict:
    """The defaults, each section updated by the keys of the config file at
    `path` (if any), which check_value has checked."""
    cfg = _default_config()
    if path:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        check_value("", user, cfg)
        cfg = {section: {**values, **user.get(section, {})} for section, values in cfg.items()}
    _check_domains(cfg)
    return cfg


def _check_domains(cfg: dict) -> None:
    """ConfigError naming a preprocess crop below 1, a train.val_fraction
    outside [0, 1), or a train.model or eval.protocol that is not one of its
    kinds, which no dataclass owns; the gen section's ranges are
    DatasetSpec.validate's, the train section's numbers
    TrainConfig.validate's (_train_config)."""
    for key in ("n_range_crop", "n_doppler_crop"):
        if cfg["preprocess"][key] < 1:
            raise ConfigError(f"preprocess.{key} must be >= 1, got {cfg['preprocess'][key]}")
    if not 0 <= cfg["train"]["val_fraction"] < 1:
        raise ConfigError(f"train.val_fraction must be in [0, 1), "
                          f"got {cfg['train']['val_fraction']}")
    for section, key, kinds in (("train", "model", MODEL_KINDS), ("eval", "protocol", PROTOCOLS)):
        if cfg[section][key] not in kinds:
            raise ConfigError(f"{section}.{key} must be one of {', '.join(kinds)}, "
                              f"got {cfg[section][key]!r}")


def _dataset_spec(cfg: dict) -> DatasetSpec:
    """The gen section as a DatasetSpec; a key that a row of gen.users or
    gen.placements leaves out takes the UserProfile or ScenePlacement
    default (_load_config checked the keys and types that are there)."""
    g = cfg["gen"]
    return DatasetSpec(
        instances=g["instances"],
        users=tuple(UserProfile(**u) for u in g["users"]),
        placements=tuple(
            ScenePlacement(**{k: Environment.from_name(v) if k == "environment" else v
                              for k, v in p.items()})
            for p in g["placements"]
        ),
        n_frames=g["n_frames"],
        noise_sigma=float(g["noise_sigma"]),
    )


def _write_run_manifest(out_dir: Path, subcommand: str, cfg: dict, seed: int,
                        inputs: dict, outputs: list) -> None:
    doc = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "config": cfg,
        "master_seed": int(seed),
        "inputs": inputs,
        "outputs": [str(p) for p in outputs],
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    (out_dir / f"run_manifest_{subcommand}.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True)
    )


def _worker_count() -> int:
    """Fold workers from RFDM_THREADS (default 1); anything but a positive
    integer is a ConfigError."""
    value = os.environ.get("RFDM_THREADS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"RFDM_THREADS must be a positive integer, got {value!r}")
    return workers


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    radar = RadarConfig(**cfg["radar"])  # _load_config admits only its fields
    spec = _dataset_spec(cfg)
    radar.validate()  # before any output exists
    spec.validate()
    out = Path(args.out)
    (out / "cubes").mkdir(parents=True, exist_ok=True)
    plan = dataset_plan(spec, args.seed)
    rows, writes = [], []
    # One helper thread hashes and writes each cube while the next scene is
    # synthesized, so at most two cubes are alive. Scene k-1's write is
    # collected before scene k's is submitted, in a `finally` so that its
    # error beats scene k's synthesis error: errors surface in plan order.
    with ThreadPoolExecutor(max_workers=1) as writer:
        for row in plan:
            try:
                cube = synthesize_sample(spec, row, radar)
            finally:
                if writes:
                    writes[-1].result()
            entry = dict(row)
            entry["path"] = f"cubes/sample_{row['index']:05d}.rfdc"
            writes.append(writer.submit(write_cube, out / entry["path"], cube))
            rows.append(entry)
    for entry, write in zip(rows, writes):
        entry["sha256"] = write.result()
    write_manifest(out / "dataset_manifest.json", radar, rows,
                   spec={"instances": spec.instances, "n_frames": spec.n_frames,
                         "noise_sigma": spec.noise_sigma,
                         "n_users": len(spec.users), "n_placements": len(spec.placements)})
    _write_run_manifest(out, "gen", cfg, args.seed, {},
                        [r["path"] for r in rows] + ["dataset_manifest.json"])
    counts = {}
    for r in rows:
        counts[r["class_name"]] = counts.get(r["class_name"], 0) + 1
    for name in GESTURE_CLASSES:
        print(f"{name}: {counts.get(name, 0)}")
    print(f"wrote {len(rows)} cubes to {out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _load_config(args.config)
    if args.no_mti:
        cfg["preprocess"]["mti"] = False
    pp = cfg["preprocess"]
    manifest = read_manifest(args.manifest)
    base = Path(args.manifest).parent
    verify_manifest_files(manifest, base, ("index",))
    if "radar_config" not in manifest:  # the cubes' parameters, which only gen knows
        raise ManifestError(f"{args.manifest}: no radar_config field")
    try:
        check_value("radar_config", manifest["radar_config"], asdict(RadarConfig()))
        radar = RadarConfig(**manifest["radar_config"])
        radar.validate()
    except ConfigError as exc:
        raise ManifestError(f"{args.manifest}: radar_config field error: {exc}") from exc
    # the crops against the maps of these cubes, before any output exists
    check_crop(radar.n_chirps, radar.n_samples, pp["mti"], pp["n_range_crop"],
               pp["n_doppler_crop"])
    out = Path(args.out)
    (out / "rfdm").mkdir(parents=True, exist_ok=True)
    rows = []
    for row in manifest["samples"]:
        # a corrupt cube stops the job here, before rfdm_manifest.json is written
        cube = read_cube(base / row["path"], radar, sha256=row["sha256"])
        seq = cube_to_rfdm(cube, mti=pp["mti"], n_range_crop=pp["n_range_crop"],
                           n_doppler_crop=pp["n_doppler_crop"])
        rel = f"rfdm/sample_{row['index']:05d}.rfdm"
        entry = {k: row[k] for k in row if k not in ("path", "sha256")}
        entry["path"] = rel
        entry["cube_path"] = row["path"]
        entry["sha256"] = write_rfdm(out / rel, seq)
        rows.append(entry)
    write_manifest(out / "rfdm_manifest.json", radar, rows, preprocess=pp)
    _write_run_manifest(out, "preprocess", cfg, args.seed,
                        {str(args.manifest): sha256_file(args.manifest)},
                        [r["path"] for r in rows] + ["rfdm_manifest.json"])
    print(f"wrote {len(rows)} rfdm files to {out} (mti={'on' if pp['mti'] else 'off'})")
    return 0


def _load_rfdm_dataset(manifest_path):
    """(sequences [N, T, H, W] in one float64 array, class ids, manifest rows)."""
    manifest = read_manifest(manifest_path)
    base = Path(manifest_path).parent
    verify_manifest_files(manifest, base, ("class_id",))
    rows = manifest["samples"]
    if not rows:
        raise DataError(f"{manifest_path}: no samples")
    x = None
    for k, row in enumerate(rows):
        frames = read_rfdm(base / row["path"], sha256=row["sha256"]).frames
        if x is None:
            x = np.empty((len(rows),) + frames.shape)
        elif frames.shape != x.shape[1:]:
            raise DataError(f"{row['path']}: maps of shape {frames.shape}, "
                            f"but the first file's are {x.shape[1:]}")
        x[k] = frames
    return x, np.array([row["class_id"] for row in rows], dtype=np.intp), rows


def _model_config_for(x: np.ndarray) -> CnnTcnConfig:
    _, t, h, w = x.shape
    return CnnTcnConfig(t_frames=t, height=h, width=w)


def _train_config(cfg: dict, epochs, seed: int) -> TrainConfig:
    """TrainConfig from the config's train section, validated before any
    input is read; an --epochs value overrides it there, so the run
    manifest records it."""
    tr = cfg["train"]
    if epochs is not None:
        tr["epochs"] = epochs
    tcfg = TrainConfig(lr=float(tr["lr"]), batch_size=tr["batch_size"], epochs=tr["epochs"],
                       seed=seed)
    tcfg.validate()
    return tcfg


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    tr = cfg["train"]
    if args.model:
        tr["model"] = args.model
    tcfg = _train_config(cfg, args.epochs, child_seed(args.seed, "sgd"))
    x, labels, _ = _load_rfdm_dataset(args.manifest)
    train_idx, val_idx = carve_validation(np.arange(len(labels)), labels,
                                          substream(args.seed, "train-split"),
                                          float(tr["val_fraction"]))
    model = build_model(tr["model"], _model_config_for(x), init_seed=child_seed(args.seed, "init"))
    res = train_model(model, x, labels, train_idx, val_idx, tcfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "model.rfnn", model)
    write_curve_csv(out / "curve.csv", res.curve)
    _write_run_manifest(out, "train", cfg, args.seed,
                        {str(args.manifest): sha256_file(args.manifest)},
                        ["model.rfnn", "curve.csv"])
    print(f"best val acc {res.best_val_acc:.4f} at epoch {res.best_epoch}; "
          f"checkpoint {out / 'model.rfnn'}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    workers = _worker_count()
    tr = cfg["train"]
    if args.model:
        tr["model"] = args.model
    if args.protocol:
        cfg["eval"]["protocol"] = args.protocol
    protocol, model_kind = cfg["eval"]["protocol"], tr["model"]
    tcfg = _train_config(cfg, args.epochs, 0)  # each fold sets its own seed
    x, labels, meta = _load_rfdm_dataset(args.manifest)
    plans = make_splits(meta, protocol, val_fraction=float(tr["val_fraction"]),
                        seed=child_seed(args.seed, "splits"))
    report = run_protocol(x, labels, plans, model_kind, _model_config_for(x), tcfg,
                          master_seed=child_seed(args.seed, "protocol"), workers=workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    outputs = ["report.json"]
    for fold in report["folds"]:
        name = "confusion_" + fold["id"].replace(":", "_").replace("/", "_") + ".csv"
        write_confusion_csv(out / name, fold["confusion"])
        outputs.append(name)
    _write_run_manifest(out, "eval", cfg, args.seed,
                        {str(args.manifest): sha256_file(args.manifest)}, outputs)
    for fold in report["folds"]:
        print(f"{fold['id']}: accuracy {fold['accuracy']:.4f}")
    print(f"mean accuracy ({protocol}, {model_kind}): {report['mean_accuracy']:.4f}")
    return 0


def cmd_infer(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    lines = []
    for path in args.inputs:
        seq = read_rfdm(path)
        idx, probs = predict(model, seq.frames)
        rec = {
            "path": str(path),
            "class_id": idx,
            "class_name": GESTURE_CLASSES[idx],
            "probs": [float(p) for p in probs],
        }
        lines.append(json.dumps(rec, sort_keys=True))
        print(lines[-1])
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfdm",
        description="Synthetic FMCW gesture radar: generate, preprocess, train, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"rfdm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", required=True, help="output directory")
        if manifest:
            p.add_argument("--manifest", required=True, help="input manifest path")

    p = sub.add_parser("gen", help="synthesize a labeled gesture cube dataset")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("preprocess", help="cubes -> conditioned RFDM sequences")
    common(p, manifest=True)
    p.add_argument("--no-mti", action="store_true", help="bypass the 4th-order MTI stage")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a classifier on an RFDM manifest")
    common(p, manifest=True)
    p.add_argument("--model", choices=MODEL_KINDS, help="model kind")
    p.add_argument("--epochs", type=int, help="override the configured epoch count")
    p.add_argument("--verbose", action="store_true", help="log each epoch to stderr")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run an evaluation protocol")
    common(p, manifest=True)
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--verbose", action="store_true",
                   help="log each fold's epochs and test accuracy to stderr")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="classify RFDM files with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="optional JSONL output path")
    p.add_argument("inputs", nargs="+", help=".rfdm files")
    p.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors / --version
        return int(exc.code or 0)
    if args.command == "infer" and not Path(args.checkpoint).exists():
        print(f"rfdm infer: checkpoint not found: {args.checkpoint}", file=sys.stderr)
        return 2
    logger = logging.getLogger("rfdm")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    if getattr(args, "verbose", False):  # INFO lines to stderr, for this call only
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        code = next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
        print(f"rfdm {args.command}: {exc}", file=sys.stderr)
        return code
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    raise SystemExit(main())
