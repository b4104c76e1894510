"""Command-line entry point: gen, preprocess, train, eval, infer, plot.

One JSON config file drives the pipeline; flags override file values which
override defaults. All randomness flows from --seed through named
sub-streams, and every subcommand emits a run manifest (the only artifact
carrying a timestamp) so runs can be reproduced bit-for-bit.

Exit codes: 0 ok, 1 internal/IO, 2 usage, 3 configuration, 4 data/manifest,
5 integrity, 6 simulation.
"""

import argparse
import datetime
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .dsp import cube_to_rfdm
from .errors import (
    ConfigError,
    DataError,
    IntegrityError,
    ManifestError,
    ShapeError,
    SimulationError,
)
from .evaluate import make_splits, run_protocol
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
from .model import CnnTcnConfig, TrainConfig, build_model, predict, train_model
from .radar import RadarConfig
from .seeding import child_seed, substream

CLASS_NAMES = tuple(g.value for g in GESTURE_CLASSES)

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
)


def _default_config() -> dict:
    bench = standard_benchmark_spec(instances=2)
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
        "preprocess": {
            "window": "hann",
            "mti": True,
            "n_range_crop": 32,
            "n_doppler_crop": 32,
            "scale_mode": "linear-maxnorm",
        },
        "train": {
            "lr": 5e-4,
            "batch_size": 32,
            "epochs": 30,
            "patience": None,
            "model": "cnn-tcn",
            "val_fraction": 0.15,
        },
        "eval": {"protocol": "loocv"},
    }


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _load_config(path) -> dict:
    cfg = _default_config()
    if path:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config {path}: top level must be a JSON object")
        cfg = _merge(cfg, user)
    return cfg


def _radar_config(cfg: dict) -> RadarConfig:
    return RadarConfig(**cfg["radar"])


def _dataset_spec(cfg: dict) -> DatasetSpec:
    g = cfg["gen"]
    try:
        users = tuple(UserProfile(**u) for u in g["users"])
        placements = tuple(
            ScenePlacement(p["base_range"], p["azimuth_deg"],
                           Environment.from_name(p["environment"]))
            for p in g["placements"]
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"gen config field error: {exc}") from exc
    return DatasetSpec(
        instances=int(g["instances"]),
        users=users,
        placements=placements,
        n_frames=int(g["n_frames"]),
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
    try:
        return max(1, int(os.environ.get("RFDM_THREADS", "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    radar = _radar_config(cfg)
    spec = _dataset_spec(cfg)
    out = Path(args.out)
    (out / "cubes").mkdir(parents=True, exist_ok=True)
    plan = dataset_plan(spec, args.seed)
    rows = []
    for row in plan:
        cube = synthesize_sample(spec, row, radar)
        rel = f"cubes/sample_{row['index']:05d}.rfdc"
        entry = dict(row)
        entry["path"] = rel
        entry["location"] = {"range": row["base_range"], "azimuth": row["azimuth_deg"]}
        entry["sha256"] = write_cube(out / rel, cube)
        rows.append(entry)
    write_dataset_manifest(out / "dataset_manifest.json", radar,
                           {"instances": spec.instances, "n_frames": spec.n_frames,
                            "noise_sigma": spec.noise_sigma,
                            "n_users": len(spec.users), "n_placements": len(spec.placements)},
                           rows)
    _write_run_manifest(out, "gen", cfg, args.seed, {},
                        [r["path"] for r in rows] + ["dataset_manifest.json"])
    counts = {}
    for r in rows:
        counts[r["class_name"]] = counts.get(r["class_name"], 0) + 1
    for name in CLASS_NAMES:
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
    verify_manifest_files(manifest, base)
    radar = RadarConfig(**manifest.get("radar_config", cfg["radar"]))
    out = Path(args.out)
    (out / "rfdm").mkdir(parents=True, exist_ok=True)
    rows = []
    for row in manifest["samples"]:
        cube = read_cube(base / row["path"], radar)
        seq = cube_to_rfdm(
            cube,
            window=pp["window"],
            mti=bool(pp["mti"]),
            n_range_crop=int(pp["n_range_crop"]),
            n_doppler_crop=int(pp["n_doppler_crop"]),
            scale_mode=pp["scale_mode"],
        )
        rel = f"rfdm/sample_{row['index']:05d}.rfdm"
        write_rfdm(out / rel, seq)
        entry = {k: row[k] for k in row if k not in ("path", "sha256")}
        entry["path"] = rel
        entry["cube_path"] = row["path"]
        entry["sha256"] = sha256_file(out / rel)
        rows.append(entry)
    doc = {
        "version": 1,
        "radar_config": asdict(radar),
        "preprocess": pp,
        "samples": rows,
    }
    (out / "rfdm_manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    _write_run_manifest(out, "preprocess", cfg, args.seed,
                        {str(args.manifest): sha256_file(args.manifest)},
                        [r["path"] for r in rows] + ["rfdm_manifest.json"])
    print(f"wrote {len(rows)} rfdm files to {out} (mti={'on' if pp['mti'] else 'off'})")
    return 0


def _load_rfdm_dataset(manifest_path):
    manifest = read_manifest(manifest_path)
    base = Path(manifest_path).parent
    verify_manifest_files(manifest, base)
    xs, labels, meta = [], [], []
    for row in manifest["samples"]:
        seq = read_rfdm(base / row["path"])
        xs.append(seq.frames)
        labels.append(int(row["class_id"]))
        meta.append(row)
    x = np.asarray(xs, dtype=np.float64)
    return x, np.asarray(labels, dtype=np.intp), meta, manifest


def _model_config_for(x: np.ndarray) -> CnnTcnConfig:
    _, t, h, w = x.shape
    return CnnTcnConfig(t_frames=t, height=h, width=w)


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    tr = cfg["train"]
    if args.model:
        tr["model"] = args.model
    if args.epochs is not None:
        tr["epochs"] = args.epochs
    x, labels, meta, _ = _load_rfdm_dataset(args.manifest)
    model_cfg = _model_config_for(x)
    rng = substream(args.seed, "train-split")
    order = rng.permutation(len(labels))
    n_val = max(1, int(round(tr["val_fraction"] * len(labels))))
    val_idx, train_idx = np.sort(order[:n_val]), np.sort(order[n_val:])
    model = build_model(tr["model"], model_cfg, init_seed=child_seed(args.seed, "init"))
    tcfg = TrainConfig(lr=float(tr["lr"]), batch_size=int(tr["batch_size"]),
                       epochs=int(tr["epochs"]), seed=child_seed(args.seed, "sgd"),
                       patience=tr["patience"])
    res = train_model(model, x, labels, train_idx, val_idx, tcfg,
                      class_names=CLASS_NAMES, log=print if args.verbose else None)
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
    tr = cfg["train"]
    protocol = args.protocol or cfg["eval"]["protocol"]
    model_kind = args.model or tr["model"]
    if args.epochs is not None:
        tr["epochs"] = args.epochs
    x, labels, meta, _ = _load_rfdm_dataset(args.manifest)
    plans = make_splits(meta, protocol, labels=labels, seed=child_seed(args.seed, "splits"))
    tcfg = TrainConfig(lr=float(tr["lr"]), batch_size=int(tr["batch_size"]),
                       epochs=int(tr["epochs"]), seed=0, patience=tr["patience"])
    result = run_protocol(
        x, labels, plans, model_kind, _model_config_for(x), tcfg,
        master_seed=child_seed(args.seed, "protocol"),
        class_names=CLASS_NAMES, log=print if args.verbose else None,
        workers=_worker_count(),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = result.to_dict()
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
    print(f"mean accuracy ({protocol}, {model_kind}): {result.mean_accuracy:.4f}")
    return 0


def cmd_infer(args) -> int:
    ckpt = Path(args.checkpoint)
    model, _ = load_checkpoint(ckpt)
    lines = []
    for path in args.inputs:
        seq = read_rfdm(path)
        idx, probs = predict(model, seq.frames)
        rec = {
            "path": str(path),
            "class_id": idx,
            "class_name": CLASS_NAMES[idx] if idx < len(CLASS_NAMES) else str(idx),
            "probs": [float(p) for p in probs],
        }
        lines.append(json.dumps(rec, sort_keys=True))
        print(lines[-1])
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def cmd_plot(args) -> int:
    src = Path(args.input)
    out_stem = Path(args.out)
    if src.suffix == ".rfdm":
        seq = read_rfdm(src)
        if args.format == "pgm":
            paths = write_rfdm_pgm(out_stem, seq)
        else:
            paths = write_rfdm_csv(out_stem, seq)
        print(f"wrote {len(paths)} {args.format} files")
        return 0
    if src.suffix == ".json":
        doc = json.loads(src.read_text())
        if "folds" in doc:  # protocol report: aggregate the fold counts
            counts = None
            names = None
            for fold in doc["folds"]:
                c = np.array(fold["confusion"]["counts"])
                names = fold["confusion"]["class_names"]
                counts = c if counts is None else counts + c
            conf = {"class_names": names, "counts": counts.tolist()}
        elif "counts" in doc:
            conf = doc
        else:
            raise DataError(f"{src}: no confusion data found")
        target = out_stem if out_stem.suffix == ".csv" else Path(str(out_stem) + ".csv")
        write_confusion_csv(target, conf)
        print(f"wrote {target}")
        return 0
    raise ConfigError(f"cannot plot {src}: expected a .rfdm or .json input")


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
    p.add_argument("--model", choices=["cnn-tcn", "cnn"], help="model kind")
    p.add_argument("--epochs", type=int, help="override the configured epoch count")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run an evaluation protocol")
    common(p, manifest=True)
    p.add_argument("--protocol", choices=["loocv", "location", "environment", "random"])
    p.add_argument("--model", choices=["cnn-tcn", "cnn"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="classify RFDM files with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="optional JSONL output path")
    p.add_argument("inputs", nargs="+", help=".rfdm files")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("plot", help="export RFDM heatmaps or confusion tables")
    p.add_argument("--input", required=True, help=".rfdm or report/confusion .json")
    p.add_argument("--out", required=True, help="output path stem")
    p.add_argument("--format", choices=["csv", "pgm"], default="csv")
    p.set_defaults(func=cmd_plot)
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
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        code = next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
        print(f"rfdm {args.command}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
