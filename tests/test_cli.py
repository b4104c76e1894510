import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rfdm import cli
from rfdm.cli import main
from rfdm.errors import (
    ConfigError,
    DataError,
    IntegrityError,
    ManifestError,
    PlacementError,
    ShapeError,
    SimulationError,
)
from rfdm.io import read_manifest, read_rfdm

SMOKE_CONFIG = {
    "gen": {
        "instances": 1,
        "n_frames": 8,
        "noise_sigma": 0.5,
        "users": [
            {"speed_scale": 1.0, "amplitude_scale": 1.0, "extent_scale": 1.0,
             "jitter_sigma": 0.002},
            {"speed_scale": 1.1, "amplitude_scale": 0.9, "extent_scale": 1.1,
             "jitter_sigma": 0.002},
        ],
        "placements": [
            {"base_range": 0.75, "azimuth_deg": 0.0, "environment": "Classroom"},
            {"base_range": 1.0, "azimuth_deg": 15.0, "environment": "Office"},
        ],
    },
    "preprocess": {"mti": False, "n_range_crop": 16, "n_doppler_crop": 16},
    "train": {"lr": 2e-3, "batch_size": 8, "epochs": 2, "model": "cnn-tcn",
              "val_fraction": 0.15, "patience": None},
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """gen + preprocess once for the whole module."""
    root = tmp_path_factory.mktemp("smoke")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMOKE_CONFIG))
    gen_dir = root / "gen"
    assert main(["gen", "--config", str(cfg_path), "--out", str(gen_dir), "--seed", "7"]) == 0
    pp_dir = root / "pp"
    assert main([
        "preprocess", "--config", str(cfg_path), "--seed", "7",
        "--manifest", str(gen_dir / "dataset_manifest.json"), "--out", str(pp_dir),
    ]) == 0
    return root, cfg_path, gen_dir, pp_dir


def tree_hashes(root: Path, exclude_run_manifests=True) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            if exclude_run_manifests and p.name.startswith("run_manifest_"):
                continue
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestGen:
    def test_manifest_matches_files_and_counts(self, smoke, capsys):
        _, cfg_path, gen_dir, _ = smoke
        man = read_manifest(gen_dir / "dataset_manifest.json")
        cube_files = sorted((gen_dir / "cubes").glob("*.rfdc"))
        assert len(man["samples"]) == len(cube_files) == 7 * 2 * 2
        counts = {}
        for row in man["samples"]:
            counts[row["class_name"]] = counts.get(row["class_name"], 0) + 1
        assert set(counts.values()) == {4}

    def test_same_seed_same_hashes(self, smoke, tmp_path):
        root, cfg_path, gen_dir, _ = smoke
        again = tmp_path / "gen2"
        assert main(["gen", "--config", str(cfg_path), "--out", str(again), "--seed", "7"]) == 0
        h1 = {k: v for k, v in tree_hashes(gen_dir).items() if k.startswith("cubes/")}
        h2 = {k: v for k, v in tree_hashes(again).items() if k.startswith("cubes/")}
        assert h1 == h2


class TestPreprocess:
    def test_output_shapes(self, smoke):
        _, _, _, pp_dir = smoke
        man = read_manifest(pp_dir / "rfdm_manifest.json")
        seq = read_rfdm(pp_dir / man["samples"][0]["path"])
        assert seq.frames.shape == (8, 16, 16)

    def test_hash_mismatch_detected(self, smoke, tmp_path):
        root, cfg_path, gen_dir, _ = smoke
        # copy the dataset and corrupt one cube
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(gen_dir, broken)
        victim = sorted((broken / "cubes").glob("*.rfdc"))[0]
        data = bytearray(victim.read_bytes())
        data[100] ^= 0x1
        victim.write_bytes(bytes(data))
        rc = main([
            "preprocess", "--config", str(cfg_path), "--seed", "7",
            "--manifest", str(broken / "dataset_manifest.json"),
            "--out", str(tmp_path / "pp"),
        ])
        assert rc == 5

    def test_no_mti_flag_preserves_moving_peak(self, tmp_path):
        # a noise-free constant-velocity target keeps its Doppler peak bin
        # whether or not the MTI stage runs (MTI attenuates, DC excepted)
        from rfdm.io import write_cube, write_dataset_manifest
        from rfdm.radar import RadarConfig, linear_scatterer, synthesize_cube

        radar = RadarConfig()
        v = 3.0 * radar.doppler_resolution
        cube = synthesize_cube(radar, [linear_scatterer(5.0, v)], n_frames=2)
        (tmp_path / "cubes").mkdir()
        write_cube(tmp_path / "cubes" / "t.rfdc", cube)
        rows = [{"index": 0, "path": "cubes/t.rfdc", "class_name": "Push", "class_id": 4,
                 "user_id": 0, "location_id": 0, "environment": "Classroom",
                 "base_range": 0.75, "azimuth_deg": 0.0, "instance": 0, "seed": 0}]
        write_dataset_manifest(tmp_path / "dataset_manifest.json", radar, {}, rows)
        for flags, name in (([], "on"), (["--no-mti"], "off")):
            assert main([
                "preprocess", "--seed", "1", "--manifest",
                str(tmp_path / "dataset_manifest.json"),
                "--out", str(tmp_path / f"pp_{name}"), *flags,
            ]) == 0
        on = read_rfdm(tmp_path / "pp_on" / "rfdm" / "sample_00000.rfdm").frames
        off = read_rfdm(tmp_path / "pp_off" / "rfdm" / "sample_00000.rfdm").frames
        peak_on = int(np.argmax(on.sum(axis=(0, 1))))
        peak_off = int(np.argmax(off.sum(axis=(0, 1))))
        assert abs(peak_on - peak_off) <= 1
        assert peak_off == 16 + 3  # predicted bin in the 32-wide center crop

    def test_no_mti_cli_flag(self, smoke, tmp_path):
        root, cfg_path, gen_dir, _ = smoke
        cfg_on = json.loads(Path(cfg_path).read_text())
        cfg_on["preprocess"]["mti"] = True
        cfg2 = tmp_path / "cfg.json"
        cfg2.write_text(json.dumps(cfg_on))
        out = tmp_path / "pp"
        assert main([
            "preprocess", "--config", str(cfg2), "--seed", "7", "--no-mti",
            "--manifest", str(gen_dir / "dataset_manifest.json"), "--out", str(out),
        ]) == 0
        man = json.loads((out / "rfdm_manifest.json").read_text())
        assert man["preprocess"]["mti"] is False


@pytest.fixture(scope="module")
def trained(smoke, tmp_path_factory):
    root, cfg_path, _, pp_dir = smoke
    out = tmp_path_factory.mktemp("train")
    rc = main([
        "train", "--config", str(cfg_path), "--seed", "3",
        "--manifest", str(pp_dir / "rfdm_manifest.json"), "--out", str(out),
    ])
    assert rc == 0
    return out


class TestTrainEvalInfer:

    def test_train_outputs(self, trained):
        assert (trained / "model.rfnn").exists()
        lines = (trained / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_acc"
        assert len(lines) == 3  # 2 epochs

    def test_infer_runs_and_reports(self, smoke, trained, capsys):
        _, _, _, pp_dir = smoke
        man = read_manifest(pp_dir / "rfdm_manifest.json")
        target = str(pp_dir / man["samples"][0]["path"])
        rc = main(["infer", "--checkpoint", str(trained / "model.rfnn"), target])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec["path"] == target
        assert len(rec["probs"]) == 7
        assert abs(sum(rec["probs"]) - 1.0) < 1e-9

    def test_infer_corrupt_checkpoint_is_integrity_error(self, trained, tmp_path):
        bad = tmp_path / "bad.rfnn"
        raw = (trained / "model.rfnn").read_bytes()
        bad.write_bytes(raw[:12] + b"\x00" + raw[13:])  # first descriptor byte
        assert main(["infer", "--checkpoint", str(bad), "x.rfdm"]) == 5

    def test_infer_missing_checkpoint_usage_error(self, capsys):
        rc = main(["infer", "--checkpoint", "/nonexistent/m.rfnn", "x.rfdm"])
        assert rc == 2

    def test_eval_loocv_fold_count(self, smoke, tmp_path):
        root, cfg_path, _, pp_dir = smoke
        out = tmp_path / "eval"
        rc = main([
            "eval", "--config", str(cfg_path), "--seed", "5", "--protocol", "loocv",
            "--manifest", str(pp_dir / "rfdm_manifest.json"), "--out", str(out),
            "--epochs", "1",
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["protocol"] == "loocv"
        assert len(report["folds"]) == 2  # two users in the smoke config
        for fold in report["folds"]:
            conf = np.array(fold["confusion"]["counts"])
            assert fold["accuracy"] == pytest.approx(np.trace(conf) / conf.sum())


class TestPlot:
    def test_rfdm_to_pgm_and_csv(self, smoke, tmp_path):
        _, _, _, pp_dir = smoke
        man = read_manifest(pp_dir / "rfdm_manifest.json")
        src = pp_dir / man["samples"][0]["path"]
        assert main(["plot", "--input", str(src), "--out", str(tmp_path / "m"),
                     "--format", "pgm"]) == 0
        pgms = sorted(tmp_path.glob("m_f*.pgm"))
        assert len(pgms) == 8 and pgms[0].read_bytes().startswith(b"P5\n")
        assert main(["plot", "--input", str(src), "--out", str(tmp_path / "c"),
                     "--format", "csv"]) == 0
        assert len(sorted(tmp_path.glob("c_f*.csv"))) == 8

    def test_confusion_json_to_csv(self, tmp_path):
        names = ["SwipeLeft", "SwipeRight", "SwipeUp", "SwipeDown", "Push", "Pull", "Circle"]
        doc = {"class_names": names, "counts": np.eye(7, dtype=int).tolist()}
        src = tmp_path / "conf.json"
        src.write_text(json.dumps(doc))
        assert main(["plot", "--input", str(src), "--out", str(tmp_path / "conf.csv")]) == 0
        lines = (tmp_path / "conf.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[1:] == names

    def test_unknown_input_type(self, tmp_path):
        bad = tmp_path / "x.txt"
        bad.write_text("hi")
        assert main(["plot", "--input", str(bad), "--out", str(tmp_path / "o")]) == 3


class TestUsage:
    def test_unknown_flag_usage_error(self):
        assert main(["gen", "--frobnicate"]) == 2

    def test_missing_subcommand(self):
        assert main([]) == 2


class TestExitCodes:
    @pytest.mark.parametrize("exc, code", [
        (IntegrityError, 5),
        (ManifestError, 4),
        (DataError, 4),
        (SimulationError, 6),
        (PlacementError, 6),
        (ConfigError, 3),
        (ShapeError, 3),
        (ValueError, 3),
        (OSError, 1),
        (FileNotFoundError, 1),
    ])
    def test_exception_maps_to_exit_code(self, monkeypatch, capsys, exc, code):
        def raise_it(args):
            raise exc("boom")

        monkeypatch.setattr(cli, "cmd_plot", raise_it)
        assert main(["plot", "--input", "x.rfdm", "--out", "o"]) == code
        assert capsys.readouterr().err == "rfdm plot: boom\n"

    def test_unmapped_exception_propagates(self, monkeypatch):
        def raise_it(args):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "cmd_plot", raise_it)
        with pytest.raises(RuntimeError, match="bug"):
            main(["plot", "--input", "x.rfdm", "--out", "o"])
