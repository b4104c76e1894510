import argparse
import builtins
import hashlib
import io
import json
import logging
import os
import re
import shutil
import struct
import threading
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    PAST_RADAR_KEYS,
    older_checkpoint_layout,
    radar_key_refusal,
    rewrite_descriptor,
    with_structure_keys,
)
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
from rfdm.gestures import GESTURE_CLASSES, Environment, ScenePlacement, UserProfile
from rfdm.io import read_manifest, read_rfdm, sha256_file, write_cube, write_rfdm
from rfdm.radar import RadarConfig

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
              "val_fraction": 0.15},
}

PLACEMENT = SMOKE_CONFIG["gen"]["placements"][0]


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


@pytest.fixture
def opens(monkeypatch):
    """Counts the opens of each file path, through open() and pathlib alike."""
    counts = Counter()
    real = io.open

    def counting(file, *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)):
            counts[os.path.realpath(file)] += 1
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    monkeypatch.setattr(io, "open", counting)
    return counts


def tree_hashes(root: Path, exclude_run_manifests=True) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            if exclude_run_manifests and p.name.startswith("run_manifest_"):
                continue
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestGen:
    def test_unknown_radar_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radar": {"f_cc": 1}}))
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "gen")])
        assert rc == 3
        assert "f_cc" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, fragment", [
        ({"train": {"patience": 3}}, "unknown config key 'train.patience'"),
        ({"evaluate": {"protocol": "loocv"}}, "unknown config key 'evaluate'"),
        ({"gen": {"users": [], "seed": 1}}, "unknown config key 'gen.seed'"),
        ({"eval": "loocv"}, 'eval must be an object, got "loocv"'),
        ([{"eval": {}}], 'the top level must be an object, got [{"eval": {}}]'),
        ({"preprocess": {"window": "hann"}}, "unknown config key 'preprocess.window'"),
        ({"preprocess": {"scale_mode": "log-db"}}, "unknown config key 'preprocess.scale_mode'"),
        ({"gen": {"placements": [dict(PLACEMENT, colour="red")]}},
         "unknown config key 'gen.placements[0].colour'"),
        ({"gen": {"users": [{"speed_scale": 1.0}, {"height": 1.8}]}},
         "unknown config key 'gen.users[1].height'"),
        ({"radar": {"n_rx": 1}}, "unknown config key 'radar.n_rx'"),
        ({"radar": {"f_c": 77.144e9}}, "unknown config key 'radar.f_c'"),
    ], ids=["train-key", "section", "gen-key", "non-object-section", "non-object-top-level",
            "preprocess-window", "preprocess-scale_mode", "placement-key", "user-key",
            "radar-n_rx", "radar-f_c"])
    def test_config_keys_outside_the_defaults_are_config_errors(self, tmp_path, capsys,
                                                                doc, fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "gen")])
        assert rc == 3
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("doc, fragment", [
        ({"radar": {"n_chirps": "x"}}, 'radar.n_chirps must be an integer, got "x"'),
        ({"radar": {"n_chirps": 64.0}}, "radar.n_chirps must be an integer, got 64.0"),
        ({"radar": {"f_s": "fast"}}, radar_key_refusal("radar", "f_s", "fast")),
        ({"gen": {"users": [{"speed_scale": "fast"}]}}, "config value of the wrong type"),
        ({"gen": {"instances": None}}, "gen.instances must be an integer, got null"),
        ({"gen": {"noise_sigma": True}}, "gen.noise_sigma must be a number, got true"),
        ({"preprocess": {"n_range_crop": None}}, "preprocess.n_range_crop must be an integer"),
        ({"preprocess": {"mti": "false"}}, 'preprocess.mti must be a boolean, got "false"'),
        ({"preprocess": {"mti": 0}}, "preprocess.mti must be a boolean, got 0"),
        ({"train": {"lr": None}}, "train.lr must be a number, got null"),
        ({"train": {"val_fraction": [0.1]}}, "train.val_fraction must be a number, got [0.1]"),
        ({"train": {"model": 1}}, "train.model must be a string, got 1"),
        ({"gen": {"users": {}}}, "gen.users must be an array, got {}"),
        ({"gen": {"users": [{"speed_scale": True}]}},
         "config value of the wrong type: gen.users[0].speed_scale must be a number, got true"),
        ({"gen": {"placements": [dict(PLACEMENT, base_range=True)]}},
         "gen.placements[0].base_range must be a number, got true"),
        ({"gen": {"placements": [dict(PLACEMENT, environment=1)]}},
         "gen.placements[0].environment must be a string, got 1"),
        ({"gen": {"users": [3]}}, "gen.users[0] must be an object, got 3"),
    ] + [  # a JSON bool is no number, though Python counts it as 1 or 0; a key of
        # the fixed front end, which older configs hold, is refused whatever its value
        ({"radar": {key: True}}, radar_key_refusal("radar", key, True))
        for key in PAST_RADAR_KEYS
    ], ids=["radar-count", "radar-float-count", "radar-rate", "user-scale", "instances-null",
            "bool-number", "crop-null", "mti-string", "mti-int", "lr-null", "val-fraction-list",
            "model-int", "users-object", "user-bool-scale", "placement-bool-range",
            "placement-int-environment", "user-row-number"]
        + [f"radar-bool-{key}" for key in PAST_RADAR_KEYS])
    def test_values_of_the_wrong_type_are_config_errors(self, tmp_path, capsys, doc,
                                                        fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "gen")])
        assert rc == 3
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("command", ["preprocess", "train", "eval"])
    def test_wrong_type_stops_each_command_before_output(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preprocess": {"n_range_crop": None},
                                   "train": {"lr": None}}))
        rc = main([command, "--config", str(cfg), "--manifest", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "config value of the wrong type" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, doc, fragment", [
        ("gen", {"gen": {"n_frames": 0}}, "n_frames must be >= 1, got 0"),
        ("gen", {"gen": {"n_frames": -3}}, "n_frames must be >= 1, got -3"),
        ("gen", {"gen": {"noise_sigma": -1.0}}, "noise_sigma must be >= 0, got -1.0"),
        ("preprocess", {"preprocess": {"n_range_crop": 0}},
         "preprocess.n_range_crop must be >= 1, got 0"),
        ("preprocess", {"preprocess": {"n_doppler_crop": -5}},
         "preprocess.n_doppler_crop must be >= 1, got -5"),
        ("train", {"train": {"val_fraction": -0.5}},
         "train.val_fraction must be in [0, 1), got -0.5"),
        ("train", {"train": {"val_fraction": 1}}, "train.val_fraction must be in [0, 1), got 1"),
        ("eval", {"train": {"val_fraction": 1.5}},
         "train.val_fraction must be in [0, 1), got 1.5"),
        # json reads NaN and Infinity; no config number may be either
        ("train", {"train": {"lr": float("nan")}}, "train.lr must be a finite number, got NaN"),
        ("gen", {"gen": {"noise_sigma": float("inf")}},
         "gen.noise_sigma must be a finite number, got Infinity"),
        ("gen", {"gen": {"users": [{"speed_scale": -float("inf")}]}},
         "gen.users[0].speed_scale must be a finite number, got -Infinity"),
        ("preprocess", {"radar": {"n_samples": float("nan")}},
         "radar.n_samples must be an integer, got NaN"),
    ], ids=["frames-zero", "frames-negative", "noise-negative", "range-crop-zero",
            "doppler-crop-negative", "val-fraction-negative", "val-fraction-one",
            "val-fraction-above-one", "lr-nan", "noise-infinite", "user-scale-minus-infinite",
            "radar-nan"])
    def test_values_outside_their_domain_stop_before_output(self, tmp_path, capsys, command,
                                                           doc, fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command != "gen":
            args += ["--manifest", str(tmp_path / "none.json")]
        assert main(args) == 3
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_hand_faster_than_the_doppler_span_is_placement_error(self, tmp_path, capsys):
        # a fast, wide swipe made within one 100 ms frame crosses the
        # +/-29.51 m/s Doppler span
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"n_frames": 1, "users": [
            {"speed_scale": 1.5, "extent_scale": 1.5}]}}))
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "gen")])
        assert rc == 6
        assert "SwipeLeft exceeds the unambiguous velocity 29.51 m/s" in capsys.readouterr().err
        assert not (tmp_path / "gen" / "dataset_manifest.json").exists()

    def test_cube_too_large_to_allocate_is_one_line_exit_1(self, tmp_path, capsys):
        # the slow-time grid of 10**17 frames (711 PiB) exceeds the 128 PiB
        # of a 57-bit address space, so its allocation is refused at once,
        # before any cube
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"n_frames": 10**17}}))
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "gen")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("rfdm gen: Unable to allocate") and err.count("\n") == 1
        assert not list((tmp_path / "gen" / "cubes").iterdir())

    def test_an_int_is_a_number(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"lr": 1}}))
        cfg = cli._load_config(path)
        assert cfg["train"] == {**cli._default_config()["train"], "lr": 1}

    def test_rows_missing_keys_take_the_dataclass_defaults(self, tmp_path):
        # as a gen.users row takes the UserProfile defaults, a gen.placements
        # row takes the ScenePlacement ones, the environment included
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gen": {
            "users": [{"speed_scale": 1.2}],
            "placements": [{"base_range": 0.9, "environment": "Office"}, {"azimuth_deg": 10.0}],
        }}))
        cfg = cli._load_config(path)
        spec = cli._dataset_spec(cfg)
        assert spec.users == (UserProfile(speed_scale=1.2),)
        assert spec.placements == (ScenePlacement(0.9, 0.0, Environment.OFFICE),
                                   ScenePlacement(azimuth_deg=10.0))

    def test_manifest_matches_files_and_counts(self, smoke, capsys):
        _, cfg_path, gen_dir, _ = smoke
        man = read_manifest(gen_dir / "dataset_manifest.json")
        cube_files = sorted((gen_dir / "cubes").glob("*.rfdc"))
        assert len(man["samples"]) == len(cube_files) == 7 * 2 * 2
        counts = {}
        for row in man["samples"]:
            counts[row["class_name"]] = counts.get(row["class_name"], 0) + 1
        assert set(counts.values()) == {4}

    def test_each_row_names_the_gesture_of_its_class_id(self, smoke):
        rows = read_manifest(smoke[2] / "dataset_manifest.json")["samples"]
        assert {row["class_id"] for row in rows} == set(range(len(GESTURE_CLASSES)))
        for row in rows:
            assert row["class_name"] == GESTURE_CLASSES[row["class_id"]]

    def test_rows_record_the_placement_once(self, smoke):
        _, _, gen_dir, _ = smoke
        row = read_manifest(gen_dir / "dataset_manifest.json")["samples"][0]
        assert {"base_range", "azimuth_deg", "location_id"} <= set(row)
        assert "location" not in row

    def test_same_seed_same_hashes(self, smoke, tmp_path):
        root, cfg_path, gen_dir, _ = smoke
        again = tmp_path / "gen2"
        assert main(["gen", "--config", str(cfg_path), "--out", str(again), "--seed", "7"]) == 0
        h1 = {k: v for k, v in tree_hashes(gen_dir).items() if k.startswith("cubes/")}
        h2 = {k: v for k, v in tree_hashes(again).items() if k.startswith("cubes/")}
        assert h1 == h2


def small_cube(index):
    """A stand-in for a synthesized scene: a 2 x 4 x 8 cube drawn from the
    scene's index."""
    rng = np.random.default_rng(index)
    return rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))


class TestGenWriter:
    """gen hashes and writes each cube on one helper thread while it
    synthesizes the next: rows, files and errors keep plan order, and the
    thread is joined before gen returns."""

    @pytest.fixture
    def gen_args(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE_CONFIG))
        return ["gen", "--config", str(cfg), "--out", str(tmp_path / "gen"), "--seed", "7"]

    @staticmethod
    def fail_synthesis_at(monkeypatch, k):
        def synthesize(spec, row, radar):
            if row["index"] == k:
                raise SimulationError(f"scene {k} cannot be synthesized")
            return small_cube(row["index"])

        monkeypatch.setattr(cli, "synthesize_sample", synthesize)

    def test_synthesis_error_keeps_the_cubes_before_it(self, tmp_path, monkeypatch, capsys,
                                                       gen_args):
        k = 5
        self.fail_synthesis_at(monkeypatch, k)
        threads = threading.active_count()
        assert main(gen_args) == 6
        assert threading.active_count() == threads
        assert f"scene {k} cannot be synthesized" in capsys.readouterr().err
        cubes = tmp_path / "gen" / "cubes"
        assert sorted(p.name for p in cubes.iterdir()) == [f"sample_{i:05d}.rfdc"
                                                          for i in range(k)]
        for i in range(k):  # each digest is the one a write on this thread gives
            assert (sha256_file(cubes / f"sample_{i:05d}.rfdc")
                    == write_cube(tmp_path / "sequential.rfdc", small_cube(i)))
        assert not (tmp_path / "gen" / "dataset_manifest.json").exists()

    def test_write_error_beats_the_next_scenes_synthesis_error(self, tmp_path, monkeypatch,
                                                               capsys, gen_args):
        k = 3
        self.fail_synthesis_at(monkeypatch, k + 1)
        real = cli.write_cube

        def write(path, cube):
            if path.name == f"sample_{k:05d}.rfdc":
                raise OSError(f"no space left writing {path.name}")
            return real(path, cube)

        monkeypatch.setattr(cli, "write_cube", write)
        threads = threading.active_count()
        assert main(gen_args) == 1
        assert threading.active_count() == threads
        err = capsys.readouterr().err
        assert err == f"rfdm gen: no space left writing sample_{k:05d}.rfdc\n"
        assert not (tmp_path / "gen" / "dataset_manifest.json").exists()

    def test_slow_writes_keep_plan_order_and_bytes(self, smoke, tmp_path, monkeypatch):
        _, cfg_path, gen_dir, _ = smoke
        real = cli.write_cube
        writers = set()

        def slow_write(path, cube):
            time.sleep(0.001)
            writers.add(threading.current_thread())
            return real(path, cube)

        monkeypatch.setattr(cli, "write_cube", slow_write)
        threads = threading.active_count()
        again = tmp_path / "gen"
        assert main(["gen", "--config", str(cfg_path), "--out", str(again), "--seed", "7"]) == 0
        assert threading.active_count() == threads
        assert len(writers) == 1 and threading.main_thread() not in writers
        rows = read_manifest(again / "dataset_manifest.json")["samples"]
        assert [row["index"] for row in rows] == list(range(len(rows)))
        assert tree_hashes(again) == tree_hashes(gen_dir)


@pytest.mark.parametrize("name, section", [
    ("gen/dataset_manifest.json", "spec"),
    ("pp/rfdm_manifest.json", "preprocess"),
], ids=["dataset", "rfdm"])
def test_manifest_layout(smoke, name, section):
    text = (smoke[0] / name).read_text()
    doc = json.loads(text)
    assert set(doc) == {"version", "radar_config", section, "samples"}
    assert doc["version"] == 1
    assert text == json.dumps(doc, indent=2, sort_keys=True)


class TestPreprocess:
    def test_output_shapes(self, smoke):
        _, _, _, pp_dir = smoke
        man = read_manifest(pp_dir / "rfdm_manifest.json")
        seq = read_rfdm(pp_dir / man["samples"][0]["path"])
        assert seq.frames.shape == (8, 16, 16)

    def test_manifest_digests_match_files(self, smoke):
        _, _, _, pp_dir = smoke
        man = read_manifest(pp_dir / "rfdm_manifest.json")
        assert len(man["samples"]) == 28
        for row in man["samples"]:
            assert row["sha256"] == sha256_file(pp_dir / row["path"])

    def test_unknown_radar_key_in_manifest_is_manifest_error(self, tmp_path, capsys):
        man = tmp_path / "dataset_manifest.json"
        man.write_text(json.dumps({"radar_config": {"bogus": 1}, "samples": []}))
        rc = main(["preprocess", "--manifest", str(man), "--out", str(tmp_path / "pp")])
        assert rc == 4
        assert "bogus" in capsys.readouterr().err

    def test_manifest_without_radar_config_is_manifest_error(self, smoke, tmp_path, capsys):
        _, cfg_path, gen_dir, _ = smoke
        man = json.loads((gen_dir / "dataset_manifest.json").read_text())
        del man["radar_config"]
        for row in man["samples"]:
            row["path"] = str(gen_dir / row["path"])
        bad = tmp_path / "dataset_manifest.json"
        bad.write_text(json.dumps(man))
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg_path), "--manifest", str(bad),
                     "--out", str(out)]) == 4
        assert f"{bad}: no radar_config field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mti", [False, True], ids=["no-mti", "mti"])
    @pytest.mark.parametrize("key", ["n_range_crop", "n_doppler_crop"])
    def test_crop_beyond_the_map_stops_before_output(self, tmp_path, capsys, key, mti):
        # 112 samples pad to 128 range bins; 66 chirps pad to 128 Doppler
        # bins, or to 64 after MTI drops 4. A crop of the map's own size is
        # accepted, one bin more is a ConfigError before <out> exists
        radar = {**asdict(RadarConfig()), "n_chirps": 66}
        man = tmp_path / "dataset_manifest.json"
        man.write_text(json.dumps({"radar_config": radar, "samples": []}))
        size = {"n_range_crop": 128, "n_doppler_crop": 64 if mti else 128}

        def run(crop, out):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"preprocess": {"mti": mti, key: crop}}))
            return main(["preprocess", "--config", str(cfg), "--manifest", str(man),
                         "--out", str(out)])

        assert run(size[key], tmp_path / "fits") == 0
        assert run(size[key] + 1, tmp_path / "out") == 3
        assert f"exceeds map size (128, {64 if mti else 128})" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_chirps, mti", [(5, True), (4, True), (1, False)],
                             ids=["mti-leaves-1", "mti-leaves-0", "no-mti-1"])
    def test_slow_time_below_two_stops_before_output(self, tmp_path, capsys, n_chirps, mti):
        # MTI drops 4 chirps and the Doppler transform needs 2 of those left;
        # a Doppler crop of 1 fits any map, so only the slow-time length is
        # refused. 6 chirps with MTI, 2 without, are accepted
        man = tmp_path / "dataset_manifest.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preprocess": {"mti": mti, "n_doppler_crop": 1}}))

        def run(chirps, out):
            radar = {**asdict(RadarConfig()), "n_chirps": chirps}
            man.write_text(json.dumps({"radar_config": radar, "samples": []}))
            return main(["preprocess", "--config", str(cfg), "--manifest", str(man),
                         "--out", str(out)])

        assert run(6 if mti else 2, tmp_path / "fits") == 0
        assert run(n_chirps, tmp_path / "out") == 3
        assert ("Doppler processing needs slow-time length >= 2, got "
                f"{n_chirps - 4 if mti else n_chirps}") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_hash_mismatch_detected(self, smoke, tmp_path):
        root, cfg_path, gen_dir, _ = smoke
        # copy the dataset and corrupt one cube
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

    def test_corrupt_last_cube_stops_before_the_manifest(self, smoke, tmp_path, capsys):
        _, cfg_path, gen_dir, _ = smoke
        broken = tmp_path / "broken"
        (broken / "cubes").mkdir(parents=True)
        shutil.copy(gen_dir / "dataset_manifest.json", broken)
        cubes = sorted((gen_dir / "cubes").glob("*.rfdc"))
        for cube in cubes[:-1]:
            (broken / "cubes" / cube.name).symlink_to(cube)
        data = bytearray(cubes[-1].read_bytes())
        data[100] ^= 0x1
        (broken / "cubes" / cubes[-1].name).write_bytes(bytes(data))
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg_path), "--seed", "7",
                     "--manifest", str(broken / "dataset_manifest.json"),
                     "--out", str(out)]) == 5
        assert f"{cubes[-1].name}: sha256 mismatch" in capsys.readouterr().err
        assert not (out / "rfdm_manifest.json").exists()
        assert len(list((out / "rfdm").glob("*.rfdm"))) == len(cubes) - 1

    def test_cubes_differing_from_the_manifest_radar_config(self, smoke, tmp_path, capsys):
        _, cfg_path, gen_dir, _ = smoke
        man = json.loads((gen_dir / "dataset_manifest.json").read_text())
        man["radar_config"].update(n_chirps=64, n_samples=100)
        for row in man["samples"]:
            row["path"] = str(gen_dir / row["path"])
        bad = tmp_path / "dataset_manifest.json"
        bad.write_text(json.dumps(man))
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg_path), "--seed", "7",
                     "--manifest", str(bad), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert f"{man['samples'][0]['path']}: (chirps, samples, rx) (128, 112, 1)" in err
        assert "(64, 100, 1)" in err
        assert not (out / "rfdm_manifest.json").exists()

    def test_manifest_of_the_seven_radar_keys_is_manifest_error(self, smoke, tmp_path,
                                                                capsys):
        # a dataset manifest written while the front end's five constants
        # were settings, as gen wrote it (keys sorted, so B comes first):
        # refused before any output; such a dataset must be regenerated
        _, cfg_path, gen_dir, _ = smoke
        man = json.loads((gen_dir / "dataset_manifest.json").read_text())
        man["radar_config"].update(f_c=77.144e9, B=161.28e6, f_s=6.25e6, t_pri=32.92e-6,
                                   t_frame=100e-3)
        for row in man["samples"]:
            row["path"] = str(gen_dir / row["path"])
        bad = tmp_path / "dataset_manifest.json"
        bad.write_text(json.dumps(man, indent=2, sort_keys=True))
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg_path), "--manifest", str(bad),
                     "--out", str(out)]) == 4
        assert (f"{bad}: radar_config field error: unknown config key 'radar_config.B'"
                in capsys.readouterr().err)
        assert not (out / "rfdm").exists()

    def test_radar_config_naming_n_rx_is_manifest_error(self, smoke, tmp_path, capsys):
        _, cfg_path, gen_dir, _ = smoke
        man = json.loads((gen_dir / "dataset_manifest.json").read_text())
        man["radar_config"]["n_rx"] = 1
        for row in man["samples"]:
            row["path"] = str(gen_dir / row["path"])
        bad = tmp_path / "dataset_manifest.json"
        bad.write_text(json.dumps(man))
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg_path), "--manifest", str(bad),
                     "--out", str(out)]) == 4
        assert "radar_config field error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [(key, v) for key in PAST_RADAR_KEYS
                                              for v in (True, False)])
    def test_radar_config_boolean_is_manifest_error(self, smoke, tmp_path, capsys,
                                                    field, value):
        # a JSON bool is no number, though Python counts it as 1 or 0; a key
        # of the fixed front end, which older manifests hold, is refused
        # whatever its value
        _, cfg_path, gen_dir, _ = smoke
        man = json.loads((gen_dir / "dataset_manifest.json").read_text())
        man["radar_config"][field] = value
        for row in man["samples"]:
            row["path"] = str(gen_dir / row["path"])
        bad = tmp_path / "dataset_manifest.json"
        bad.write_text(json.dumps(man))
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg_path), "--manifest", str(bad),
                     "--out", str(out)]) == 4
        assert (f"radar_config field error: {radar_key_refusal('radar_config', field, value)}"
                in capsys.readouterr().err)
        assert not (out / "rfdm").exists()

    @pytest.mark.parametrize("field, value", [("f_c", "Infinity"), ("f_c", "NaN"),
                                              ("t_frame", "-Infinity"), ("n_chirps", "NaN")])
    def test_radar_config_not_finite_is_manifest_error(self, smoke, tmp_path, capsys,
                                                       field, value):
        # json reads NaN and Infinity as floats, which no count can be; a key
        # of the fixed front end is refused whatever its value
        _, cfg_path, gen_dir, _ = smoke
        man = json.loads((gen_dir / "dataset_manifest.json").read_text())
        man["radar_config"][field] = float(value)
        for row in man["samples"]:
            row["path"] = str(gen_dir / row["path"])
        bad = tmp_path / "dataset_manifest.json"
        bad.write_text(json.dumps(man))
        assert value in bad.read_text()
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg_path), "--manifest", str(bad),
                     "--out", str(out)]) == 4
        assert (f"{bad}: radar_config field error: "
                f"{radar_key_refusal('radar_config', field, float(value))}"
                in capsys.readouterr().err)
        assert not (out / "rfdm").exists()

    def test_cube_of_two_rx_channels_is_integrity_error(self, smoke, tmp_path, capsys):
        # a well-formed RFDC file whose header names 2 rx channels
        _, cfg_path, gen_dir, _ = smoke
        man = json.loads((gen_dir / "dataset_manifest.json").read_text())
        for row in man["samples"]:
            row["path"] = str(gen_dir / row["path"])
        raw = Path(man["samples"][0]["path"]).read_bytes()
        n_frames, n_chirps, n_samples, _ = struct.unpack_from("<4I", raw, 8)
        samples = np.frombuffer(raw[24:-8], "<c16").reshape(n_frames, n_chirps, n_samples)
        two = np.stack([samples, samples], axis=-1)
        data = (b"RFDC" + struct.pack("<5I", 1, *two.shape) + two.tobytes()
                + struct.pack("<Q", two.size))
        (tmp_path / "two.rfdc").write_bytes(data)
        man["samples"][0].update(path=str(tmp_path / "two.rfdc"),
                                 sha256=hashlib.sha256(data).hexdigest())
        bad = tmp_path / "dataset_manifest.json"
        bad.write_text(json.dumps(man))
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg_path), "--manifest", str(bad),
                     "--out", str(out)]) == 5
        assert f"two.rfdc: (chirps, samples, rx) ({n_chirps}, {n_samples}, 2)" \
            in capsys.readouterr().err
        assert not (out / "rfdm_manifest.json").exists()

    @pytest.mark.parametrize("digest", [None, 5, "X" * 64], ids=["missing", "int", "not-hex"])
    def test_row_without_its_digest_is_manifest_error_before_any_output(
            self, smoke, tmp_path, capsys, digest):
        # row 0 loses its digest and its cube a payload bit: unchecked, the
        # corrupted cube would be read as it is
        _, cfg_path, gen_dir, _ = smoke
        broken = tmp_path / "broken"
        shutil.copytree(gen_dir, broken)
        man = json.loads((broken / "dataset_manifest.json").read_text())
        if digest is None:
            del man["samples"][0]["sha256"]
        else:
            man["samples"][0]["sha256"] = digest
        (broken / "dataset_manifest.json").write_text(json.dumps(man))
        victim = broken / man["samples"][0]["path"]
        data = bytearray(victim.read_bytes())
        data[100] ^= 0x1
        victim.write_bytes(bytes(data))
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg_path), "--seed", "7",
                     "--manifest", str(broken / "dataset_manifest.json"),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        if digest is None:
            assert "manifest row 0 lacks required field 'sha256'" in err
        else:
            assert (f"manifest row 0: sha256 must be 64 lowercase hex characters, "
                    f"got {json.dumps(digest)}") in err
        assert not out.exists()

    def test_each_cube_is_opened_once(self, smoke, tmp_path, opens):
        _, cfg_path, gen_dir, _ = smoke
        assert main(["preprocess", "--config", str(cfg_path), "--seed", "7",
                     "--manifest", str(gen_dir / "dataset_manifest.json"),
                     "--out", str(tmp_path / "pp")]) == 0
        cubes = sorted((gen_dir / "cubes").glob("*.rfdc"))
        assert len(cubes) == 28
        assert {str(c): opens[os.path.realpath(c)] for c in cubes} == {str(c): 1 for c in cubes}

    def test_repeated_index_is_manifest_error_before_any_output(self, smoke, tmp_path,
                                                                capsys):
        # each row's .rfdm file is named by its index: two rows with one
        # index would write one file twice
        _, cfg_path, gen_dir, _ = smoke
        man = json.loads((gen_dir / "dataset_manifest.json").read_text())
        man["samples"][5]["index"] = man["samples"][2]["index"]
        for row in man["samples"]:
            row["path"] = str(gen_dir / row["path"])
        bad = tmp_path / "dataset_manifest.json"
        bad.write_text(json.dumps(man))
        out = tmp_path / "pp"
        assert main(["preprocess", "--config", str(cfg_path), "--manifest", str(bad),
                     "--out", str(out)]) == 4
        assert "manifest rows 2 and 5 share index 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row, field", [({"index": 0}, "path"),
                                            ({"path": "cubes/x.rfdc"}, "index")])
    def test_row_missing_a_field_is_manifest_error(self, tmp_path, capsys, row, field):
        man = tmp_path / "dataset_manifest.json"
        man.write_text(json.dumps({"samples": [row]}))
        rc = main(["preprocess", "--manifest", str(man), "--out", str(tmp_path / "pp")])
        assert rc == 4
        assert f"row 0 lacks required field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("path", 5), ("path", None), ("path", ["a"]),
        ("index", None), ("index", [1]), ("index", 1.5), ("index", "a"), ("index", True),
        ("index", -1),
    ])
    def test_row_field_of_another_type_is_manifest_error(self, tmp_path, capsys, field, value):
        # a path must be a string and an index a non-negative integer (a
        # JSON bool is none), checked before any output exists
        row = {"index": 0, "path": "cubes/x.rfdc", field: value}
        man = tmp_path / "dataset_manifest.json"
        man.write_text(json.dumps({"samples": [row]}))
        out = tmp_path / "pp"
        assert main(["preprocess", "--manifest", str(man), "--out", str(out)]) == 4
        want = "a string" if field == "path" else "a non-negative integer"
        assert (f"manifest row 0: {field} must be {want}, got {json.dumps(value)}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_no_mti_flag_preserves_moving_peak(self, tmp_path):
        # a noise-free constant-velocity target keeps its Doppler peak bin
        # whether or not the MTI stage runs (MTI attenuates, DC excepted)
        from rfdm.io import write_cube, write_manifest
        from helpers import doppler_resolution, linear_scatterer
        from rfdm.radar import synthesize_cube

        radar = RadarConfig()
        v = 3.0 * doppler_resolution(radar)
        cube = synthesize_cube(radar, [linear_scatterer(5.0, v)], n_frames=2)
        (tmp_path / "cubes").mkdir()
        digest = write_cube(tmp_path / "cubes" / "t.rfdc", cube)
        rows = [{"index": 0, "path": "cubes/t.rfdc", "sha256": digest, "class_name": "Push",
                 "class_id": 4,
                 "user_id": 0, "location_id": 0, "environment": "Classroom",
                 "base_range": 0.75, "azimuth_deg": 0.0, "instance": 0, "seed": 0}]
        write_manifest(tmp_path / "dataset_manifest.json", radar, rows, spec={})
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

    def test_infer_checkpoint_in_the_older_layout_is_integrity_error(self, trained, tmp_path,
                                                                      capsys):
        old = tmp_path / "old.rfnn"
        old.write_bytes(older_checkpoint_layout((trained / "model.rfnn").read_bytes()))
        assert main(["infer", "--checkpoint", str(old), "x.rfdm"]) == 5
        assert "unreadable checkpoint descriptor" in capsys.readouterr().err

    def test_infer_checkpoint_carrying_the_structure_keys_is_integrity_error(
            self, trained, tmp_path, capsys):
        # the trained model's file as written while its config also carried
        # the five structure settings that model.py now fixes
        old = tmp_path / "old.rfnn"
        old.write_bytes(with_structure_keys((trained / "model.rfnn").read_bytes()))
        assert main(["infer", "--checkpoint", str(old), "x.rfdm"]) == 5
        assert "unreadable checkpoint descriptor" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [8.0, True], ids=["float", "bool"])
    def test_infer_checkpoint_config_of_the_wrong_type_is_integrity_error(
            self, smoke, trained, tmp_path, capsys, value):
        # the trained model reads 8-frame maps; its config's t_frames as the
        # number 8.0 or as true is refused by the config file's type rule
        _, _, _, pp_dir = smoke
        target = pp_dir / read_manifest(pp_dir / "rfdm_manifest.json")["samples"][0]["path"]
        bad = tmp_path / "bad.rfnn"
        bad.write_bytes((trained / "model.rfnn").read_bytes())
        rewrite_descriptor(bad, lambda descriptor: descriptor["config"].update(t_frames=value))
        assert main(["infer", "--checkpoint", str(bad), str(target)]) == 5
        assert (f"unreadable checkpoint descriptor (ConfigError('config value of the wrong "
                f"type: config.t_frames must be an integer, got {json.dumps(value)}'))"
                in capsys.readouterr().err)

    def test_infer_checkpoint_config_larger_than_its_arrays_is_integrity_error(
            self, trained, tmp_path, capsys):
        # the config widens conv3 to 10**9 channels, the declared arrays
        # stay the trained model's: rejected before any array is allocated
        big = tmp_path / "big.rfnn"
        big.write_bytes((trained / "model.rfnn").read_bytes())
        rewrite_descriptor(big, lambda descriptor: descriptor["config"].update(
            conv_channels=[16, 32, 10**9]))
        assert main(["infer", "--checkpoint", str(big), "x.rfdm"]) == 5
        assert "parameter layout does not match architecture" in capsys.readouterr().err

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

    def test_report_layout(self, smoke, tmp_path):
        # perfbench's loocv check reads mean_accuracy, folds[].id and
        # folds[].confusion.counts
        _, cfg_path, _, pp_dir = smoke
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg_path), "--seed", "5", "--protocol",
                     "environment", "--epochs", "1",
                     "--manifest", str(pp_dir / "rfdm_manifest.json"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"protocol", "model", "master_seed", "mean_accuracy", "folds"}
        assert report["folds"]
        for fold in report["folds"]:
            assert set(fold) == {"id", "accuracy", "best_epoch", "best_val_acc", "train_seed",
                                 "confusion"}
            assert set(fold["confusion"]) == {"class_names", "counts", "accuracy",
                                              "per_class_recall"}
            assert fold["confusion"]["class_names"] == list(GESTURE_CLASSES)
            assert fold["accuracy"] == fold["confusion"]["accuracy"]
        assert report["mean_accuracy"] == float(np.mean([f["accuracy"] for f in report["folds"]]))

    def test_eval_manifest_records_the_model_and_protocol_run(self, smoke, tmp_path):
        _, cfg_path, _, pp_dir = smoke
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg_path), "--seed", "5", "--protocol", "location",
                     "--model", "cnn", "--epochs", "1",
                     "--manifest", str(pp_dir / "rfdm_manifest.json"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["protocol"], report["model"]) == ("location", "cnn")
        cfg = json.loads((out / "run_manifest_eval.json").read_text())["config"]
        assert cfg["eval"]["protocol"] == "location"
        assert (cfg["train"]["model"], cfg["train"]["epochs"]) == ("cnn", 1)

    @pytest.mark.parametrize("protocol", ["location", "environment"])
    def test_eval_with_nothing_to_hold_out_is_manifest_error(self, smoke, tmp_path, capsys,
                                                             protocol):
        # every sample at the training placement, in the Classroom
        _, cfg_path, _, pp_dir = smoke
        man = json.loads((pp_dir / "rfdm_manifest.json").read_text())
        for row in man["samples"]:
            row.update(path=str(pp_dir / row["path"]), location_id=0, base_range=0.75,
                       azimuth_deg=0.0, environment="Classroom")
        one = tmp_path / "rfdm_manifest.json"
        one.write_text(json.dumps(man))
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg_path), "--protocol", protocol, "--epochs", "1",
                     "--manifest", str(one), "--out", str(out)]) == 4
        assert f"{protocol} protocol: every sample is in the training group" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("protocol, away, message", [
        ("location", {"base_range": 1.0, "azimuth_deg": 15.0},
         "no samples at the training location (0.75, 0.0); cannot hold out"),
        ("environment", {"environment": "Office"},
         "no Classroom samples to train the environment holdout"),
    ], ids=["location", "environment"])
    def test_eval_with_no_training_group_is_manifest_error(self, smoke, tmp_path, capsys,
                                                           protocol, away, message):
        _, cfg_path, _, pp_dir = smoke
        man = json.loads((pp_dir / "rfdm_manifest.json").read_text())
        for row in man["samples"]:
            row.update(path=str(pp_dir / row["path"]), **away)
        none = tmp_path / "rfdm_manifest.json"
        none.write_text(json.dumps(man))
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg_path), "--protocol", protocol, "--epochs", "1",
                     "--manifest", str(none), "--out", str(out)]) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("class_id", [7, -1, "x", True, 3.0])
    def test_class_id_outside_the_classes_is_manifest_error(self, smoke, tmp_path, capsys,
                                                            command, class_id):
        _, cfg_path, _, pp_dir = smoke
        man = json.loads((pp_dir / "rfdm_manifest.json").read_text())
        for row in man["samples"]:
            row["path"] = str(pp_dir / row["path"])
        man["samples"][3]["class_id"] = class_id
        bad = tmp_path / "rfdm_manifest.json"
        bad.write_text(json.dumps(man))
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--epochs", "1",
                     "--manifest", str(bad), "--out", str(out)]) == 4
        assert (f"manifest row 3: class_id must be an integer in [0, 7), "
                f"got {json.dumps(class_id)}") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("protocol, field, value, want", [
        ("loocv", "user_id", 0.9, "a non-negative integer"),
        ("loocv", "user_id", True, "a non-negative integer"),
        ("loocv", "user_id", "abc", "a non-negative integer"),
        ("location", "location_id", -1, "a non-negative integer"),
        ("location", "base_range", "x", "a finite number"),
        ("environment", "environment", 3, "a string"),
    ], ids=["user-fraction", "user-bool", "user-string", "location-negative",
            "range-string", "environment-number"])
    def test_mistyped_fold_field_is_manifest_error(self, smoke, tmp_path, capsys,
                                                   protocol, field, value, want):
        # a fold field is typed where the protocol reads it: 0.9 joins no
        # user's fold and "abc" is no numpy error
        _, cfg_path, _, pp_dir = smoke
        man = json.loads((pp_dir / "rfdm_manifest.json").read_text())
        for row in man["samples"]:
            row["path"] = str(pp_dir / row["path"])
        man["samples"][5][field] = value
        bad = tmp_path / "rfdm_manifest.json"
        bad.write_text(json.dumps(man))
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg_path), "--protocol", protocol, "--epochs", "1",
                     "--manifest", str(bad), "--out", str(out)]) == 4
        assert (f"manifest row 5: {field} must be {want}, got {json.dumps(value)}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("path", [5, None, ["a"]])
    def test_path_that_is_not_a_string_is_manifest_error(self, smoke, tmp_path, capsys,
                                                         command, path):
        _, cfg_path, _, pp_dir = smoke
        man = json.loads((pp_dir / "rfdm_manifest.json").read_text())
        for row in man["samples"]:
            row["path"] = str(pp_dir / row["path"])
        man["samples"][3]["path"] = path
        bad = tmp_path / "rfdm_manifest.json"
        bad.write_text(json.dumps(man))
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--epochs", "1",
                     "--manifest", str(bad), "--out", str(out)]) == 4
        assert (f"manifest row 3: path must be a string, got {json.dumps(path)}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_train_val_fraction_zero_carves_no_validation(self, smoke, tmp_path, capsys):
        _, _, _, pp_dir = smoke
        cfg = json.loads(json.dumps(SMOKE_CONFIG))
        cfg["train"].update(val_fraction=0.0, epochs=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path), "--seed", "3",
                     "--manifest", str(pp_dir / "rfdm_manifest.json"),
                     "--out", str(tmp_path / "train")]) == 0
        assert "at epoch -1;" in capsys.readouterr().out

    def test_eval_reads_each_rfdm_once(self, smoke, tmp_path, opens):
        _, cfg_path, _, pp_dir = smoke
        assert main(["eval", "--config", str(cfg_path), "--seed", "5", "--protocol", "loocv",
                     "--manifest", str(pp_dir / "rfdm_manifest.json"),
                     "--out", str(tmp_path / "eval"), "--epochs", "1"]) == 0
        files = sorted((pp_dir / "rfdm").glob("*.rfdm"))
        assert len(files) == 28
        assert {str(f): opens[os.path.realpath(f)] for f in files} == {str(f): 1 for f in files}

    @pytest.mark.parametrize("command, doc, extra, fragment", [
        ("train", {"train": {"batch_size": 0}}, [], "train.batch_size must be >= 1, got 0"),
        ("train", {"train": {"lr": -1}}, [], "train.lr must be >= 0, got -1.0"),
        ("eval", {"train": {"epochs": 0}}, [], "train.epochs must be >= 1, got 0"),
        ("train", {}, ["--epochs", "0"], "train.epochs must be >= 1, got 0"),
        ("train", {"train": {"model": "bogus"}}, [],
         "train.model must be one of cnn-tcn, cnn, got 'bogus'"),
        ("eval", {"eval": {"protocol": "bogus"}}, [],
         "eval.protocol must be one of loocv, location, environment, random, got 'bogus'"),
    ], ids=["batch-size-zero", "lr-negative", "epochs-zero", "epochs-flag-zero",
            "unknown-model", "unknown-protocol"])
    def test_train_settings_fail_before_any_input_is_read(self, smoke, tmp_path, capsys,
                                                          command, doc, extra, fragment):
        # the manifest's .rfdm files are missing, so a run that reads its
        # input exits 5 naming the first of them
        _, _, _, pp_dir = smoke
        manifest = shutil.copy(pp_dir / "rfdm_manifest.json", tmp_path)
        out = tmp_path / "out"
        args = [command, "--manifest", str(manifest), "--out", str(out)]
        assert main(args + ["--epochs", "1"]) == 5
        assert "missing file" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(args + ["--config", str(cfg), *extra]) == 3
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_rfdm_row_without_its_digest_is_manifest_error(self, smoke, tmp_path, capsys,
                                                           command):
        _, cfg_path, _, pp_dir = smoke
        man = json.loads((pp_dir / "rfdm_manifest.json").read_text())
        for row in man["samples"]:
            row["path"] = str(pp_dir / row["path"])
        del man["samples"][3]["sha256"]
        bad = tmp_path / "rfdm_manifest.json"
        bad.write_text(json.dumps(man))
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--epochs", "1",
                     "--manifest", str(bad), "--out", str(out)]) == 4
        assert "manifest row 3 lacks required field 'sha256'" in capsys.readouterr().err
        assert not out.exists()

    def test_rfdm_row_missing_class_id_is_manifest_error(self, smoke, tmp_path, capsys):
        _, _, _, pp_dir = smoke
        man = json.loads((pp_dir / "rfdm_manifest.json").read_text())
        for row in man["samples"]:
            row["path"] = str(pp_dir / row["path"])
        del man["samples"][3]["class_id"]
        bad = tmp_path / "rfdm_manifest.json"
        bad.write_text(json.dumps(man))
        assert main(["train", "--manifest", str(bad), "--out", str(tmp_path / "train")]) == 4
        assert "row 3 lacks required field 'class_id'" in capsys.readouterr().err

    def test_train_twice_at_one_seed_writes_identical_bytes(self, smoke, trained, tmp_path):
        _, cfg_path, _, pp_dir = smoke
        assert main(["train", "--config", str(cfg_path), "--seed", "3",
                     "--manifest", str(pp_dir / "rfdm_manifest.json"),
                     "--out", str(tmp_path)]) == 0
        for name in ("model.rfnn", "curve.csv"):
            assert (tmp_path / name).read_bytes() == (trained / name).read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-1", "two", ""])
    def test_threads_that_are_not_a_positive_integer_are_config_errors(
            self, smoke, tmp_path, monkeypatch, capsys, threads):
        _, cfg_path, _, pp_dir = smoke
        monkeypatch.setenv("RFDM_THREADS", threads)
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg_path), "--protocol", "loocv",
                     "--manifest", str(pp_dir / "rfdm_manifest.json"),
                     "--out", str(out), "--epochs", "1"]) == 3
        assert f"RFDM_THREADS must be a positive integer, got {threads!r}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_eval_fold_threads_do_not_change_the_report(self, smoke, tmp_path, monkeypatch):
        _, cfg_path, _, pp_dir = smoke
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("RFDM_THREADS", threads)
            out = tmp_path / f"eval{threads}"
            assert main(["eval", "--config", str(cfg_path), "--seed", "5", "--protocol", "loocv",
                         "--manifest", str(pp_dir / "rfdm_manifest.json"),
                         "--out", str(out), "--epochs", "1"]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_maps_of_another_shape_are_data_error(self, smoke, tmp_path, capsys):
        _, _, _, pp_dir = smoke
        man = json.loads((pp_dir / "rfdm_manifest.json").read_text())
        for row in man["samples"]:
            row["path"] = str(pp_dir / row["path"])
        odd = read_rfdm(man["samples"][5]["path"])
        odd.frames = odd.frames[:, :8, :]
        man["samples"][5]["path"] = str(tmp_path / "odd.rfdm")
        man["samples"][5]["sha256"] = write_rfdm(tmp_path / "odd.rfdm", odd)
        bad = tmp_path / "rfdm_manifest.json"
        bad.write_text(json.dumps(man))
        assert main(["train", "--manifest", str(bad), "--out", str(tmp_path / "train")]) == 4
        assert f"{tmp_path / 'odd.rfdm'}: maps of shape (8, 8, 16)" in capsys.readouterr().err

    def test_eval_honours_val_fraction(self, tmp_path):
        # two instances leave 4 training samples per class and fold, so the
        # default fraction of 0.15 would carve a validation set from them
        cfg = json.loads(json.dumps(SMOKE_CONFIG))
        cfg["gen"].update(instances=2, n_frames=4)
        cfg["train"]["val_fraction"] = 0.0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        common = ["--config", str(cfg_path), "--seed", "7"]
        assert main(["gen", *common, "--out", str(tmp_path / "gen")]) == 0
        assert main(["preprocess", *common, "--out", str(tmp_path / "pp"),
                     "--manifest", str(tmp_path / "gen" / "dataset_manifest.json")]) == 0
        assert main(["eval", *common, "--protocol", "loocv", "--epochs", "1",
                     "--manifest", str(tmp_path / "pp" / "rfdm_manifest.json"),
                     "--out", str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert len(report["folds"]) == 2
        assert all(fold["best_epoch"] == -1 for fold in report["folds"])


class TestVerbose:
    """--verbose logs to stderr through the `rfdm` logger, for one call only."""

    EPOCH_LINE = re.compile(r"epoch \d+: train_loss=\S+ val_acc=\S+")

    @staticmethod
    def run(smoke, command, out, *flags):
        _, cfg_path, _, pp_dir = smoke
        return main([command, "--config", str(cfg_path), "--seed", "5", *flags,
                     "--manifest", str(pp_dir / "rfdm_manifest.json"), "--out", str(out)])

    def test_train_logs_one_line_per_epoch(self, smoke, tmp_path, capsys):
        assert self.run(smoke, "train", tmp_path, "--verbose") == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2  # 2 epochs
        for epoch, line in enumerate(lines):
            assert self.EPOCH_LINE.fullmatch(line) and line.startswith(f"epoch {epoch}:")

    def test_eval_prefixes_each_line_with_its_fold(self, smoke, tmp_path, capsys):
        assert self.run(smoke, "eval", tmp_path, "--verbose", "--protocol", "loocv",
                        "--epochs", "1") == 0
        lines = capsys.readouterr().err.splitlines()
        for fold in ("user:0", "user:1"):
            mine = [line[len(fold) + 3:] for line in lines if line.startswith(f"[{fold}] ")]
            assert len(mine) == 2  # 1 epoch, then the test accuracy
            assert self.EPOCH_LINE.fullmatch(mine[0]) and mine[0].startswith("epoch 0:")
            assert re.fullmatch(r"test accuracy \S+", mine[1])
        assert len(lines) == 4

    def test_nothing_is_logged_without_the_flag(self, smoke, tmp_path, capsys, caplog):
        assert self.run(smoke, "train", tmp_path / "train") == 0
        assert self.run(smoke, "eval", tmp_path / "eval", "--epochs", "1") == 0
        assert capsys.readouterr().err == ""
        assert [r for r in caplog.records if r.name.startswith("rfdm")] == []

    def test_two_calls_do_not_duplicate_lines(self, smoke, tmp_path, capsys):
        handlers = list(logging.getLogger("rfdm").handlers)
        for k in range(2):
            assert self.run(smoke, "train", tmp_path / str(k), "--verbose") == 0
            assert len(capsys.readouterr().err.splitlines()) == 2
        assert logging.getLogger("rfdm").handlers == handlers


class TestUsage:
    def test_unknown_flag_usage_error(self):
        assert main(["gen", "--frobnicate"]) == 2

    def test_missing_subcommand(self):
        assert main([]) == 2

    def test_plot_is_not_a_subcommand(self, tmp_path):
        assert main(["plot", "--input", "x.rfdm", "--out", str(tmp_path / "m")]) == 2


def subparsers() -> dict:
    """Subcommand name -> its parser, as `build_parser()` registers them."""
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def readme_section(title: str) -> str:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


class TestReadme:
    def test_cli_block_names_each_subcommand(self):
        block = readme_section("CLI pipeline").split("```")[1]
        named = {line.split()[1] for line in block.splitlines() if line.startswith("rfdm ")}
        assert named == set(subparsers())

    def test_each_flag_it_lists_is_accepted(self):
        flags = set(re.findall(r"--[a-z][a-z-]*", readme_section("CLI pipeline")))
        accepted = set().union(*(p._option_string_actions for p in subparsers().values()))
        assert "--no-mti" in flags and flags <= accepted


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
        (MemoryError, 1),
    ])
    def test_exception_maps_to_exit_code(self, monkeypatch, capsys, exc, code):
        def raise_it(args):
            raise exc("boom")

        monkeypatch.setattr(cli, "cmd_gen", raise_it)
        assert main(["gen", "--out", "o"]) == code
        assert capsys.readouterr().err == "rfdm gen: boom\n"

    def test_unmapped_exception_propagates(self, monkeypatch):
        def raise_it(args):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "cmd_gen", raise_it)
        with pytest.raises(RuntimeError, match="bug"):
            main(["gen", "--out", "o"])
