import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rfdm.dsp import cube_to_rfdm
from rfdm.errors import ConfigError, PlacementError
from rfdm.gestures import (
    GESTURE_CLASSES,
    Environment,
    DatasetSpec,
    ScenePlacement,
    UserProfile,
    dataset_plan,
    make_gesture_scene,
    room_clutter,
    standard_benchmark_spec,
    synthesize_sample,
    template_trace,
)
from rfdm.io import write_cube, write_rfdm
from rfdm.radar import T_FRAME, RadarConfig, synthesize_cube

CFG = RadarConfig()
DUR = 1.6
T = np.linspace(0.0, DUR, 401)


class TestTemplates:
    def test_push_monotone_and_pull_mirrored(self):
        for e in (0.8, 1.0, 1.4):
            push = template_trace("Push", T, DUR, extent_scale=e)
            pull = template_trace("Pull", T, DUR, extent_scale=e)
            assert push[0] == pytest.approx(0.15 * e)
            assert push[-1] == pytest.approx(-0.15 * e)
            assert np.all(np.diff(push) <= 1e-12)
            assert np.allclose(pull, -push, atol=1e-12)

    def test_swipe_pair_is_time_reversal(self):
        left = template_trace("SwipeLeft", T, DUR)
        right = template_trace("SwipeRight", DUR - T, DUR)
        assert np.allclose(left, right, atol=1e-12)

    def test_azimuth_projects_tangential_classes_only(self):
        for g in GESTURE_CLASSES:
            full = template_trace(g, T, DUR, cos_az=1.0)
            proj = template_trace(g, T, DUR, cos_az=0.5)
            tangential = g in ("SwipeLeft", "SwipeRight", "SwipeUp", "SwipeDown")
            if tangential:
                assert np.allclose(proj, 0.5 * full, atol=1e-12)
            else:
                assert np.array_equal(proj, full)

    def test_class_separability_statistics(self):
        # push recedes toward the radar, pull away; swipes are reversals
        push = template_trace("Push", T, DUR)
        pull = template_trace("Pull", T, DUR)
        assert push[-1] - push[0] < 0 < pull[-1] - pull[0]
        left = template_trace("SwipeLeft", T, DUR)
        right = template_trace("SwipeRight", T, DUR)
        assert np.allclose(left, right[::-1], atol=1e-12)


class TestSceneConstruction:
    def test_determinism(self):
        place = ScenePlacement(0.8, 10.0, Environment.OFFICE)
        user = UserProfile()
        a = make_gesture_scene("Circle", place, user, 11, CFG) + room_clutter(place)
        b = make_gesture_scene("Circle", place, user, 11, CFG) + room_clutter(place)
        assert len(a) == len(b)
        t = np.linspace(0, 1.6, 37)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.trajectory(t), sb.trajectory(t))
            assert sa.amplitude == sb.amplitude

    def test_hand_cluster_size_and_static_clutter(self):
        hand = make_gesture_scene("Push", ScenePlacement(), UserProfile(), 3, CFG)
        clutter = room_clutter(ScenePlacement())
        assert 3 <= len(hand) <= 5
        assert len(clutter) == 8  # Classroom preset
        t = np.linspace(0, 1.6, 11)
        for sc in clutter:
            assert np.ptp(sc.trajectory(t)) == 0.0

    def test_trajectory_keeps_the_shape_of_its_time(self):
        from rfdm.radar import if_signal_sample

        hand = make_gesture_scene("Push", ScenePlacement(), UserProfile(), 3, CFG)
        t = np.array([0.0, 0.8, 1.3])
        for sc in hand:
            ranges = sc.trajectory(t)
            assert ranges.shape == (3,)
            assert np.array_equal(sc.trajectory(t.reshape(3, 1)), ranges.reshape(3, 1))
            for k in range(3):
                r = sc.trajectory(t[k])
                assert np.shape(r) == () and r == ranges[k]
            assert isinstance(if_signal_sample(CFG, sc, 0.0, 0.8), complex)

    def test_environment_clutter_presets(self):
        for env, count in [(Environment.CLASSROOM, 8), (Environment.OFFICE, 12),
                           (Environment.CONFERENCE_HALL, 4)]:
            assert len(room_clutter(ScenePlacement(environment=env))) == count

    def test_placement_error_when_template_exits_zone(self):
        # push from 0.3 m with large extent crosses the 0.3 m floor
        with pytest.raises(PlacementError, match="Push"):
            make_gesture_scene(
                "Push",
                ScenePlacement(base_range=0.3),
                UserProfile(extent_scale=1.5),
                rng_seed=1,
                config=CFG,
            )

    def test_placement_error_when_hand_exceeds_the_unambiguous_velocity(self):
        # the Doppler span is +/-29.51 m/s: a fast, wide swipe made within
        # one frame period crosses it, the default user's swipe does not
        with pytest.raises(PlacementError,
                           match="SwipeLeft exceeds the unambiguous velocity 29.51 m/s"):
            make_gesture_scene("SwipeLeft", ScenePlacement(),
                               UserProfile(speed_scale=1.5, extent_scale=1.5), 3,
                               config=CFG, duration=T_FRAME)
        make_gesture_scene("SwipeLeft", ScenePlacement(), UserProfile(), 3,
                           config=CFG, duration=T_FRAME)

    def test_unknown_names_are_config_errors(self):
        assert Environment.from_name("Office") is Environment.OFFICE
        with pytest.raises(ConfigError, match=r"unknown environment \['Office'\]"):
            Environment.from_name(["Office"])

    def test_invalid_placement_and_profile(self):
        with pytest.raises(ConfigError):
            ScenePlacement(base_range=0.1).validate()
        with pytest.raises(ConfigError):
            ScenePlacement(azimuth_deg=75.0).validate()
        with pytest.raises(ConfigError):
            UserProfile(speed_scale=2.0).validate()

    def test_clutter_only_scene_has_zero_slow_time_variance(self):
        cube = synthesize_cube(CFG, room_clutter(ScenePlacement()), n_frames=1)
        chirps = cube[0]
        # zero slow-time variance == every chirp is bit-identical
        assert np.array_equal(chirps, np.broadcast_to(chirps[0], chirps.shape))
        assert np.all(np.ptp(chirps.real, axis=0) == 0.0)
        assert np.all(np.ptp(chirps.imag, axis=0) == 0.0)


class TestDatasetGeneration:
    def test_minimal_product_is_seven(self):
        spec = DatasetSpec(instances=1, n_frames=2, noise_sigma=0.0)
        plan = dataset_plan(spec, rng_seed=0)
        assert len(plan) == 7
        assert [row["class_name"] for row in plan] == list(GESTURE_CLASSES)
        for row in plan:
            assert synthesize_sample(spec, row, CFG).shape[0] == 2

    def test_plan_arithmetic(self):
        spec = DatasetSpec(
            instances=30,
            users=tuple(UserProfile() for _ in range(2)),
            placements=tuple(ScenePlacement() for _ in range(5)),
        )
        plan = dataset_plan(spec, rng_seed=0)
        assert len(plan) == 7 * 30 * 2 * 5

    def test_label_histogram_uniform(self):
        spec = DatasetSpec(
            instances=3,
            users=(UserProfile(), UserProfile(speed_scale=1.2)),
            placements=(ScenePlacement(), ScenePlacement(1.0, 10.0)),
        )
        plan = dataset_plan(spec, rng_seed=1)
        counts = {}
        for row in plan:
            counts[row["class_name"]] = counts.get(row["class_name"], 0) + 1
        assert set(counts.values()) == {3 * 2 * 2}

    def test_sample_seeds_unique_and_stable(self):
        spec = standard_benchmark_spec(instances=2)
        p1 = dataset_plan(spec, rng_seed=7)
        p2 = dataset_plan(spec, rng_seed=7)
        assert [r["seed"] for r in p1] == [r["seed"] for r in p2]
        assert len({r["seed"] for r in p1}) == len(p1)

    def test_synthesized_sample_is_valid(self):
        spec = DatasetSpec(instances=1, n_frames=4, noise_sigma=0.5)
        row = dataset_plan(spec, rng_seed=2)[0]
        cube = synthesize_sample(spec, row, CFG)
        assert cube.shape == (4, 128, 112) and cube.dtype == np.complex128
        assert np.all(np.isfinite(cube))


# sha256 of each class's `write_cube` bytes for GOLDEN_SPEC at seed 3,
# recorded with numpy 2.4.6 on x86-64; a numpy whose sin/cos/exp round
# differently changes them without any change to the program.
GOLDEN_SPEC = DatasetSpec(
    instances=1,
    users=(UserProfile(speed_scale=1.15, amplitude_scale=1.1, extent_scale=1.2,
                       jitter_sigma=0.003),),
    placements=(ScenePlacement(1.2, 20.0, Environment.OFFICE),),
    n_frames=2,
    noise_sigma=1.0,
)
GOLDEN_CUBE_SHA256 = {
    "SwipeLeft": "d179ccab425c21a6b8f341967b0f7e97d4b7fcf7264f7d120d0c812a155ef835",
    "SwipeRight": "0142188efc1cdf1371f4333b8beb7b4cc61c3370ddb4e633b1f7143e44707e4b",
    "SwipeUp": "e546526374456137054381629ee815025c7b5b5ecc82e103a5847913882adc7b",
    "SwipeDown": "7aa2d14d8dd8cb38d8eae42b0f69cea362c327d7c35cf66760b96ad4ed2bcb60",
    "Push": "ebdbe946fc11c52a9b19fd9667b847a19e5bd1aed9cbeaf8faa0df7a7eee1361",
    "Pull": "df9b9b18e02b15866d33912deac5104721fd80f55ecbc72489434b5fda4907d3",
    "Circle": "ca1c5feaa7b7772eb4560d30421ac42779cbca0d9bfc847b0be45a4e284a0abb",
}


@pytest.mark.parametrize("row", dataset_plan(GOLDEN_SPEC, rng_seed=3),
                         ids=lambda row: row["class_name"])
def test_cube_bytes_match_the_golden_digest(tmp_path, row):
    cube = synthesize_sample(GOLDEN_SPEC, row, CFG)
    assert write_cube(tmp_path / "c.rfdc", cube) == GOLDEN_CUBE_SHA256[row["class_name"]], \
        repin_message("GOLDEN_CUBE_SHA256")


# sha256 of each class's `write_rfdm` bytes for the GOLDEN_SPEC cubes above,
# at 32 x 32 bins, under the MTI chain and the chain without MTI
GOLDEN_RFDM_SHA256 = {
    True: {
        "SwipeLeft": "cd6305fe9301a4f43b16f7266cbf2094435a92312b6958f84d063a6cdc4d34a2",
        "SwipeRight": "17c48d86105372d73c5c9b01ee0320eab19ac3ada07553347c6d31d7e7fa3e58",
        "SwipeUp": "63494d2117cd89a5f623680df0d81e0f0fe7b8c2d65e02276aca0090b9f66bb0",
        "SwipeDown": "0e5cdfe7cca62150b0c1188699030865a8dfaf267bfbddae1aeab465365c1b2e",
        "Push": "601711bd96078ee3b1b28fb788adf755f47eeb4a8b60303baff9842bdb8dd27a",
        "Pull": "cd93be196c69cb9673fc2013eef576dd7d3ff8e44a3cca62492b00a736176a1e",
        "Circle": "1ab3ff9e9fe11444b8b7aa22059336e543b35af19a3c60f276045c37179a85f8",
    },
    False: {
        "SwipeLeft": "0ea7542afa0f0e3dca6b639ae8f37c32263ba182726173e87a1e20e99805f25e",
        "SwipeRight": "6fdf6a3c4805d3d3dc1946beeb0f929f2f621f4553b52295b3b5f31680d14c4f",
        "SwipeUp": "4b8019a828be635101ecc08ea332aebb2e6d4def647858b3008c16f9befc06b5",
        "SwipeDown": "191c86adf71f0b003b17731c6ce0b6bdfa147afb34ae2b0948c21470ab8335ba",
        "Push": "18782a2883fbdf511afa51fa8694a0e31244463db012458fb6bafa4d44afbeec",
        "Pull": "92673410a1422f74fd1a95d97af8a4d0abba8e6f9a69a5eb3260b6e4cbb26833",
        "Circle": "f8bf421f9344eb117dfed13b0f0d37dc2fdb4474827342f66ceb02b94a9b8f92",
    },
}


@pytest.mark.parametrize("mti", [True, False], ids=["mti", "no-mti"])
@pytest.mark.parametrize("row", dataset_plan(GOLDEN_SPEC, rng_seed=3),
                         ids=lambda row: row["class_name"])
def test_rfdm_bytes_match_the_golden_digest(tmp_path, row, mti):
    cube = synthesize_sample(GOLDEN_SPEC, row, CFG)
    seq = cube_to_rfdm(cube, mti, 32, 32)
    assert write_rfdm(tmp_path / "m.rfdm", seq) == GOLDEN_RFDM_SHA256[mti][row["class_name"]], \
        repin_message("GOLDEN_RFDM_SHA256")


@functools.cache
def current_tables() -> dict:
    """Both golden tables as the program writes them now, keyed by name."""
    tables = {"GOLDEN_CUBE_SHA256": {}, "GOLDEN_RFDM_SHA256": {True: {}, False: {}}}
    with tempfile.TemporaryDirectory() as tmp:
        for row in dataset_plan(GOLDEN_SPEC, rng_seed=3):
            name = row["class_name"]
            cube = synthesize_sample(GOLDEN_SPEC, row, CFG)
            tables["GOLDEN_CUBE_SHA256"][name] = write_cube(Path(tmp) / "c.rfdc", cube)
            for mti, table in tables["GOLDEN_RFDM_SHA256"].items():
                table[name] = write_rfdm(Path(tmp) / "m.rfdm", cube_to_rfdm(cube, mti, 32, 32))
    return tables


def repin_message(name: str) -> str:
    """The whole current table `name` as source to paste over the pinned one,
    so that an intended re-pin is one reviewed copy."""

    def lines(table, pad):
        out = []
        for key, value in table.items():
            key = json.dumps(key) if isinstance(key, str) else repr(key)
            if isinstance(value, dict):
                out += [f"{pad}{key}: {{", *lines(value, pad + "    "), f"{pad}}},"]
            else:
                out.append(f"{pad}{key}: {json.dumps(value)},")
        return out

    body = "\n".join(lines(current_tables()[name], "    "))
    return f"{name} differs from what the program writes now, which is\n{name} = {{\n{body}\n}}"
