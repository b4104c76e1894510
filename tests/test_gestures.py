import numpy as np
import pytest

from rfdm.errors import ConfigError, PlacementError
from rfdm.gestures import (
    GESTURE_CLASSES,
    Environment,
    GestureClass,
    DatasetSpec,
    ScenePlacement,
    UserProfile,
    dataset_plan,
    make_gesture_scene,
    standard_benchmark_spec,
    synthesize_sample,
    template_trace,
)
from rfdm.radar import RadarConfig

DUR = 1.6
T = np.linspace(0.0, DUR, 401)


class TestTemplates:
    def test_push_monotone_and_pull_mirrored(self):
        for e in (0.8, 1.0, 1.4):
            push, _ = template_trace(GestureClass.PUSH, T, DUR, extent_scale=e)
            pull, _ = template_trace(GestureClass.PULL, T, DUR, extent_scale=e)
            assert push[0] == pytest.approx(0.15 * e)
            assert push[-1] == pytest.approx(-0.15 * e)
            assert np.all(np.diff(push) <= 1e-12)
            assert np.allclose(pull, -push, atol=1e-12)

    def test_swipe_pair_is_time_reversal(self):
        left, _ = template_trace(GestureClass.SWIPE_LEFT, T, DUR)
        right, _ = template_trace(GestureClass.SWIPE_RIGHT, DUR - T, DUR)
        assert np.allclose(left, right, atol=1e-12)

    def test_azimuth_projects_tangential_classes_only(self):
        for g in GESTURE_CLASSES:
            full, _ = template_trace(g, T, DUR, cos_az=1.0)
            proj, _ = template_trace(g, T, DUR, cos_az=0.5)
            tangential = g in (
                GestureClass.SWIPE_LEFT,
                GestureClass.SWIPE_RIGHT,
                GestureClass.SWIPE_UP,
                GestureClass.SWIPE_DOWN,
            )
            if tangential:
                assert np.allclose(proj, 0.5 * full, atol=1e-12)
            else:
                assert np.array_equal(proj, full)

    def test_velocity_matches_finite_difference(self):
        tt = np.linspace(0.01, DUR - 0.01, 1201)
        h = 1e-6
        for g in GESTURE_CLASSES:
            _, v = template_trace(g, tt, DUR, extent_scale=1.2, speed_scale=1.1)
            rp, _ = template_trace(g, tt + h, DUR, extent_scale=1.2, speed_scale=1.1)
            rm, _ = template_trace(g, tt - h, DUR, extent_scale=1.2, speed_scale=1.1)
            fd = (rp - rm) / (2 * h)
            assert np.max(np.abs(v - fd)) < 1e-5

    def test_class_separability_statistics(self):
        # push recedes toward the radar, pull away; swipes are reversals
        push, vp = template_trace(GestureClass.PUSH, T, DUR)
        pull, vl = template_trace(GestureClass.PULL, T, DUR)
        assert vp.mean() < 0 < vl.mean()
        assert push[-1] - push[0] < 0 < pull[-1] - pull[0]
        left, _ = template_trace(GestureClass.SWIPE_LEFT, T, DUR)
        right, _ = template_trace(GestureClass.SWIPE_RIGHT, T, DUR)
        assert np.allclose(left, right[::-1], atol=1e-12)


class TestSceneConstruction:
    def test_determinism(self):
        place = ScenePlacement(0.8, 10.0, Environment.OFFICE)
        user = UserProfile()
        a = make_gesture_scene(GestureClass.CIRCLE, place, user, rng_seed=11)
        b = make_gesture_scene(GestureClass.CIRCLE, place, user, rng_seed=11)
        assert len(a.hand) == len(b.hand)
        t = np.linspace(0, 1.6, 37)
        for sa, sb in zip(a.scatterers, b.scatterers):
            ra, va = sa.trajectory(t)
            rb, vb = sb.trajectory(t)
            assert np.array_equal(ra, rb) and np.array_equal(va, vb)
            assert sa.amplitude == sb.amplitude

    def test_hand_cluster_size_and_static_clutter(self):
        scene = make_gesture_scene(
            GestureClass.PUSH, ScenePlacement(), UserProfile(), rng_seed=3
        )
        assert 3 <= len(scene.hand) <= 5
        assert len(scene.clutter) == 8  # Classroom preset
        t = np.linspace(0, 1.6, 11)
        for sc in scene.clutter:
            r, v = sc.trajectory(t)
            assert np.ptp(r) == 0.0 and np.all(v == 0.0)

    def test_environment_clutter_presets(self):
        for env, count in [(Environment.CLASSROOM, 8), (Environment.OFFICE, 12),
                           (Environment.CONFERENCE_HALL, 4)]:
            scene = make_gesture_scene(
                GestureClass.PULL, ScenePlacement(environment=env), UserProfile(), 5
            )
            assert len(scene.clutter) == count

    def test_placement_error_when_template_exits_zone(self):
        # push from 0.3 m with large extent crosses the 0.3 m floor
        with pytest.raises(PlacementError, match="Push"):
            make_gesture_scene(
                GestureClass.PUSH,
                ScenePlacement(base_range=0.3),
                UserProfile(extent_scale=1.5),
                rng_seed=1,
            )

    def test_invalid_placement_and_profile(self):
        with pytest.raises(ConfigError):
            ScenePlacement(base_range=0.1).validate()
        with pytest.raises(ConfigError):
            ScenePlacement(azimuth_deg=75.0).validate()
        with pytest.raises(ConfigError):
            UserProfile(speed_scale=2.0).validate()

    def test_clutter_only_scene_has_zero_slow_time_variance(self):
        from rfdm.radar import synthesize_cube

        scene = make_gesture_scene(
            GestureClass.PUSH, ScenePlacement(), UserProfile(), rng_seed=3
        )
        cube = synthesize_cube(RadarConfig(), scene.clutter, n_frames=1)
        chirps = cube.samples[0, :, :, 0]
        # zero slow-time variance == every chirp is bit-identical
        assert np.array_equal(chirps, np.broadcast_to(chirps[0], chirps.shape))
        assert np.all(np.ptp(chirps.real, axis=0) == 0.0)
        assert np.all(np.ptp(chirps.imag, axis=0) == 0.0)


class TestDatasetGeneration:
    def test_minimal_product_is_seven(self):
        spec = DatasetSpec(instances=1, n_frames=2, noise_sigma=0.0)
        plan = dataset_plan(spec, rng_seed=0)
        assert len(plan) == 7
        assert sorted(row["class_name"] for row in plan) == sorted(
            g.value for g in GESTURE_CLASSES
        )
        for row in plan:
            assert synthesize_sample(spec, row).samples.shape[0] == 2

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
        cube = synthesize_sample(spec, row)
        cube.validate()
        assert cube.samples.shape == (4, 128, 112, 1)
