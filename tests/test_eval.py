import json
import logging
import sys

import numpy as np
import pytest

from rfdm.errors import ManifestError
from rfdm.evaluate import confusion, make_splits, run_protocol
from rfdm.gestures import GESTURE_CLASSES
from rfdm.model import CnnTcnConfig, TrainConfig


def make_meta(n_users=5, n_locations=3, n_instances=2, envs=("Classroom", "Office")):
    meta = []
    locations = [(0.75, 0.0), (1.2, 20.0), (0.6, -15.0), (1.0, 30.0), (0.9, -30.0)]
    for u in range(n_users):
        for l in range(n_locations):
            env = envs[l % len(envs)]
            for c in range(7):
                for k in range(n_instances):
                    meta.append(
                        {
                            "class_id": c,
                            "user_id": u,
                            "location_id": l,
                            "base_range": locations[l][0],
                            "azimuth_deg": locations[l][1],
                            "environment": env,
                        }
                    )
    return meta


class TestSplits:
    def test_loocv_one_fold_per_user(self):
        meta = make_meta(n_users=5)
        plans = make_splits(meta, "loocv")
        assert len(plans) == 5
        users = np.array([m["user_id"] for m in meta])
        for i, p in enumerate(plans):
            assert set(users[p.test].tolist()) == {i}
            assert i not in set(users[p.train]) | set(users[p.val])

    def test_location_holdout_fold_count(self):
        meta = make_meta(n_users=2, n_locations=5)
        plans = make_splits(meta, "location")
        assert len(plans) == 4  # five positions, one reserved for training
        ranges = np.array([m["base_range"] for m in meta])
        azims = np.array([m["azimuth_deg"] for m in meta])
        for p in plans:
            assert np.all(ranges[p.train] == 0.75) and np.all(azims[p.train] == 0.0)
            assert not np.any((ranges[p.test] == 0.75) & (azims[p.test] == 0.0))

    def test_environment_holdout(self):
        meta = make_meta(n_users=2, n_locations=3, envs=("Classroom", "Office", "ConferenceHall"))
        plans = make_splits(meta, "environment")
        envs = np.array([m["environment"] for m in meta])
        assert sorted(p.fold_id for p in plans) == [
            "environment:ConferenceHall",
            "environment:Office",
        ]
        for p in plans:
            assert set(envs[p.train]) | set(envs[p.val]) == {"Classroom"}

    def test_random_split_partitions_everything(self):
        meta = make_meta(n_users=2, n_locations=2)
        (plan,) = make_splits(meta, "random", seed=3)
        union = set(plan.train) | set(plan.val) | set(plan.test)
        assert union == set(range(len(meta)))

    def test_invariants_hold_on_every_plan(self):
        meta = make_meta(n_users=4, n_locations=3,
                         envs=("Classroom", "Office", "ConferenceHall"))
        for kind in ("loocv", "location", "environment", "random"):
            for p in make_splits(meta, kind, seed=1):
                train, val, test = (set(ids.tolist()) for ids in (p.train, p.val, p.test))
                assert not (train & test or train & val or val & test)
                assert train and test
                assert train | val | test <= set(range(len(meta)))
                # the partitioning kinds cover the dataset; a holdout only
                # its training group and the fold's test group
                if kind in ("loocv", "random"):
                    assert len(train) + len(val) + len(test) == len(meta)

    def test_missing_provenance_field(self):
        meta = make_meta(n_users=2)
        for m in meta:
            del m["user_id"]
        with pytest.raises(ManifestError, match="user_id"):
            make_splits(meta, "loocv")

    @pytest.mark.parametrize("protocol", ["location", "environment"])
    def test_single_placement_holdout_is_manifest_error(self, protocol):
        # every sample at TRAIN_LOCATION, in the Classroom: nothing to test on
        with pytest.raises(ManifestError, match=f"{protocol} protocol: every sample"):
            make_splits(make_meta(n_locations=1), protocol)

    @pytest.mark.parametrize("protocol, away, message", [
        ("location", {"base_range": 1.2, "azimuth_deg": 20.0},
         r"no samples at the training location \(0.75, 0.0\); cannot hold out"),
        ("environment", {"environment": "Office"},
         "no Classroom samples to train the environment holdout"),
    ], ids=["location", "environment"])
    def test_holdout_without_a_training_group_is_manifest_error(self, protocol, away, message):
        meta = make_meta(n_users=2, n_locations=3)
        for m in meta:
            m.update(away)
        with pytest.raises(ManifestError, match=message):
            make_splits(meta, protocol)

    def test_validation_keeps_every_class_in_train(self):
        meta = make_meta(n_users=3, n_instances=1)
        labels = np.array([m["class_id"] for m in meta])
        for p in make_splits(meta, "loocv", seed=2):
            assert set(labels[p.train].tolist()) == set(range(7))


class TestConfusion:
    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 7, 200)
        y_pred = rng.integers(0, 7, 200)
        cm = confusion(y_true, y_pred)
        counts = np.array(cm["counts"])
        assert counts.sum() == 200
        assert cm["accuracy"] == np.trace(counts) / 200.0
        # row sums are the per-class test counts, cells the (true, predicted) pairs
        for c in range(7):
            assert counts[c].sum() == int((y_true == c).sum())
            for d in range(7):
                assert counts[c, d] == int(((y_true == c) & (y_pred == d)).sum())

    def test_recall_diagonal(self):
        cm = confusion([0, 0, 1], [0, 1, 1])
        counts = np.zeros((7, 7), dtype=int)
        counts[0, 0] = counts[0, 1] = counts[1, 1] = 1
        assert cm["counts"] == counts.tolist()
        assert cm["per_class_recall"] == [0.5, 1.0] + [None] * 5

    def test_dict_writes_recall_with_null_for_an_untested_class(self):
        cm = confusion([0, 0, 2], [0, 1, 1])
        doc = json.loads(json.dumps(cm))
        counts = np.zeros((7, 7), dtype=int)
        counts[0, 0] = counts[0, 1] = counts[2, 1] = 1
        assert doc == {"class_names": list(GESTURE_CLASSES), "counts": counts.tolist(),
                       "accuracy": 1 / 3, "per_class_recall": [0.5, None, 0.0] + [None] * 4}


# conv3's 48 channels reduce to 4
SMALL_CFG = CnnTcnConfig(t_frames=4, height=8, width=8, conv_channels=(4, 6, 48))


def separable_dataset(meta):
    """One fixed template per class (plus tiny per-sample noise)."""
    rng = np.random.default_rng(9)
    templates = []
    for c in range(7):
        m = np.zeros((4, 8, 8))
        m[c % 4, (c * 5 + 2) % 7, (c * 3 + 2) % 7] = 1.0
        m[(c + 1) % 4, (c * 2 + 4) % 7, (c * 5 + 1) % 7] = 0.7
        templates.append(m)
    x, y = [], []
    for row in meta:
        c = row["class_id"]
        x.append(templates[c] + 1e-3 * rng.random((4, 8, 8)))
        y.append(c)
    return np.array(x), np.array(y)


class TestRunProtocol:
    def test_template_dataset_reaches_perfect_folds(self):
        meta = make_meta(n_users=2, n_locations=1, n_instances=2)
        x, y = separable_dataset(meta)
        plans = make_splits(meta, "loocv", seed=0)
        result = run_protocol(
            x, y, plans, "cnn-tcn", SMALL_CFG,
            TrainConfig(lr=1e-2, batch_size=7, epochs=100, seed=0),
            master_seed=5,
        )
        assert len(result["folds"]) == 2
        for f in result["folds"]:
            assert f["accuracy"] == 1.0
        assert result["mean_accuracy"] == 1.0

    def test_confusion_identity_and_determinism(self):
        meta = make_meta(n_users=2, n_locations=1, n_instances=1)
        x, y = separable_dataset(meta)
        plans = make_splits(meta, "loocv", seed=1)

        def run():
            return run_protocol(
                x, y, plans, "cnn-tcn", SMALL_CFG,
                TrainConfig(lr=5e-3, batch_size=7, epochs=5, seed=0),
                master_seed=11,
            )

        r1, r2 = run(), run()
        assert r1 == r2
        for f in r1["folds"]:
            counts = np.array(f["confusion"]["counts"])
            assert f["confusion"]["accuracy"] == np.trace(counts) / counts.sum()

    def test_fold_workers_do_not_change_the_result(self):
        meta = make_meta(n_users=3, n_locations=1, n_instances=1)
        x, y = separable_dataset(meta)
        plans = make_splits(meta, "loocv", seed=2)

        def run(workers):
            return run_protocol(
                x, y, plans, "cnn-tcn", SMALL_CFG,
                TrainConfig(lr=5e-3, batch_size=7, epochs=2, seed=0),
                master_seed=3, workers=workers,
            )

        assert run(2) == run(1)

    def test_fold_workers_keep_the_callers_error_rule(self):
        # numpy's error state is a context variable, which a new thread
        # does not inherit: each fold runs in a copy of the caller's
        # context, so a diverging fold raises in a worker as it would in
        # the caller's thread
        meta = make_meta(n_users=2, n_locations=1, n_instances=1)
        x, y = separable_dataset(meta)
        plans = make_splits(meta, "loocv", seed=2)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(FloatingPointError):
                run_protocol(x, y, plans, "cnn-tcn", SMALL_CFG,
                             TrainConfig(lr=1e6, batch_size=7, epochs=2, seed=0),
                             master_seed=3, workers=2)

    def test_fold_threads_tag_their_own_log_lines(self, caplog):
        # more fold threads than cores, switching often: a fold id shared
        # between threads would tag some epoch lines with another fold's id
        meta = make_meta(n_users=4, n_locations=1, n_instances=1)
        x, y = separable_dataset(meta)
        plans = make_splits(meta, "loocv", seed=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level(logging.INFO, logger="rfdm"):
                run_protocol(x, y, plans, "cnn-tcn", SMALL_CFG,
                             TrainConfig(lr=5e-3, batch_size=7, epochs=4, seed=0),
                             master_seed=3, workers=len(plans))
        finally:
            sys.setswitchinterval(interval)
        lines = [r.getMessage() for r in caplog.records if r.name == "rfdm.model"]
        assert len(lines) == 4 * len(plans)
        for plan in plans:
            mine = [line.split()[1:3] for line in lines if line.startswith(f"[{plan.fold_id}] ")]
            assert mine == [["epoch", f"{k}:"] for k in range(4)]

    def test_no_index_leaks_between_train_and_test(self):
        meta = make_meta(n_users=3, n_locations=2)
        plans = make_splits(meta, "loocv", seed=0)
        for p in plans:
            assert not (set(p.train) | set(p.val)) & set(p.test)
