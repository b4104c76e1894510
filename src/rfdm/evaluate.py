"""Evaluation protocols: per-user LOOCV, location and environment holdouts.

Splits are built from sample provenance metadata (user_id, location_id,
environment). Every fold trains a fresh seeded model, selects the best
epoch on a validation slice carved from its training samples, and counts a
confusion matrix on the held-out samples over the seven gesture classes of
`gestures.GESTURE_CLASSES`. `run_protocol` returns the `report.json`
document: the folds' records and their unweighted mean accuracy. Each line
a fold logs, its training epochs included, starts with the fold id.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ManifestError
from .gestures import GESTURE_CLASSES
from .io import require_field
from .model import CnnTcnConfig, TrainConfig, build_model, predict_classes, train_model
from .seeding import child_seed, substream

PROTOCOLS = ("loocv", "location", "environment", "random")

# the designated training position for the location-holdout protocol
TRAIN_LOCATION = (0.75, 0.0)

# the share of each class's training samples carved off for validation,
# unless the caller (the config's train.val_fraction) sets another
VAL_FRACTION = 0.15

log = logging.getLogger(__name__)


@dataclass
class SplitPlan:
    kind: str
    fold_id: str
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def validate(self, n_total: int) -> None:
        tr, va, te = set(self.train.tolist()), set(self.val.tolist()), set(self.test.tolist())
        if tr & te or tr & va or va & te:
            raise ConfigError(f"fold {self.fold_id}: train/val/test overlap")
        if not tr or not te:
            raise ConfigError(f"fold {self.fold_id}: empty train or test split")
        if not (tr | va | te) <= set(range(n_total)):
            raise ConfigError(f"fold {self.fold_id}: index out of range")
        # holdout protocols cover only the involved groups; full coverage
        # is required for the partitioning kinds
        if self.kind in ("loocv", "random") and len(tr) + len(va) + len(te) != n_total:
            raise ConfigError(f"fold {self.fold_id}: indices do not cover the dataset")


def carve_validation(train_ids, labels, rng, fraction):
    """Per-class validation slice; always leaves >= 1 training sample per class."""
    train_ids = np.asarray(train_ids, dtype=np.intp)
    val = []
    for c in np.unique(labels[train_ids]):
        ids = train_ids[labels[train_ids] == c]
        ids = ids[rng.permutation(len(ids))]
        n_val = min(int(round(fraction * len(ids))), len(ids) - 1)
        val.extend(ids[:n_val].tolist())
    val_set = set(val)
    train = np.array(sorted(i for i in train_ids.tolist() if i not in val_set), dtype=np.intp)
    return train, np.array(sorted(val), dtype=np.intp)


def _require(meta, key):
    return np.array(require_field(meta, key))


def make_splits(meta: list, kind: str, *, val_fraction: float = VAL_FRACTION,
                seed: int = 0) -> list:
    """Build SplitPlans from per-sample metadata dicts; labels are their class_id.

    loocv: one fold per user (test = that user). location: train at
    TRAIN_LOCATION, one test fold per other location. environment: train in
    the Classroom analog, one test fold per other environment. random: one
    fold whose test set is round(0.2 * n) samples (at least 1) drawn at
    random; the rest are train, less val_fraction of each class carved off
    for validation. Each field a protocol reads (user_id, location_id,
    base_range, azimuth_deg, environment) comes through io.require_field,
    which refuses a mistyped value by row and name: the CLI checks these
    fields here, once, before any output."""
    if kind not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {kind!r}; expected one of {PROTOCOLS}")
    n = len(meta)
    labels = _require(meta, "class_id")
    all_idx = np.arange(n, dtype=np.intp)
    rng = substream(seed, "val-carve")
    plans = []

    if kind == "loocv":
        users = _require(meta, "user_id")
        for u in sorted(set(users.tolist())):
            test = all_idx[users == u]
            train, val = carve_validation(all_idx[users != u], labels, rng, val_fraction)
            plans.append(SplitPlan(kind, f"user:{u}", train, val, test))
    elif kind in ("location", "environment"):  # one fold per group outside training
        if kind == "location":
            group = _require(meta, "location_id")
            ranges = _require(meta, "base_range")
            azim = _require(meta, "azimuth_deg")
            at_train = (np.abs(ranges - TRAIN_LOCATION[0]) < 1e-9) & \
                       (np.abs(azim - TRAIN_LOCATION[1]) < 1e-9)
            no_train = f"no samples at the training location {TRAIN_LOCATION}; cannot hold out"
        else:
            group = _require(meta, "environment")
            at_train = group == "Classroom"
            no_train = "no Classroom samples to train the environment holdout"
        if not at_train.any():
            raise ManifestError(no_train)
        for g in sorted(set(group[~at_train].tolist())):
            train, val = carve_validation(all_idx[at_train], labels, rng, val_fraction)
            plans.append(SplitPlan(kind, f"{kind}:{g}", train, val,
                                   all_idx[(group == g) & ~at_train]))
    else:  # random
        order = substream(seed, "random-split").permutation(n)
        n_test = max(1, int(round(0.2 * n)))
        test = np.sort(order[:n_test])
        train, val = carve_validation(np.sort(order[n_test:]), labels, rng, val_fraction)
        plans.append(SplitPlan(kind, "random:0", train, val, test))

    if not plans:  # a holdout whose samples all sit in its training group
        raise ManifestError(f"{kind} protocol: every sample is in the training group, "
                            f"so there is nothing to hold out")
    for p in plans:
        p.validate(n)
    return plans


def confusion(y_true, y_pred) -> dict:
    """Confusion counts over GESTURE_CLASSES (rows = true class id, columns
    = predicted), the class names, accuracy and per-class recall, null for
    a class with no test samples."""
    k = len(GESTURE_CLASSES)
    flat = k * np.asarray(y_true, np.intp) + np.asarray(y_pred, np.intp)
    counts = np.bincount(flat, minlength=k * k).reshape(k, k)
    hits, row = np.diag(counts), counts.sum(axis=1)
    total = int(row.sum())
    return {
        "class_names": list(GESTURE_CLASSES),
        "counts": counts.tolist(),
        "accuracy": float(hits.sum()) / total if total else float("nan"),
        "per_class_recall": [float(h / n) if n else None for h, n in zip(hits, row)],
    }


def run_protocol(x: np.ndarray, labels: np.ndarray, plans: list, model_kind: str,
                 model_cfg: CnnTcnConfig, train_cfg: TrainConfig, *, master_seed: int,
                 workers: int = 1) -> dict:
    """Train one fresh model per fold and return the report document, each
    fold's confusion over GESTURE_CLASSES.

    Folds are independent (fresh model, derived seed), so `workers` > 1 runs
    them on a thread pool without changing any result."""

    def run_fold(fi: int, plan: SplitPlan) -> dict:
        fold_seed = child_seed(master_seed, "fold", fi)
        model = build_model(model_kind, model_cfg, init_seed=fold_seed)
        res = train_model(model, x, labels, plan.train, plan.val,
                          replace(train_cfg, seed=fold_seed), log_prefix=f"[{plan.fold_id}] ")
        conf = confusion(labels[plan.test], predict_classes(model, x[plan.test]))
        log.info("[%s] test accuracy %.4f", plan.fold_id, conf["accuracy"])
        return {"id": plan.fold_id, "accuracy": conf["accuracy"], "best_epoch": res.best_epoch,
                "best_val_acc": res.best_val_acc, "train_seed": fold_seed, "confusion": conf}

    if workers > 1 and len(plans) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            folds = list(pool.map(run_fold, range(len(plans)), plans))
    else:
        folds = [run_fold(fi, plan) for fi, plan in enumerate(plans)]
    return {"protocol": plans[0].kind, "model": model_kind, "master_seed": master_seed,
            "mean_accuracy": float(np.mean([f["accuracy"] for f in folds])), "folds": folds}
