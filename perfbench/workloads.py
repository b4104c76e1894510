"""The rfdm benchmark workloads: pipeline, loocv and infer.

Each workload drives the program from outside, through its public entry
points (`cli.main`, `io`, `model`), in this one process with fold workers = 1.
Its inputs come from the workload seed only. A workload has a set-up, which
the runner times several times, a timed operation, which the runner repeats
for the run's seconds, and correctness checks, which run outside the timed
region and count toward `failed`.
"""

import contextlib
import io as stdio
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import rfdm  # noqa: E402
from rfdm import cli, dsp, evaluate, gestures, model, nn, radar  # noqa: E402
from rfdm import io as rio  # noqa: E402

if Path(rfdm.__file__).resolve().parent != SRC / "rfdm":
    raise ImportError(f"rfdm imported from {rfdm.__file__}, expected {SRC / 'rfdm'}")

PACKAGE = {"radar": radar, "gestures": gestures, "dsp": dsp, "io": rio, "nn": nn,
           "model": model, "evaluate": evaluate, "cli": cli}
N_CLASSES = len(gestures.GESTURE_CLASSES)

# pipeline check: |reference - program| on maxnorm-scaled maps stored as f32
RFDM_ATOL = 1e-6
# infer check: per-request output against a batched forward of the same sequence
PROB_ATOL = 1e-9

WARMUP_SCENES = (1, 1, 1)  # pipeline set-up job: 7 scenes
EPOCHS = 1                 # loocv training epochs per fold
BATCH_OPS = 2              # pipeline jobs / loocv protocols per run, at least


@dataclass(frozen=True)
class Sizes:
    """Input sizes; (users, placements, instances) of standard_benchmark_spec."""

    n_frames: int = 16
    pipeline_scenes: tuple = (3, 3, 1)  # one pipeline job: 63 scenes
    loocv_scenes: tuple = (3, 3, 1)     # 63 sequences, one fold per user
    infer_scenes: tuple = (2, 1, 1)     # 14 distinct .rfdm request files
    batch_size: int = 32
    setup_reps: int = 3
    min_requests: int = 1500            # infer requests per run, at least
    traced_requests: int = 140


def scene_count(scenes):
    users, placements, instances = scenes
    return N_CLASSES * users * placements * instances


def write_config(path, scenes, n_frames, **sections):
    """An rfdm JSON config over the first users/placements of the standard spec."""
    users, placements, instances = scenes
    spec = gestures.standard_benchmark_spec()
    cfg = {"gen": {
        "instances": instances,
        "n_frames": n_frames,
        "noise_sigma": spec.noise_sigma,
        "users": [asdict(u) for u in spec.users[:users]],
        "placements": [{"base_range": p.base_range, "azimuth_deg": p.azimuth_deg,
                        "environment": p.environment.value}
                       for p in spec.placements[:placements]],
    }}
    cfg.update(sections)
    Path(path).write_text(json.dumps(cfg))
    return str(path)


def rfdm_main(*argv):
    """`rfdm <argv>` in-process; its console output is dropped."""
    with contextlib.redirect_stdout(stdio.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"rfdm {argv[0]} exited with code {code}")


def gen_and_preprocess(config, seed, out):
    """`rfdm gen` then `rfdm preprocess --no-mti`; returns the RFDM manifest path."""
    rfdm_main("gen", "--config", config, "--seed", seed, "--out", out / "gen")
    rfdm_main("preprocess", "--config", config, "--seed", seed, "--no-mti",
              "--manifest", out / "gen" / "dataset_manifest.json", "--out", out / "pp")
    return out / "pp" / "rfdm_manifest.json"


# ---------------------------------------------------------------------------
# Reference DSP chain for the pipeline check
# ---------------------------------------------------------------------------


def read_cube_file(path):
    """Samples of an .rfdc file, parsed independently of rfdm.io."""
    data = Path(path).read_bytes()
    dims = struct.unpack("<4I", data[8:24])
    return np.frombuffer(data[24:-8], dtype="<c16").reshape(dims)


def read_rfdm_file(path):
    data = Path(path).read_bytes()
    dims = struct.unpack("<3I", data[8:20])
    return np.frombuffer(data[21:], dtype="<f4").reshape(dims)


def reference_rfdm(cube, n_range=32, n_doppler=32):
    """Hann window, zero-pad to a power of two, range FFT, Doppler FFT,
    fftshift, rx mean, crop (range from bin 0, Doppler centred) and maxnorm,
    with numpy.fft: the chain `rfdm preprocess --no-mti` implements."""
    _, n_chirps, n_samples, _ = cube.shape
    pad_s = 1 << (n_samples - 1).bit_length()
    pad_c = 1 << (n_chirps - 1).bit_length()
    x = np.fft.fft(cube * np.hanning(n_samples)[:, None], n=pad_s, axis=2)
    x = np.fft.fft(x * np.hanning(n_chirps)[:, None, None], n=pad_c, axis=1)
    mag = np.abs(np.fft.fftshift(x, axes=1)).mean(axis=3)   # [frame, doppler, range]
    d0 = pad_c // 2 - n_doppler // 2
    crop = mag[:, d0 : d0 + n_doppler, :n_range].transpose(0, 2, 1)
    return crop / crop.max()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up, timed operation and checks of one workload.

    Each operation makes `checks` correctness checks; an operation that
    raises counts as that many failed ones."""

    def __init__(self, seed, sizes, work):
        self.seed, self.sizes, self.work = seed, sizes, work
        self.walls = []  # seconds per timed operation
        self.attempted = 0
        self.failed = 0

    def min_ops(self):
        """Operations a run measures at least, however short --seconds is."""
        return BATCH_OPS

    def traced_ops(self):
        """Operations in each pass of a traced run."""
        return 1

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def clean(self):
        """Remove what the previous set-up left, outside the timed set-up."""

    def prepare(self):
        """Untimed work after the last set-up, before the timed operations."""

    def metrics(self):
        """Throughput counts `units` items per operation."""
        return {"throughput_per_s": self.units * len(self.walls) / sum(self.walls),
                "op_p50_ms": statistics.median(self.walls) * 1e3}


class Pipeline(Workload):
    """`rfdm gen` then `rfdm preprocess --no-mti` over 63 scenes per job."""

    checks = 4  # the manifest lists every scene; first, middle and last scene match

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self.config = write_config(work / "pipeline.json", sizes.pipeline_scenes, sizes.n_frames)
        self.warm_config = write_config(work / "warmup.json", WARMUP_SCENES, sizes.n_frames)
        self.scenes = self.units = scene_count(sizes.pipeline_scenes)

    def clean(self):
        shutil.rmtree(self.work / "warmup", ignore_errors=True)

    def setup(self, rep):
        # a small job fills lazy imports, FFT tables and the allocator before timing
        gen_and_preprocess(self.warm_config, self.seed, self.work / "warmup")

    def op(self, i):
        out = self.work / f"job{i}"
        start = time.perf_counter()
        manifest = gen_and_preprocess(self.config, self.seed * 1000 + i, out)
        wall = time.perf_counter() - start
        self.walls.append(wall)
        self.check(manifest, out)
        shutil.rmtree(out)
        return wall

    def check(self, manifest, out):
        rows = json.loads(manifest.read_text())["samples"]
        if len(rows) != self.scenes:
            self.count(self.checks, self.checks)
            return
        failed = 0
        for k in (0, len(rows) // 2, len(rows) - 1):
            row = rows[k]
            want = reference_rfdm(read_cube_file(out / "gen" / row["cube_path"]))
            got = read_rfdm_file(out / "pp" / row["path"])
            failed += not (got.shape == want.shape
                           and float(np.max(np.abs(got - want))) <= RFDM_ATOL)
        self.count(self.checks, failed)

    def report(self):
        return {"pipeline_samples_per_s": [self.metrics()["throughput_per_s"], "1/s"],
                "scenes_per_job": self.scenes, "jobs": len(self.walls)}


class TrainTimer:
    """Times `train_model` calls made through evaluate's binding.

    Train throughput is training samples through forward and backward per
    second of train_model time; the loss curve feeds the quality record."""

    def __init__(self):
        self.results = []  # (seconds, samples, TrainResult) per fold
        self._orig = None

    def __enter__(self):
        self._orig = orig = evaluate.train_model

        def timed(m, x, y, train_idx, val_idx, cfg, **kw):
            start = time.perf_counter()
            res = orig(m, x, y, train_idx, val_idx, cfg, **kw)
            self.results.append((time.perf_counter() - start,
                                 len(train_idx) * len(res.curve), res))
            return res

        evaluate.train_model = timed
        return self

    def __exit__(self, *exc):
        evaluate.train_model = self._orig


class Loocv(Workload):
    """`rfdm eval --protocol loocv --model cnn-tcn` on an RFDM manifest built in set-up."""

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self.config = write_config(work / "loocv.json", sizes.loocv_scenes, sizes.n_frames,
                                   train={"batch_size": sizes.batch_size})
        self.train_s = 0.0
        self.train_samples = 0
        self.quality = []  # (mean accuracy, per-fold final train loss) per protocol

    def clean(self):
        shutil.rmtree(self.work / "inputs", ignore_errors=True)

    def setup(self, rep):
        self.manifest = gen_and_preprocess(self.config, self.seed, self.work / "inputs")

    def prepare(self):
        shutil.rmtree(self.work / "inputs" / "gen" / "cubes")
        users = [r["user_id"] for r in json.loads(self.manifest.read_text())["samples"]]
        self.test_sizes = {f"user:{u}": users.count(u) for u in set(users)}
        self.checks = len(self.test_sizes)  # one per fold

    def op(self, i):
        out = self.work / f"eval{i}"
        with TrainTimer() as timer:
            start = time.perf_counter()
            rfdm_main("eval", "--config", self.config, "--seed", self.seed,
                      "--manifest", self.manifest, "--out", out, "--protocol", "loocv",
                      "--model", "cnn-tcn", "--epochs", EPOCHS)
            wall = time.perf_counter() - start
        self.walls.append(wall)
        self.train_s += sum(r[0] for r in timer.results)
        self.train_samples += sum(r[1] for r in timer.results)
        self.check(json.loads((out / "report.json").read_text()), timer.results)
        shutil.rmtree(out)
        return wall

    def check(self, report, fold_results):
        folds = report["folds"]
        if sorted(f["id"] for f in folds) != sorted(self.test_sizes) or \
                len(fold_results) != len(folds):
            self.count(self.checks, self.checks)
            return
        losses = [r.final_train_loss for _, _, r in fold_results]
        self.quality.append((report["mean_accuracy"], losses))
        failed = 0
        for k, (fold, (_, _, res)) in enumerate(zip(folds, fold_results)):
            ok = int(np.sum(fold["confusion"]["counts"])) == self.test_sizes[fold["id"]]
            ok &= all(np.isfinite(loss) for _, loss, _ in res.curve)
            # determinism: the same seed gives the same accuracy and losses
            first_acc, first_losses = self.quality[0]
            ok &= report["mean_accuracy"] == first_acc and losses[k] == first_losses[k]
            failed += not ok
        self.count(len(folds), failed)

    def metrics(self):
        return {"throughput_per_s": self.train_samples / self.train_s,
                "op_p50_ms": statistics.median(self.walls) * 1e3}

    def report(self):
        acc, losses = self.quality[0] if self.quality else (None, [])
        return {"loocv_wall_s": [statistics.median(self.walls), "s"],
                "train_samples_per_s": [self.metrics()["throughput_per_s"], "1/s"],
                "protocols": len(self.walls), "epochs": EPOCHS,
                "quality": {"mean_accuracy": acc, "fold_final_train_loss": losses,
                            "deterministic": all(q == self.quality[0] for q in self.quality),
                            "protocols_compared": len(self.quality)}}


class Infer(Workload):
    """Closed loop, one client: `io.read_rfdm` plus `model.predict` per request."""

    units = checks = 1

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self.config = write_config(work / "infer.json", sizes.infer_scenes, sizes.n_frames,
                                   train={"val_fraction": 0.05, "batch_size": 16})

    def clean(self):
        shutil.rmtree(self.work / "inputs", ignore_errors=True)

    def setup(self, rep):
        out = self.work / "inputs"
        manifest = gen_and_preprocess(self.config, self.seed, out)
        # training runs in a child process, so that its memory does not become
        # this process's peak RSS, which is meant to measure inference
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-m", "rfdm.cli", "train", "--config", self.config,
                        "--seed", str(self.seed), "--manifest", str(manifest),
                        "--out", str(out / "model"), "--epochs", "1"],
                       env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.model, _ = rio.load_checkpoint(out / "model" / "model.rfnn")
        self.files = [out / "pp" / r["path"]
                      for r in json.loads(manifest.read_text())["samples"]]

    def min_ops(self):
        # host speed drifts over seconds on a shared machine: a longer window
        # steadies the median from run to run
        return self.sizes.min_requests

    def traced_ops(self):
        return self.sizes.traced_requests

    def prepare(self):
        shutil.rmtree(self.work / "inputs" / "gen" / "cubes")
        # two sequences per batch: a different GEMM shape from the one-sequence
        # requests, and a small enough peak not to become the run's peak RSS
        seqs = np.stack([rio.read_rfdm(p).frames for p in self.files])
        self.expected = np.concatenate([nn.softmax(self.model.forward(seqs[k : k + 2]))
                                        for k in range(0, len(seqs), 2)])

    def op(self, i):
        j = i % len(self.files)
        start = time.perf_counter()
        seq = rio.read_rfdm(self.files[j])
        idx, probs = model.predict(self.model, seq.frames)
        wall = time.perf_counter() - start
        self.walls.append(wall)
        ok = 0 <= idx < N_CLASSES and abs(float(probs.sum()) - 1.0) <= PROB_ATOL
        ok = ok and float(np.max(np.abs(probs - self.expected[j]))) <= PROB_ATOL
        self.count(1, not ok)
        return wall

    def report(self):
        # the highest tail percentile with at least ten requests beyond it
        n = len(self.walls)
        q = next((q for q in (99, 95, 90, 75) if n * (100 - q) >= 1000), 50)
        return {"infer_p50_ms": [self.metrics()["op_p50_ms"], "ms"],
                f"infer_p{q}_ms": [float(np.percentile(self.walls, q)) * 1e3, "ms"],
                "requests": n}


WORKLOADS = {"pipeline": Pipeline, "loocv": Loocv, "infer": Infer}
