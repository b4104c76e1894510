"""The benchmark's span tracer (perfbench/tracer.py) over one train step.

The tracer wraps nn layer classes and methods by name, so a layer
restructure that drops or renames one breaks the traced benchmark run;
this test fails first. The tracer is loaded from its file and left as it
is."""

import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np

from rfdm import cli, dsp, evaluate, gestures, io, model, nn, radar

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = {"radar": radar, "gestures": gestures, "dsp": dsp, "io": io, "nn": nn,
           "model": model, "evaluate": evaluate, "cli": cli}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_train_step_reports_every_frame_layer():
    tracer = load_tracer()
    cfg = model.CnnTcnConfig(t_frames=4, height=8, width=8, conv_channels=(2, 3, 4))
    m = model.CnnTcn(cfg, init_seed=0)
    adam = nn.Adam(m.params())
    rng = np.random.default_rng(0)
    x, y = rng.random((2, 4, 8, 8)), np.array([1, 5])
    t = tracer.Tracer(PACKAGE)
    with t.installed():
        _, _, dlogits = nn.softmax_xent(m.forward(x, train=True), y)
        adam.zero_grad()
        m.backward(dlogits)
        adam.step()
    metrics = tracer.per_layer_metrics(t.aggregate(), t.computed)

    keys = [f"nn.{layer}.{method}{suffix}"
            for layer in ("BatchNorm2d.frame.bn1", "BatchNorm2d.frame.bn2",
                          "BatchNorm2d.frame.bn3", "MaxPool2d", "Conv2d.frame.conv2",
                          "Conv2d.frame.conv3")
            for method in ("forward", "backward") for suffix in ("_ms", ".calls")]
    keys += [f"nn.Conv2d.frame.conv{i}.{q}" for i in (2, 3)
             for q in ("computed_gflop", "computed_im2col_mb", "achieved_gflop_per_s")]
    missing = [k for k in keys if k not in metrics]
    assert missing == []
    assert all(math.isfinite(metrics[k]) for k in keys)
    assert metrics["nn.MaxPool2d.forward.calls"] == 2
    assert metrics["nn.MaxPool2d.backward.calls"] == 2
    # the pools run inside bn1 and bn2, so their spans nest in BN's
    names = [s[0] for s in t.spans]
    parents = {names[s[3]] for s in t.spans if s[0].startswith("nn.MaxPool2d.")}
    assert parents == {f"nn.BatchNorm2d.frame.bn{i}.{method}"
                       for i in (1, 2) for method in ("forward", "backward")}
    # installed() restores the original methods on exit
    assert not hasattr(nn.BatchNorm2d.forward, "__wrapped__")


def test_pool_spans_nest_once_per_slice():
    # 20 frames of 32x32 maps with bn2 at 32 channels: bn2's passes pool and
    # route 8 frames a slice, so they run 3 slices, and bn1's passes 5
    tracer = load_tracer()
    cfg = model.CnnTcnConfig(t_frames=10, height=32, width=32, conv_channels=(2, 32, 4))
    m = model.CnnTcn(cfg, init_seed=0)
    bn1, bn2 = (layer for layer in m.frame if getattr(layer, "pool", None) is not None)
    rng = np.random.default_rng(1)
    x, y = rng.random((2, 10, 32, 32)), np.array([0, 4])
    t = tracer.Tracer(PACKAGE)
    with t.installed():
        _, _, dlogits = nn.softmax_xent(m.forward(x, train=True), y)
        m.backward(dlogits)
    slices = {"bn1": math.ceil(20 / bn1.conv._slice_images(np.empty((20, 32, 32, 1)))),
              "bn2": math.ceil(20 / bn2._slice_images(np.empty((20, 16, 16, 32))))}
    assert slices == {"bn1": 5, "bn2": 3}
    names = [s[0] for s in t.spans]
    parents = Counter(names[s[3]] for s in t.spans if s[0].startswith("nn.MaxPool2d."))
    assert parents == {"nn.BatchNorm2d.frame.bn1.forward": slices["bn1"],
                       "nn.BatchNorm2d.frame.bn1.backward": slices["bn1"],
                       "nn.BatchNorm2d.frame.bn2.forward": slices["bn2"],
                       "nn.BatchNorm2d.frame.bn2.backward": slices["bn2"]}
