"""Span tracer for the rfdm benchmark's traced run.

The tracer wraps public functions of the rfdm modules and the forward,
backward and step methods of the nn layer classes from the outside: it
patches module attributes and class methods, and leaves the package source
untouched. `cli`, `gestures`, `evaluate` and `io` bind functions with
`from .x import ...`, so every module attribute that holds the original
function object is patched, not only the defining one; otherwise calls
through those bindings would bypass the wrapper.

Spans are kept in memory as [name, start, end, parent] (parent is the index
of the enclosing span, -1 at top level) and are written out once, after the
run. Everything runs on one thread (fold workers = 1), so nothing waits on a
queue or a lock: waiting time is absent, not zero, and is not reported.
"""

import contextlib
import functools
import json
import os
import time

# (module, function) pairs wrapped in the traced run, in layer order
FUNCTIONS = (
    ("radar", "synthesize_cube"),
    ("gestures", "synthesize_sample"),
    ("dsp", "cube_to_rfdm"),
    ("dsp", "range_compress"),
    ("dsp", "doppler_process"),
    ("dsp", "condition_rfdm"),
    ("dsp", "fft"),
    ("io", "write_cube"),
    ("io", "read_cube"),
    ("io", "sha256_file"),
    ("io", "verify_manifest_files"),
    ("io", "write_rfdm"),
    ("io", "read_rfdm"),
    ("io", "load_checkpoint"),
    ("model", "build_model"),
    ("model", "train_model"),
    ("model", "evaluate_accuracy"),
    ("model", "predict"),
    ("evaluate", "make_splits"),
    ("evaluate", "run_protocol"),
    ("cli", "main"),
    ("cli", "cmd_gen"),
    ("cli", "cmd_preprocess"),
    ("cli", "cmd_eval"),
)

# io functions whose first argument is a file: its size gives MB moved
FILE_FUNCTIONS = {"write_cube", "read_cube", "sha256_file", "write_rfdm", "read_rfdm"}

# (nn class, method) pairs wrapped in the traced run
METHODS = tuple((cls, method)
                for cls in ("Conv2d", "BatchNorm2d", "LeakyReLU", "MaxPool2d", "ChannelReduce",
                            "CausalConv1d", "Dropout", "Dense")
                for method in ("forward", "backward")) + (("Adam", "step"),)


def layer_name(layer):
    """The name a layer was built with; None for the unnamed classes."""
    name = getattr(layer, "name", None)
    if isinstance(name, str):
        return name
    w = getattr(layer, "w", None)
    return w.name[: -len(".w")] if w is not None else None


def conv_geometry(layer, x):
    """(multiply-adds of one forward GEMM, im2col bytes) for Conv2d on x."""
    n, h, w, _ = x.shape
    ho, wo, _, _ = layer._geometry(h, w)
    k = layer.kh * layer.kw * layer.c_in
    rows = n * ho * wo
    return rows * k * layer.c_out, rows * k * 8


class Tracer:
    """Records spans around rfdm entry points while `installed()`."""

    def __init__(self, package):
        self.pkg = package  # dict: short module name -> module object
        self.spans = []
        self.stack = []
        self.computed = {}  # computed quantities: FLOPs, im2col bytes, file bytes
        self._patches = []

    # -- recording ------------------------------------------------------
    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def add(self, key, amount):
        self.computed[key] = self.computed.get(key, 0.0) + amount

    def peak(self, key, amount):
        self.computed[key] = max(self.computed.get(key, 0.0), amount)

    # -- patching -------------------------------------------------------
    def _function_wrapper(self, mod_name, fn_name, fn):
        name = f"{mod_name}.{fn_name}"
        tracer = self
        sized = fn_name in FILE_FUNCTIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
                if sized:
                    tracer.add(name + ".computed_mb", os.path.getsize(args[0]) / 1e6)

        return wrapper

    def _method_wrapper(self, cls_name, method, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(layer, *args, **kwargs):
            lname = layer_name(layer)
            base = f"nn.{cls_name}" + (f".{lname}" if lname else "")
            if cls_name == "Conv2d" and method == "forward":
                macs, cols_bytes = conv_geometry(layer, args[0])
                tracer.peak(base + ".computed_im2col_mb", cols_bytes / 1e6)
                tracer.add(base + ".computed_gflop", 2 * macs / 1e9)
            elif cls_name == "Conv2d":  # weight-gradient and input-gradient GEMMs
                rows, k = layer._cache[0].shape
                tracer.add(base + ".computed_gflop", 2 * 2 * rows * k * layer.c_out / 1e9)
            idx = tracer._enter(f"{base}.{method}")
            try:
                return fn(layer, *args, **kwargs)
            finally:
                tracer._exit(idx)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions and methods, and
        restore them on exit."""
        self._install()
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, fn = self._patches.pop()
                setattr(owner, attr, fn)

    def _install(self):
        modules = list(self.pkg.values())
        for mod_name, fn_name in FUNCTIONS:
            fn = getattr(self.pkg[mod_name], fn_name)
            wrapper = self._function_wrapper(mod_name, fn_name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for cls_name, method in METHODS:
            cls = getattr(self.pkg["nn"], cls_name)
            fn = cls.__dict__[method]
            self._patches.append((cls, method, fn))
            setattr(cls, method, self._method_wrapper(cls_name, method, fn))

    # -- reporting ------------------------------------------------------
    def aggregate(self, first=0):
        """Per span name: calls, busy seconds and self seconds, from span `first` on.

        Self time is a span's duration minus the part its child spans cover;
        spans on one thread nest, so that part is the sum of the children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[first:]:
            if parent >= first:
                child[parent] += end - start
        stats = {}
        for i in range(first, len(self.spans)):
            name, start, end, _ = self.spans[i]
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child[i]
        return stats

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")


def per_layer_metrics(stats, computed):
    """Flatten aggregated spans and computed quantities into metric values.

    Module functions give <name>.calls, <name>.busy_ms and <name>.self_ms;
    nn layer methods, which are leaves, give <layer>.<method>_ms and
    <layer>.<method>.calls. Quantities computed from shapes and file sizes,
    not measured, are named `computed_*`; Conv2d adds achieved_gflop_per_s,
    its computed FLOPs over its measured forward and backward time."""
    out = {}
    for name, (calls, busy, self_s) in stats.items():
        out[name + ".calls"] = calls
        if name.startswith("nn."):
            out[name + "_ms"] = busy * 1e3
        else:
            out[name + ".busy_ms"] = busy * 1e3
            out[name + ".self_ms"] = self_s * 1e3
    out.update(computed)
    for key, gflop in computed.items():
        if key.endswith(".computed_gflop"):
            base = key[: -len(".computed_gflop")]
            secs = (out.get(base + ".forward_ms", 0.0) + out.get(base + ".backward_ms", 0.0)) / 1e3
            out[base + ".achieved_gflop_per_s"] = gflop / secs if secs > 0 else 0.0
    return out
