"""The benchmark's calls into rfdm: each workload of perfbench/run.py, run
untraced at perfbench/check_bench.py's tiny size (about 5 s for all three).

The workloads read `ScenePlacement.environment.value`, the 2-tuple of
`io.load_checkpoint` and `io.read_rfdm(...).frames`, among others, so a
package change that breaks one fails here before it fails a benchmark run.
The benchmark files are imported as they are. Importing `run` sets
RFDM_THREADS and the BLAS thread variables, so the environment is restored
once the module's tests are done; reports go to a temporary directory, not
the checkout's `.perfbench_out/`.
"""

import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run_tiny(tmp_path_factory):
    environ, path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import check_bench
        import run

        run.OUT = tmp_path_factory.mktemp("perfbench_out")
        yield lambda name: run.run(name, seed=5, seconds=0.2, trace=False,
                                   sizes=check_bench.TINY)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


@pytest.mark.parametrize("name", ["pipeline", "loocv", "infer"])
def test_workload_is_correct_with_no_failed_operation(run_tiny, name):
    result, report = run_tiny(name)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1 and report["error_rate"] == 0.0
