"""One cold set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed>

Makes the workload's inputs (the benchmark's own work, timed so that it can
be taken out), imports treemorse and treemorse.cli, builds the workload's
trees with the program's constructors, and prints one JSON line: the
monotonic clock reading when the first operation could start, and the
seconds spent making inputs and importing. run.py starts this script and
reads the line.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
trees = inputs.tree_arguments(workload, inputs.workload_inputs(workload, seed))
generate_s = time.perf_counter() - START

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t0 = time.perf_counter()
import treemorse  # noqa: E402
import treemorse.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0
for names, pairs in trees:
    treemorse.build_tree(names, pairs)
print(json.dumps({"ready": time.perf_counter(), "generate_s": generate_s, "import_s": import_s}))
