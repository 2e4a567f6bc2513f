"""Quick self-test of the benchmark: every workload at a tiny size.

    python3 bench/selftest.py

Each workload runs one round on tiny inputs, untraced and traced, and must
finish with no failed operation, its traced pass reaching every layer the
workload is meant to exercise (a non-zero per-layer metric). Then
each runs again with one treemorse function made to give a wrong answer,
and the wrong outputs must show up as failed operations. Takes a few
seconds; exits 1 if any of this does not hold.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import treemorse as tm  # noqa: E402
from treemorse.merge_tree import MergeTree  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny_run(name: str, tracer) -> workloads.Run:
    workload = workloads.make(
        name, inputs.workload_inputs(name, 7, tiny=True), BENCH.parent / ".bench_out" / "selftest"
    )
    workload.plan()
    return workloads.measure(workload, 0, tracer)


# the per-layer metrics each workload must move; together, all of them but
# the two that run.py adds (setup.import_s, trace.overhead_pct)
LAYERS_USED = {
    "census": [
        "oracle.labelings", "oracle.sweep_s", "oracle.ns_per_labeling",
        "oracle.check_invariants_s", "oracle.count_merge_classes_s",
    ],
    "large_documents": [
        "documents.parse_s", "documents.simplices", "complexes.build_tree_s", "morse.validate_s",
        "morse.validate_calls", "merge_tree.induce_s", "merge_tree.nodes", "merge_tree.render_s",
        "equivalence.persistence_s", "equivalence.compare_s", "cli.self_s",
    ],
    "small_functions": [
        "oracle.enumerate_dmfs_s", "morse.validate_s", "morse.validate_calls", "merge_tree.induce_s",
        "merge_tree.nodes", "merge_tree.render_s", "merge_tree.impasse_count_s",
        "equivalence.homological_s", "equivalence.persistence_s", "equivalence.compare_s",
        "complexes.matching_number_s", "stars.thin_from_lr_s", "stars.realize_on_star_s",
        "stars.lr_sequence_s",
    ],
}

# one planted fault per workload: (owner, attribute, wrong replacement)
FAULTS = {
    "census": (tm, "count_merge_classes", lambda right: lambda tree: right(tree) + 1),
    "large_documents": (MergeTree, "shape_code", lambda right: lambda self: right(self)[::-1]),
    "small_functions": (
        tm, "homological_sequence",
        lambda right: lambda f: tm.HomologicalSequence(right(f).entries[:-1]),
    ),
}


def main() -> int:
    ok = True
    for name, (owner, attribute, wrong) in FAULTS.items():
        clean = tiny_run(name, tracing.NoTrace())
        tracer = tracing.Tracer()
        traced = tiny_run(name, tracer)
        layers = tracing.layer_values(tracer, 1)
        unmoved = [metric for metric in LAYERS_USED[name] if not layers[metric] > 0]
        right = getattr(owner, attribute)
        setattr(owner, attribute, wrong(right))
        try:
            faulty = tiny_run(name, tracing.NoTrace())
        finally:
            setattr(owner, attribute, right)
        passed = (
            clean.failed == 0 and not clean.problems and traced.failed == 0 and not unmoved
            and faulty.failed > 0
        )
        ok &= passed
        print(
            f"{name}: {len(clean.latencies)} operations, {clean.failed} failed; traced "
            f"{len(traced.latencies)}, {traced.failed} failed, layer metrics at 0: {unmoved or 'none'}; "
            f"with {attribute} wrong: {faulty.failed} of {len(faulty.latencies)} failed "
            f"-> {'ok' if passed else 'FAIL'}"
        )
        for problem in clean.problems + traced.problems + faulty.problems[:2]:
            print(f"  {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
