"""The three workloads: one round of operations, and its output checks.

Load is a closed loop on one thread: each operation starts when the one
before it has finished. A run repeats whole rounds of the same operations
until the requested seconds have passed. Every operation is timed on its
own and its output checked right after, outside the timed part; an
operation fails when it raises or when its output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from pathlib import Path
from time import perf_counter

import treemorse as tm
from treemorse import cli
from treemorse.oracle import LabelingSweep

import checks
import inputs

PROBLEMS_KEPT = 20
_END = object()


class Run:
    """Timings, units of work and failures of one measured pass.

    Recording an operation ends it: the tracer moves on to the next one, and
    `after_op`, if given, is called outside any timed part (run.py takes its
    set-up samples there).
    """

    def __init__(self, tracer, after_op=None) -> None:
        self.latencies: list[float] = []
        self.ended: list[float] = []  # clock reading when each was recorded
        self.done: list[int] = []  # units each operation finished; 0 if it failed
        self.traced: list[bool] = []
        self.failed = 0
        self.rounds = 0
        self.problems: list[str] = []
        self._tracer = tracer
        self._after_op = after_op

    def record(self, seconds: float, units: int, problem: str | None = None) -> None:
        self.latencies.append(seconds)
        self.ended.append(perf_counter())
        self.done.append(units if problem is None else 0)
        self.traced.append(self._tracer.enabled)
        if problem is not None:
            self.failed += 1
            self.note(problem)
        self._tracer.next_op()
        if self._after_op is not None:
            self._after_op()

    def note(self, problem: str) -> None:
        if len(self.problems) < PROBLEMS_KEPT:
            self.problems.append(problem)

    @property
    def units(self) -> int:
        return sum(self.done)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def seconds_per_unit(self, traced: bool, times: list[float]) -> float:
        """Seconds per unit of work over the traced or untraced operations,
        `times` holding one time per operation."""
        kept = [(t, d) for t, d, x in zip(times, self.done, self.traced) if x == traced]
        return sum(t for t, _ in kept) / max(sum(d for _, d in kept), 1)


def _split(values: dict, vertices: list[str], edges: list[tuple[str, str]]):
    """A program-style value dict as (vertex values, edge triples)."""
    return {v: values[v] for v in vertices}, [(u, v, values[(u, v)]) for u, v in edges]


def _first_problem(*checks_: tuple[bool, str]) -> str | None:
    for ok, what in checks_:
        if not ok:
            return what
    return None


# ------------------------------------------------------------------ census

class Census:
    """check_invariants and count_merge_classes on every tree given."""

    unit = "labelings"
    min_rounds = 1

    def __init__(self, data: dict) -> None:
        self.trees = {}
        for name, pairs in data["trees"].items():
            vertices = inputs.vertex_names(pairs)
            self.trees[name] = (vertices, [inputs.canonical(u, v) for u, v in pairs])

    def plan(self) -> None:
        """Build the trees and work out the expected answers."""
        self.built = {name: tm.build_tree(v, e) for name, (v, e) in self.trees.items()}
        self.expected = {}
        for name, (vertices, edges) in self.trees.items():
            center_degree = max(sum(w in e for e in edges) for w in vertices)
            is_star = center_degree == len(edges)
            classes = 2 ** (len(edges) - 1) if is_star else checks.CLASS_COUNTS[name]
            self.expected[name] = (
                checks.linear_extensions(vertices, edges), checks.matching_number(edges), classes,
            )

    def round(self, run: Run, tracer) -> None:
        for name, tree in self.built.items():
            labelings, matching, classes = self.expected[name]
            t0 = perf_counter()
            try:
                report = tracer.call("oracle.check_invariants", tm.check_invariants, tree)
            except Exception as exc:  # a failed operation, counted and reported
                elapsed = perf_counter() - t0
                problem = f"check_invariants {name}: {exc!r}"
            else:
                elapsed = perf_counter() - t0
                problem = _first_problem(
                    (report.function_count == labelings,
                     f"{name}: {report.function_count} labelings, expected {labelings}"),
                    (report.ok and all(c.failed == 0 and c.checked == labelings for c in report.checks),
                     f"{name}: invariant report not clean"),
                    (report.matching_number == matching,
                     f"{name}: matching number {report.matching_number}, expected {matching}"),
                    (1 <= report.min_impasse_count <= report.max_impasse_count <= matching,
                     f"{name}: impasse counts {report.min_impasse_count}..{report.max_impasse_count}"),
                )
            tracer.count("oracle.labelings", labelings)
            run.record(elapsed, labelings, problem)

            t0 = perf_counter()
            try:
                found = tracer.call("oracle.count_merge_classes", tm.count_merge_classes, tree)
            except Exception as exc:  # a failed operation, counted and reported
                elapsed = perf_counter() - t0
                problem = f"count_merge_classes {name}: {exc!r}"
            else:
                elapsed = perf_counter() - t0
                problem = None if found == classes else f"{name}: {found} merge classes, expected {classes}"
            tracer.count("oracle.labelings", labelings)
            if tracer.enabled:  # the bare sweep, replayed after a traced count
                tracer.count("oracle.sweep_labelings", tracer.call("oracle.sweep", _sweep, tree))
            run.record(elapsed, labelings, problem)


def _sweep(tree) -> int:
    return sum(1 for _ in LabelingSweep(tree))


# --------------------------------------------------------- large documents

# (command, the document compared with the original, if any). The compare
# commands for merge and persistence take about twice as long as the other
# five; being two of seven, they leave the median operation among the
# others' times rather than in the gap between the two kinds.
COMMANDS = [
    ("validate", None),
    ("merge-tree text", None),
    ("merge-tree shape", None),
    ("merge-tree dot", None),
    ("compare merge", "both"),
    ("compare forman", "rescaled"),
    ("compare persistence", "rescaled"),
]


class LargeDocuments:
    """In-process CLI commands on large seeded documents."""

    unit = "document simplices"
    # a round takes about 2 s; its commands move with the machine more than
    # the reference does (see README.md), so a run spans a longer stretch
    min_rounds = 12

    def __init__(self, data: dict, workdir: Path) -> None:
        self.documents = data["documents"]
        self.workdir = workdir

    def plan(self) -> None:
        """Write the documents and work out every command's expected output."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for doc in self.documents:
            variants = {}
            for role in ("original", "rescaled", "both"):
                text = json.dumps(doc[role])
                path = self.workdir / f"{doc['name']}-{role}.json"
                path.write_text(text, encoding="utf-8")
                variants[role] = _Document(doc[role], text, str(path))
            a = variants["original"]
            for command, partner in COMMANDS:
                verb, detail = (command.split() + [""])[:2]
                if verb == "validate":
                    argv, expect = ["validate", a.path], ("valid", 0)
                elif verb == "merge-tree":
                    argv = ["merge-tree", a.path, "--format", detail]
                    expect = ({
                        "text": checks.text_rendering(a.analysis.root),
                        "shape": checks.shape_code(a.analysis.root),
                        "dot": None,  # checked structurally
                    }[detail], 0)
                else:
                    b = variants[partner]
                    same = {
                        "merge": checks.shape_code(a.analysis.root) == checks.shape_code(b.analysis.root),
                        "forman": a.analysis.gradient == b.analysis.gradient,
                        "persistence": a.analysis.diagram == b.analysis.diagram,
                    }[detail]
                    argv = ["compare", a.path, b.path, "--relation", detail]
                    expect = ("equivalent", 0) if same else ("not-equivalent", 1)
                read = [a] if verb != "compare" else [a, variants[partner]]
                what = f"{doc['name']}: {command}" + (f" against {partner}" if partner else "")
                self.ops.append((argv, read, expect, what))

    def round(self, run: Run, tracer) -> None:
        for argv, read, (expected, expected_code), what in self.ops:
            out, err = io.StringIO(), io.StringIO()
            units = sum(d.simplices for d in read)
            op = tracer.begin("cli.main")
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = perf_counter()
                    code = cli.main(argv)
                    elapsed = perf_counter() - t0
            except Exception as exc:  # RecursionError and the like: a failed operation
                tracer.end(op)
                run.record(perf_counter() - t0, units, f"{what}: {exc!r}")
                continue
            tracer.end(op)
            text = out.getvalue().rstrip("\n")
            if expected is None:
                ok = checks.dot_matches(text, read[0].analysis.root)
            else:
                ok = text == expected
            if tracer.enabled:
                with tracer.within(op):
                    _replay(tracer, argv, read)
            run.record(elapsed, units, _first_problem(
                (code == expected_code, f"{what}: exit code {code}, expected {expected_code}"),
                (ok, f"{what}: wrong output {text[:80]!r}"),
            ))


class _Document:
    def __init__(self, doc: dict, text: str, path: str) -> None:
        self.text = text
        self.path = path
        self.simplices = inputs.simplex_count(doc)
        self.analysis = checks.analyse(doc["vertices"], doc["edges"])
        self.nodes = 2 * self.analysis.critical_vertices - 1
        # build_tree and validate arguments, as parse_morse_document makes them
        self.names = list(doc["vertices"])
        self.pairs = [(u, v) for u, v, _ in doc["edges"]]
        self.values = dict(doc["vertices"])
        self.values.update((inputs.canonical(u, v), x) for u, v, x in doc["edges"])


def _replay(tracer, argv: list[str], read: list[_Document]) -> None:
    """The stages of one command, called directly, for the per-layer times."""
    functions = []
    for doc in read:
        parse = tracer.begin("documents.parse")
        functions.append(tm.parse_morse_document(doc.text))
        tracer.end(parse)
        with tracer.within(parse):
            tree = tracer.call("complexes.build_tree", tm.build_tree, doc.names, doc.pairs)
            tracer.call("morse.validate", tm.validate, tree, doc.values)
        tracer.count("documents.simplices", doc.simplices)
    verb = argv[0]
    if verb == "merge-tree" or argv[-1] == "merge":
        trees = []
        for f, doc in zip(functions, read):
            trees.append(tracer.call("merge_tree.induce", tm.induce_merge_tree, f))
            tracer.count("merge_tree.nodes", doc.nodes)
        if verb == "merge-tree":
            render = {"shape": trees[0].shape_code, "dot": trees[0].to_dot}.get(argv[-1])
            if render is not None:  # text is rendered by the CLI itself
                tracer.call("merge_tree.render", render)
        else:
            tracer.call("equivalence.compare", tm.merge_equivalent, *trees)
    elif argv[-1] == "forman":
        tracer.call("equivalence.compare", tm.forman_equivalent, *functions)
    elif argv[-1] == "persistence":
        compare = tracer.begin("equivalence.compare")
        tm.persistence_equivalent(*functions)
        tracer.end(compare)
        with tracer.within(compare):
            for f in functions:
                tracer.call("equivalence.persistence", tm.persistence_diagram, f)


# --------------------------------------------------------- small functions

class SmallFunctions:
    """A library loop over every labeling of the small trees, with star round trips."""

    unit = "analysed functions"
    min_rounds = 1
    INVARIANCE_EVERY = 8  # functions between two rename-and-rescale checks

    def __init__(self, data: dict) -> None:
        self.seed = data["seed"]
        self.trees = {}
        for name, pairs in data["trees"].items():
            vertices = inputs.vertex_names(pairs)
            edges = [inputs.canonical(u, v) for u, v in pairs]
            incident = {v: [e for e in edges if v in e] for v in vertices}
            self.trees[name] = (vertices, edges, incident)
        self.itineraries = [
            "".join(steps)
            for k in range(1, data["max_star_edges"] + 1)
            for steps in itertools.product("LR", repeat=k - 1)
        ]

    def plan(self) -> None:
        """Build the trees and work out the expected answers."""
        self.built = {name: tm.build_tree(v, e) for name, (v, e, _) in self.trees.items()}
        self.expected = {}
        self.renamed = {}
        for name, (vertices, edges, _) in self.trees.items():
            self.expected[name] = (checks.linear_extensions(vertices, edges), checks.matching_number(edges))
            new = {v: f"u{len(vertices) - i}" for i, v in enumerate(vertices)}
            self.renamed[name] = (new, tm.build_tree(new.values(), [(new[u], new[v]) for u, v in edges]))

    def round(self, run: Run, tracer) -> None:
        """The trees' functions and the star round trips, interleaved.

        Each step goes to the walk that is least far along, so every kind of
        operation is spread evenly over the round, and the machine's slower
        and faster stretches fall alike on all of them.
        """
        rng = random.Random(self.seed)  # every round makes the same functions
        walks = [
            (self._tree_walk(name, tree, rng, run, tracer), self.expected[name][0])
            for name, tree in self.built.items()
        ]
        walks.append(((self._star_round_trip(seq, run, tracer) for seq in self.itineraries),
                      len(self.itineraries)))
        done = [0] * len(walks)
        active = list(range(len(walks)))
        while active:
            i = min(active, key=lambda i: done[i] / walks[i][1])
            if next(walks[i][0], _END) is _END:
                active.remove(i)
            else:
                done[i] += 1

    def _tree_walk(self, name: str, tree, rng: random.Random, run: Run, tracer):
        """One operation per labeling of the tree; yields after each."""
        vertices, edges, incident = self.trees[name]
        labelings, matching = self.expected[name]
        generator = tm.enumerate_critical_dmfs(tree)
        seen = set()
        previous = None
        for index in itertools.count():
            op = tracer.begin("op")
            t0 = perf_counter()
            try:
                f0 = tracer.call("oracle.enumerate_dmfs", next, generator, None)
            except Exception as exc:  # a failed operation, counted and reported
                tracer.end(op)
                run.record(perf_counter() - t0, 1, f"{name} #{index}: enumeration: {exc!r}")
                break
            generated = perf_counter() - t0
            if f0 is None:
                tracer.end(op)
                break
            values = dict(f0.values)
            seen.add(tuple(values[s] for s in (*vertices, *edges)))
            if rng.random() < inputs.FUNCTION_PAIR_SHARE:
                offered = [v for v in vertices if rng.random() < inputs.FUNCTION_VERTEX_SHARE]
                rng.shuffle(offered)
                inputs.add_gradient_pairs(values, incident, offered)
            t1 = perf_counter()
            try:
                out = self._analyse(tree, values, previous, tracer)
            except Exception as exc:  # a failed operation, counted and reported
                tracer.end(op)
                run.record(generated + perf_counter() - t1, 1, f"{name} #{index}: {exc!r}")
                previous = None
                yield
                continue
            elapsed = generated + perf_counter() - t1
            tracer.end(op)
            expected = checks.analyse(*_split(values, vertices, edges))
            problem = _labeling_problem(f0.values, vertices, edges) or self._problem(
                out, expected, previous, matching
            )
            if problem is None and index % self.INVARIANCE_EVERY == 0:
                problem = self._invariance_problem(name, values, out["shape"])
            run.record(elapsed, 1, problem and f"{name} #{index}: {problem}")
            previous = (out["f"], out["tree"], expected)
            yield
        if len(seen) != labelings:
            run.note(f"{name}: {len(seen)} distinct labelings enumerated, expected {labelings}")

    @staticmethod
    def _analyse(tree, values: dict, previous, tracer) -> dict:
        call = tracer.call
        f = call("morse.validate", tm.validate, tree, values)
        merge = call("merge_tree.induce", tm.induce_merge_tree, f)
        shape = call("merge_tree.render", merge.shape_code)
        impasses = call("merge_tree.impasse_count", merge.impasse_count)
        lr = call("stars.lr_sequence", tm.lr_sequence, merge) if impasses == 1 else None
        out = {
            "f": f,
            "tree": merge,
            "shape": shape,
            "impasses": impasses,
            "lr": lr,
            "matching": call("complexes.matching_number", tree.matching_number),
            "diagram": call("equivalence.persistence", tm.persistence_diagram, f).pairs,
            "b0": call("equivalence.homological", tm.homological_sequence, f).b0_values,
        }
        if previous is not None:
            f_prev, merge_prev, _ = previous
            out["verdicts"] = (
                call("equivalence.compare", tm.merge_equivalent, merge_prev, merge),
                call("equivalence.compare", tm.forman_equivalent, f_prev, f),
                call("equivalence.compare", tm.homologically_equivalent, f_prev, f),
                call("equivalence.compare", tm.persistence_equivalent, f_prev, f),
            )
        tracer.count("merge_tree.nodes", shape.count(checks.LEAF) + shape.count("("))
        return out

    @staticmethod
    def _problem(out: dict, expected: checks.Analysis, previous, matching: int) -> str | None:
        shape = out["shape"]
        deaths = sorted(d for _, d in out["diagram"] if not math.isinf(d))
        infinite = [b for b, d in out["diagram"] if math.isinf(d)]
        checks_ = [
            (shape == checks.shape_code(expected.root), f"shape {shape}"),
            (shape.count(checks.LEAF) == expected.critical_vertices, "leaves != critical vertices"),
            (shape.count("(") == len(expected.critical_edge_values), "joins != critical edges"),
            (out["impasses"] == shape.count(f"({checks.LEAF}{checks.LEAF})"), "impasse count"),
            (out["impasses"] <= matching, "impasses exceed the matching number"),
            (out["matching"] == matching, f"matching number {out['matching']}"),
            (out["lr"] == checks.lr_string(expected.root), f"lr {out['lr']}"),
            (deaths == sorted(expected.critical_edge_values), "finite deaths != critical edges"),
            (infinite == [expected.global_min], "infinite pair not at the global minimum"),
            (out["diagram"] == expected.diagram, "persistence diagram"),
            (out["b0"] == expected.b0, f"b0 sequence {out['b0']}"),
        ]
        if previous is not None:
            before = previous[2]
            same = (
                checks.shape_code(before.root) == checks.shape_code(expected.root),
                before.gradient == expected.gradient,
                before.b0 == expected.b0,
                before.diagram == expected.diagram,
            )
            checks_.append((out["verdicts"] == same, f"verdicts {out['verdicts']}, expected {same}"))
        return _first_problem(*checks_)

    def _invariance_problem(self, name: str, values: dict, shape: str) -> str | None:
        """The merge tree survives renaming the vertices and rescaling the values."""
        new, tree = self.renamed[name]
        moved = {}
        for s, x in values.items():
            key = new[s] if type(s) is str else inputs.canonical(new[s[0]], new[s[1]])
            moved[key] = 5 * x + 2
        other = tm.induce_merge_tree(tm.validate(tree, moved)).shape_code()
        return None if other == shape else f"renamed and rescaled shape {other} != {shape}"

    @staticmethod
    def _star_round_trip(seq: str, run: Run, tracer) -> None:
        call = tracer.call
        op = tracer.begin("op")
        t0 = perf_counter()
        try:
            thin = call("stars.thin_from_lr", tm.thin_from_lr, seq)
            star, g = call("stars.realize_on_star", tm.realize_on_star, thin)
            merge = call("merge_tree.induce", tm.induce_merge_tree, g)
            back = call("stars.lr_sequence", tm.lr_sequence, merge)
        except Exception as exc:  # a failed operation, counted and reported
            tracer.end(op)
            run.record(perf_counter() - t0, 1, f"star {seq!r}: {exc!r}")
            return
        elapsed = perf_counter() - t0
        tracer.end(op)
        k = len(seq) + 1
        tracer.count("merge_tree.nodes", 2 * k + 1)
        edges = sorted(star.tree.edges)
        expected = checks.analyse(*_split(g.values, sorted(star.tree.vertices), edges))
        run.record(elapsed, 1, _first_problem(
            (back == seq, f"star {seq!r}: round trip gave {back!r}"),
            (thin.shape_code() == checks.thin_shape(seq), f"star {seq!r}: thin tree shape"),
            (len(edges) == k and all(star.center in e for e in edges), f"star {seq!r}: not a {k}-edge star"),
            (checks.shape_code(expected.root) == checks.thin_shape(seq), f"star {seq!r}: realized shape"),
        ))


def _labeling_problem(values: dict, vertices: list[str], edges: list) -> str | None:
    """An enumerated labeling is a bijection onto 0..N-1 above every face."""
    if sorted(values.values()) != list(range(len(vertices) + len(edges))):
        return "labeling is not a bijection onto 0..N-1"
    if any(values[e] < values[e[0]] or values[e] < values[e[1]] for e in edges):
        return "an edge is labeled below one of its vertices"
    return None


def make(workload: str, data: dict, workdir: Path):
    """The workload's operations on its inputs; call plan() before measuring."""
    if workload == "census":
        return Census(data)
    if workload == "large_documents":
        return LargeDocuments(data, workdir)
    return SmallFunctions(data)


def measure(workload, seconds: float, tracer, after_op=None) -> Run:
    """Whole rounds, back to back, until `seconds` have passed and the
    workload's `min_rounds` are done.

    A traced pass runs an even number of rounds, so that every operation is
    traced in one round and untraced in another.
    """
    run = Run(tracer, after_op)
    start = perf_counter()
    while True:
        tracer.start_round(run.rounds)
        workload.round(run, tracer)
        run.rounds += 1
        if (perf_counter() - start >= seconds and run.rounds >= workload.min_rounds
                and run.rounds % tracer.rounds_multiple == 0):
            return run
