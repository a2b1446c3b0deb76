"""The benchmark harness: clients, set-up, measured phases and reports.

Imported by ``run.py`` once the program's sources are on ``sys.path``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import ErbiumDB
from repro.api import ApiService
from repro.workloads.university import build_university_schema

from layers import SpanRecorder, metric_names
from oracle import AnalyticsOracle, Shadow, instance_bytes, same_rows, same_student
from workloads import (
    HOP_QUERY,
    POINT_QUERY,
    TEMPLATES,
    DEFAULT_SEED,
    WORKLOADS,
    WRITE,
    OpStream,
    generate_dataset,
    op_class,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: An untraced run's measured phase is cut into this many slices, each
#: followed by one timed recovery of a crash image, so the recovery samples
#: spread over the whole run rather than its last seconds.  With the final
#: crash's recovery, ``recovery_s`` is the fastest of ``SLICES + 1`` samples.
SLICES = 8

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("recovery_s", "s"),
    ("disk_bytes_per_user_byte", "ratio"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# clients: turn generated operations into calls and check their outcomes


class Client:
    """Executes operations against one system and checks each outcome."""

    def __init__(self, system, shadow, dataset) -> None:
        self.system = system
        self.shadow = shadow

    def close(self) -> None:
        pass

    def call(self, op: Tuple) -> Any:
        return getattr(self, "_" + op[0])(*op[1:])

    def check(self, op: Tuple, outcome: Any) -> bool:
        """True when ``outcome`` is right; acknowledged writes reach the shadow."""

        ok = getattr(self, "_check_" + op[0])(op, outcome)
        if ok:
            self.shadow.apply(op)
        return ok


class RestClient(Client):
    """The served path: every operation is one ``ApiService`` request."""

    def __init__(self, system, shadow, dataset) -> None:
        super().__init__(system, shadow, dataset)
        self.api = ApiService(system)

    def close(self) -> None:
        self.api.close()

    def _get(self, k):
        return self.api.get(f"/entities/student/{k}")

    def _point(self, k):
        return self.api.post("/query", {"query": POINT_QUERY, "params": {"k": k}})

    def _related(self, k):
        return self.api.get(f"/entities/student/{k}/related/takes")

    def _hop(self, k):
        return self.api.post("/query", {"query": HOP_QUERY, "params": {"k": k}})

    def _insert(self, values):
        return self.api.post("/entities/student", values)

    def _update(self, k, changes):
        return self.api.patch(f"/entities/student/{k}", changes)

    def _link(self, k, course_id, sec_id, grade):
        body = {"endpoints": {"student": k, "section": [course_id, sec_id]},
                "values": {"grade": grade}}
        return self.api.post("/relationships/takes", body)

    def _delete(self, k):
        return self.api.delete(f"/entities/student/{k}")

    def _checkpoint(self):
        return self.api.post("/admin/checkpoint", {})

    # checks ---------------------------------------------------------------------

    def _check_get(self, op, r):
        return r.status == 200 and same_student(r.body["values"], self.shadow.entity(op[1]))

    def _check_point(self, op, r):
        return r.status == 200 and r.body["rows"] == self.shadow.point_row(op[1])

    def _check_related(self, op, r):
        if r.status != 200:
            return False
        got = [tuple(key) for key in r.body["related"]]
        return len(got) == r.body["count"] and set(got) == self.shadow.sections(op[1])

    def _check_hop(self, op, r):
        if r.status != 200:
            return False
        got = [(row["course_id"], row["sec_id"], row["grade"]) for row in r.body["rows"]]
        return len(got) == len(set(got)) and set(got) == self.shadow.enrolments(op[1])

    def _check_insert(self, op, r):
        return r.status == 201

    def _check_link(self, op, r):
        return r.status == 201

    def _check_update(self, op, r):
        return r.status == 200

    def _check_delete(self, op, r):
        return r.status == 200 and r.body["rows_removed"] > 0

    def _check_checkpoint(self, op, r):
        return r.status == 200


class EmbeddedClient(Client):
    """The embedded facade: prepared statements and ``ErbiumDB`` CRUD calls."""

    def __init__(self, system, shadow, dataset) -> None:
        super().__init__(system, shadow, dataset)
        self.statement = system.prepare(POINT_QUERY)

    def _point(self, k):
        return self.statement.execute(k=k).fetchall()

    def _get(self, k):
        return self.system.get("student", k)

    def _insert(self, values):
        return self.system.insert("student", values)

    def _update(self, k, changes):
        return self.system.update("student", k, changes)

    def _link(self, k, course_id, sec_id, grade):
        return self.system.link("takes", {"student": k, "section": (course_id, sec_id)},
                                {"grade": grade})

    def _delete(self, k):
        return self.system.delete("student", k)

    def _check_point(self, op, rows):
        return [dict(row) for row in rows] == self.shadow.point_row(op[1])

    def _check_get(self, op, values):
        return same_student(values, self.shadow.entity(op[1]))

    def _check_insert(self, op, instance):
        return instance is not None

    def _check_update(self, op, result):
        return True  # raises on failure

    _check_link = _check_insert

    def _check_delete(self, op, removed):
        return removed > 0


class AnalyticsClient(Client):
    """Ad-hoc ERQL text with inlined literals through ``ErbiumDB.query``."""

    def __init__(self, system, shadow, dataset) -> None:
        super().__init__(system, shadow, dataset)
        self.oracle = AnalyticsOracle(dataset)

    def _query(self, template, literals):
        return self.system.query(TEMPLATES[template][1].format(*literals)).rows

    def _check_query(self, op, rows):
        _, template, literals = op
        expected = self.oracle.expected(template, literals)
        return same_rows(rows, expected, ordered=template == "top_credits")


CLIENTS = {
    "rest-oltp": RestClient,
    "embedded-point": EmbeddedClient,
    "analytics": AnalyticsClient,
}


# ---------------------------------------------------------------------------
# set-up, measured phases, crash recovery


@dataclass
class Bench:
    spec: Any
    system: Any
    client: Client
    shadow: Any
    stream: OpStream
    path: Optional[str]
    crashed: bool = False
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def run_op(self, op: Tuple) -> Tuple[int, bool]:
        """Execute, time and check one operation; returns (ns, ok)."""

        self.attempted += 1
        started = time.perf_counter_ns()
        try:
            outcome = self.client.call(op)
        except Exception as exc:  # a refused operation is a failed one
            elapsed = time.perf_counter_ns() - started
            self.fail(f"{str(op)[:160]} -> {type(exc).__name__}: {exc}")
            return elapsed, False
        elapsed = time.perf_counter_ns() - started
        if not self.client.check(op, outcome):
            self.fail(f"{str(op)[:160]} -> unexpected outcome {str(outcome)[:200]}")
            return elapsed, False
        return elapsed, True

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)

    def absorb(self, attempted: int, failed: int, failures: List[str]) -> None:
        """Count the operations of a discarded set-up as this run's own."""

        self.attempted += attempted
        self.failed += failed
        self.failures = (failures + self.failures)[:5]

    def close(self) -> None:
        self.client.close()
        if not self.crashed:
            self.system.close(checkpoint=False)


def set_up(spec, seed: int, students: int, workdir: Path, index: int) -> Bench:
    """Generate, load, checkpoint and warm one fresh system."""

    dataset = generate_dataset(students, seed)
    shadow = Shadow(dataset)
    path = None
    if spec.durable:
        path = str(workdir / f"db-{index}")
        system = ErbiumDB.open(path, schema=build_university_schema(), fsync="commit")
    else:
        system = ErbiumDB(spec.name, build_university_schema())
    system.set_mapping()
    system.load(dataset.entities, dataset.relationships)
    if spec.durable:
        system.checkpoint()
    client = CLIENTS[spec.name](system, shadow, dataset)
    stream = OpStream(spec, dataset, seed)
    bench = Bench(spec, system, client, shadow, stream, path)
    for op in stream.warmup():
        bench.run_op(op)
    return bench


def freeze_heap() -> None:
    """Exempt every live object from later garbage-collection passes.

    Called after set-up.  Without it, full collections traverse the loaded
    dataset and land at random inside measured operations and recoveries.
    Objects allocated afterwards are still collected, and that time still
    counts.
    """

    gc.collect()
    gc.freeze()


@dataclass
class Phase:
    """Latencies of one measured phase, by operation class and kind."""

    by_class: Dict[str, List[int]] = field(default_factory=lambda: defaultdict(list))
    by_kind: Dict[str, List[int]] = field(default_factory=lambda: defaultdict(list))
    all_ns: List[int] = field(default_factory=list)
    user_bytes_written: int = 0

    @property
    def ops(self) -> int:
        return len(self.all_ns)


def op_kind(op: Tuple) -> str:
    return op[1] if op[0] == "query" else op[0]


def run_phase(
    bench: Bench,
    seconds: float,
    before_op: Optional[Callable[[int], None]] = None,
    phase: Optional[Phase] = None,
) -> Phase:
    """Closed loop, one client: the next operation starts when one returns.

    Passing ``phase`` continues it: its samples grow by this stretch.
    """

    phase = Phase() if phase is None else phase
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(bench.stream)
        if before_op is not None:
            before_op(phase.ops)
        elapsed, ok = bench.run_op(op)
        cls = op_class(op)
        phase.all_ns.append(elapsed)
        phase.by_class[cls].append(elapsed)
        phase.by_kind[op_kind(op)].append(elapsed)
        if ok and cls == WRITE:
            phase.user_bytes_written += instance_bytes({"op": list(op)})
    return phase


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _dirs, files in os.walk(path)
        for name in files
    )


def check_state(system, shadow) -> List[str]:
    """Compare a whole (recovered) system against the shadow; returns problems."""

    problems = []
    rows = system.query(
        "select person_id, name.firstname, name.lastname, street, city, tot_credits "
        "from student"
    ).rows
    phones = defaultdict(list)
    for row in system.query("select person_id, unnest(phone_numbers) as phone from student").rows:
        phones[row["person_id"]].append(row["phone"])
    got = {}
    for row in rows:
        got[row["person_id"]] = {
            "person_id": row["person_id"],
            "name": {"firstname": row["firstname"], "lastname": row["lastname"]},
            "street": row["street"],
            "city": row["city"],
            "phone_numbers": phones.get(row["person_id"], []),
            "tot_credits": row["tot_credits"],
        }
    if set(got) != set(shadow.students):
        missing = set(shadow.students) - set(got)
        extra = set(got) - set(shadow.students)
        problems.append(f"students: {len(missing)} missing, {len(extra)} unexpected")
    for key, expected in shadow.students.items():
        if key in got and not same_student(got[key], expected):
            problems.append(f"student {key}: {got[key]} != {expected}")
            break
    takes = {
        (row["person_id"], row["course_id"], row["sec_id"], row["grade"])
        for row in system.query(
            "select s.person_id, sec.course_id, sec.sec_id, takes.grade "
            "from student s join section sec on takes"
        ).rows
    }
    expected_takes = {
        (student, c, s, g)
        for student, links in shadow.takes.items()
        for (c, s), g in links.items()
    }
    if takes != expected_takes:
        problems.append(
            f"takes: {len(expected_takes - takes)} missing, {len(takes - expected_takes)} unexpected"
        )
    return problems


def crash(bench: Bench, workdir: Path, name: str) -> float:
    """Simulate a crash of ``bench``'s system; returns disk bytes per user byte.

    The durable workload finishes its current block of operations, writes
    a checkpoint, runs one whole block and crashes.  So every crash image
    replays the same write-ahead log: one block holds exactly the mix, and
    its scheduled checkpoint, if any, is skipped.  The in-memory workloads
    first persist their state with one checkpoint into ``workdir/name``.
    ``bench.path`` is the crash image afterwards.
    """

    system = bench.system
    if bench.path is None:
        bench.path = str(workdir / name)
        system.enable_durability(bench.path, fsync="commit", probe_interval=None)
    else:
        for op in bench.stream.rest_of_block():
            bench.run_op(op)
        bench.run_op(("checkpoint",))
        for op in bench.stream.next_block():
            if op[0] != "checkpoint":
                bench.run_op(op)
    system.durability.abandon()
    bench.crashed = True
    return dir_bytes(bench.path) / bench.shadow.live_bytes()


def recover(
    bench: Bench,
    image: str,
    attempt: str,
    shadow: Optional[Shadow] = None,
    recorder: Optional[SpanRecorder] = None,
) -> float:
    """Reopen a copy of the crash image ``image``; returns the seconds it took.

    With a ``shadow``, the recovered system must hold exactly its
    acknowledged writes; a mismatch is a failed operation of ``bench``.  A
    ``recorder`` traces the reopening call only.
    """

    copy = f"{image}-recover-{attempt}"
    shutil.copytree(image, copy)
    with recorder if recorder is not None else nullcontext():
        started = time.perf_counter()
        recovered = ErbiumDB.open(copy, probe_interval=None)
        elapsed = time.perf_counter() - started
    if shadow is not None:
        bench.attempted += 1
        problems = check_state(recovered, shadow)
        if problems:
            bench.fail("recovery: " + "; ".join(problems)[:300])
    recovered.close(checkpoint=False)
    del recovered
    gc.collect()  # young objects only: a frozen heap stays out
    shutil.rmtree(copy)
    return elapsed


def crash_and_recover(
    bench: Bench, workdir: Path, recorder: Optional[SpanRecorder] = None
) -> Tuple[float, float]:
    """Crash ``bench``'s system and recover it once, checked against its shadow.

    Returns (recovery seconds, disk bytes per user byte at the crash).
    """

    disk_ratio = crash(bench, workdir, "persisted")
    seconds = recover(bench, bench.path, "final", bench.shadow, recorder)
    return seconds, disk_ratio


# ---------------------------------------------------------------------------
# reporting


def percentile(values: List[int], q: int) -> float:
    """The q-th percentile (inclusive method) of nanosecond samples, in ms."""

    if len(values) == 1:
        return values[0] / 1e6
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] / 1e6


def latency_lines(phase: Phase) -> List[str]:
    lines = []
    groups = [("all", phase.all_ns)] + sorted(phase.by_class.items()) + sorted(
        (f"kind {k}", v) for k, v in phase.by_kind.items()
    )
    for label, values in groups:
        if values:
            lines.append(
                f"  {label:<28} p50 {percentile(values, 50):10.3f} ms  "
                f"p95 {percentile(values, 95):10.3f} ms  n={len(values)}"
            )
    return lines


def untraced_run(spec, seed: int, seconds: float, students: int, workdir: Path):
    """Set up several times, measure in slices with recoveries between them.

    The first set-up is crashed to make the crash image that the sliced
    recoveries reopen; the last one is measured and crashed at the end.
    """

    setups = []
    discarded = []
    bench = image = None
    for index in range(SETUP_REPEATS):
        if bench is not None:
            if image is None:
                crash(bench, workdir, f"image-{index}")
                image, image_shadow = bench.path, bench.shadow
            bench.close()
            discarded.append((bench.attempted, bench.failed, bench.failures))
            bench = None
        gc.collect()  # each set-up starts from a heap without earlier garbage
        started = time.perf_counter()
        bench = set_up(spec, seed, students, workdir, index)
        setups.append(time.perf_counter() - started)
    for earlier in discarded:
        bench.absorb(*earlier)
    rows = bench.system.total_rows()
    freeze_heap()
    try:
        phase = Phase()
        recoveries = []
        for index in range(SLICES):
            run_phase(bench, seconds / SLICES, phase=phase)
            shadow = image_shadow if index == 0 else None  # content is checked once
            recoveries.append(recover(bench, image, str(index), shadow))
        final, disk_ratio = crash_and_recover(bench, workdir)
        recoveries.append(final)
    finally:
        gc.unfreeze()
    busy = sum(phase.all_ns) / 1e9
    reads = phase.by_class["read"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": phase.ops / busy,
        "latency_p50_ms": percentile(phase.all_ns, 50),
        "read_p50_ms": percentile(reads, 50),
        # Every recovery does the same work: a crash image of the same size
        # and log tail.  Other tenants of the host can only slow one down,
        # so the fastest is the steadiest figure.
        "recovery_s": min(recoveries),
        "disk_bytes_per_user_byte": disk_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [f"physical rows after set-up: {rows}",
             f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}",
             f"recovery_s samples: {', '.join(f'{s:.3f}' for s in recoveries)}",
             f"measured operations: {phase.ops} in {busy:.3f} s busy",
             "latency by class and kind:"] + latency_lines(phase)
    lines.append(f"latency_p95_ms {percentile(phase.all_ns, 95):.4f} ms (n={phase.ops})")
    lines.append(f"read_p95_ms {percentile(reads, 95):.4f} ms (n={len(reads)})")
    for cls in ("write", "traverse"):
        values = phase.by_class.get(cls)
        if values:
            lines.append(f"{cls}_p50_ms {percentile(values, 50):.4f} ms (n={len(values)})")
            lines.append(f"{cls}_p95_ms {percentile(values, 95):.4f} ms (n={len(values)})")
    lines.append(f"error_rate {bench.failed / max(bench.attempted, 1):.6f} "
                 f"({bench.failed} of {bench.attempted})")
    return bench, metrics, dict(END_TO_END), lines


def traced_run(spec, seed: int, seconds: float, students: int, workdir: Path):
    """Half the time untraced, half traced, then one traced crash recovery."""

    bench = set_up(spec, seed, students, workdir, 0)
    freeze_heap()
    try:
        untraced = run_phase(bench, seconds / 2)
        recorder = SpanRecorder()
        before = bench.system.metrics.snapshot()

        def mark(index: int) -> None:
            recorder.op_index = index

        with recorder:
            traced = run_phase(bench, seconds / 2, before_op=mark)
        after = bench.system.metrics.snapshot()
        recorder.op_index = -1
        crash_and_recover(bench, workdir, recorder)
    finally:
        gc.unfreeze()

    ops = traced.ops
    metrics = recorder.layer_metrics(ops)
    counts = recorder.counts
    hits = after["cache_hits"] - before["cache_hits"]
    compiles = hits + after["plans"] - before["plans"]
    executions = counts["executor.batch"] + counts["executor.row"]
    calls = Counter(record[0] for record in recorder.spans)
    commits, fsyncs = calls["relational.commit"], calls["durability.fsync"]
    metrics.update({
        "erql.plan_cache_hit_ratio": hits / compiles if compiles else 0.0,
        "erql.plan_cache_evictions_per_op": (after["evictions"] - before["evictions"]) / ops,
        "relational.batch_share": counts["executor.batch"] / executions if executions else 0.0,
        "relational.lookup_index_share": (
            counts["lookup.indexed"] / counts["lookup.calls"] if counts["lookup.calls"] else 0.0
        ),
        "relational.rows_examined_per_lookup_result": (
            counts["lookup.examined"] / counts["lookup.results"] if counts["lookup.results"] else 0.0
        ),
        "relational.statistics_analyses_per_op":
            metrics["relational.statistics_analyze.calls_per_op"],
        "durability.wal_bytes_per_user_byte": (
            counts["wal.bytes"] / traced.user_bytes_written if traced.user_bytes_written else 0.0
        ),
        "durability.fsyncs_per_commit": fsyncs / commits if commits else 0.0,
        "trace_overhead": trace_overhead(untraced, traced),
    })
    spans_path = workdir.parent / f"spans-{spec.name}-seed{seed}.jsonl"
    recorder.write(str(spans_path))
    wall = sum(traced.all_ns)
    self_by_op = recorder.self_ns_by_op()
    self_total = sum(self_by_op.get(i, 0) for i in range(ops))
    lines = [f"traced operations: {ops} (untraced: {untraced.ops})",
             f"spans: {len(recorder.spans)} written to {spans_path}",
             f"span self time covers {self_total / wall:.3f} of traced wall time"]
    units = {name: unit for name, unit, _ in metric_names()}
    if set(units) != set(metrics):
        raise RuntimeError(f"per-layer metrics out of step: {set(units) ^ set(metrics)}")
    return bench, metrics, units, lines


def trace_overhead(untraced: Phase, traced: Phase) -> float:
    """Cost of the traced phase's mix traced, over the same mix untraced.

    Each operation kind is weighted by its traced count and priced at its
    median latency in each phase, so a slightly different mix in the two
    halves of the run does not read as overhead.
    """

    traced_ns = untraced_ns = 0.0
    for kind, values in traced.by_kind.items():
        base = untraced.by_kind.get(kind)
        if not base:
            continue
        traced_ns += len(values) * statistics.median(values)
        untraced_ns += len(values) * statistics.median(base)
    return traced_ns / untraced_ns if untraced_ns else 1.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one ErbiumDB benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--students", type=int, default=None,
                        help="override the workload's student count (smoke tests)")
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    students = args.students or spec.students
    out_dir = Path.cwd() / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = traced_run if args.trace else untraced_run
        bench, metrics, units, lines = runner(spec, seed, args.seconds, students, workdir)
        bench.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {spec.name}  seed {seed}  students {students}  trace {args.trace}")
    for line in lines:
        print(line)
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = bench.failed == 0
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1
