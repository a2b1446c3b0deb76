"""Workload definitions and seeded operation streams.

Every workload draws its data and its operations from one seed.  The
dataset comes from ``repro.workloads.university``; the operation stream is
a sequence of plain tuples that the runner hands to the system under test,
so the program only ever sees generated operations.

Operations, by kind (the first tuple element):

* ``("get", k)`` — fetch student ``k`` (REST GET or ``ErbiumDB.get``);
* ``("point", k)`` — parameterized point query on student ``k``;
* ``("related", k)`` / ``("hop", k)`` — the sections student ``k`` takes,
  through the relationship endpoint or a one-hop join query;
* ``("insert", values)``, ``("update", k, changes)``,
  ``("link", k, course_id, sec_id, grade)``, ``("delete", k)``;
* ``("checkpoint",)`` — ``POST /admin/checkpoint``;
* ``("query", template, literals)`` — an ad-hoc analytics query.

Each block of 100 operations holds exactly the counts of the workload's
mix, shuffled by the seed, so a run's mix does not drift with its length.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.workloads.university import generate_university_data

CITIES = ("College Park", "Baltimore", "Arlington", "Rockville", "Bethesda")
GRADES = ("A", "A-", "B+", "B", "B-", "C+", "C", "D", "F")
YEARS = (2023, 2024, 2025)

#: First person id handed to students inserted by a run (far above loaded ids).
FRESH_KEY_BASE = 10_000_000
#: Students inserted before the timed phase, so deletes always have a target.
INSERT_BACKLOG = 30
#: Zipf exponent of the key popularity distribution.
ZIPF_S = 0.9
#: Share of analytics queries drawn from the small hot set of literals.
HOT_SHARE = 1 / 3
#: Hot literal choices kept per analytics template.
HOT_PER_TEMPLATE = 4

READ, TRAVERSE, WRITE, ADMIN = "read", "traverse", "write", "admin"

KIND_CLASS = {
    "get": READ,
    "point": READ,
    "related": TRAVERSE,
    "hop": TRAVERSE,
    "insert": WRITE,
    "update": WRITE,
    "link": WRITE,
    "delete": WRITE,
    "checkpoint": ADMIN,
}

#: Analytics templates: name -> (class, ERQL text with ``{}`` literal slots).
TEMPLATES: Dict[str, Tuple[str, str]] = {
    "credit_range": (
        READ,
        "select person_id, tot_credits from student "
        "where tot_credits >= {0} and tot_credits < {1}",
    ),
    "city_count": (
        READ,
        "select count(*) as n from student where city = '{0}' and tot_credits >= {1}",
    ),
    "city_group": (
        READ,
        "select city, count(*) as n, avg(tot_credits) as avg_credits from student "
        "where tot_credits > {0} and tot_credits <= {1} group by city",
    ),
    "top_credits": (
        READ,
        "select person_id, tot_credits from student "
        "where tot_credits >= {0} and tot_credits <= {1} "
        "order by tot_credits desc, person_id limit 20",
    ),
    "advisor_avg": (
        TRAVERSE,
        "select i.person_id, avg(s.tot_credits) as avg_credits "
        "from instructor i join student s on advisor "
        "where s.tot_credits >= {0} and s.tot_credits <= {1} group by i.person_id",
    ),
    "takes_by_course": (
        TRAVERSE,
        "select sec.course_id, count(*) as n from student s join section sec on takes "
        "where s.tot_credits >= {0} and s.tot_credits <= {1} group by sec.course_id",
    ),
    "grades_agg": (
        TRAVERSE,
        "select s.person_id, array_agg(takes.grade) as grades "
        "from student s join section sec on takes "
        "where s.tot_credits = {0} and s.city = '{1}' group by s.person_id",
    ),
    "enrollment_by_year": (
        TRAVERSE,
        "select c.course_id, count(*) as n from student s join section sec on takes "
        "join course c on sec_course where sec.year = {0} "
        "and c.course_id >= {1} and c.course_id < {2} group by c.course_id",
    ),
}

#: The one-hop join behind the ``hop`` traversal, and the ``point`` read.
HOP_QUERY = (
    "select sec.course_id, sec.sec_id, takes.grade "
    "from student s join section sec on takes where s.person_id = $k"
)
POINT_QUERY = "select name.firstname, city, tot_credits from student where person_id = $k"


#: Seed used when the command line names none.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    students: int
    durable: bool  # ErbiumDB.open(dir, fsync="commit") rather than in memory
    mix: Dict[str, int]  # operation kind or analytics template -> count per 100
    checkpoint_every: int = 0  # requests between POST /admin/checkpoint (0 = never)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, WorkloadSpec] = {
    "rest-oltp": WorkloadSpec(
        name="rest-oltp",
        students=5_000,
        durable=True,
        mix={
            "get": 45, "point": 20,
            "traverse": 5,  # alternates related / hop
            "insert": 8, "update": 9, "link": 5, "delete": 8,
        },
        checkpoint_every=1000,
    ),
    "embedded-point": WorkloadSpec(
        name="embedded-point",
        students=10_000,
        durable=False,
        mix={"point": 55, "get": 15, "insert": 8, "update": 9, "link": 5, "delete": 8},
    ),
    # The weights put each percentile inside one template's cost cluster
    # rather than on the boundary between two (see README.md).
    "analytics": WorkloadSpec(
        name="analytics",
        students=10_000,
        durable=False,
        mix={
            "credit_range": 10, "top_credits": 45, "city_count": 8, "city_group": 7,
            "advisor_avg": 6, "takes_by_course": 6, "grades_agg": 8,
            "enrollment_by_year": 10,
        },
    ),
}


def op_class(op: Tuple) -> str:
    if op[0] == "query":
        return TEMPLATES[op[1]][0]
    return KIND_CLASS[op[0]]


def generate_dataset(students: int, seed: int):
    """The university dataset a workload loads (scaled with the student count)."""

    return generate_university_data(
        students=students,
        instructors=max(4, students // 50),
        courses=max(6, students // 50),
        sections_per_course=2,
        takes_per_student=4,
        seed=seed,
    )


class OpStream:
    """Deterministic, endless operation stream for one workload and seed.

    :meth:`warmup` returns the operations run during set-up (the insert
    backlog plus one operation of each kind in the mix); iteration yields
    the measured operations, block after block.  :meth:`rest_of_block` and
    :meth:`next_block` let a caller stop on a block boundary.  Keys follow a Zipf-like
    popularity over the loaded students in a seed-chosen order; inserts use
    fresh keys; deletes remove the oldest student the run inserted; links
    attach the newest such student to a section it does not take yet.
    """

    def __init__(self, spec: WorkloadSpec, dataset, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(f"{spec.name}:{seed}")
        keys = list(dataset.student_ids)
        self.rng.shuffle(keys)
        self._keys = keys
        self._cum_weights = list(
            itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys)))
        )
        self._sections = list(dataset.sections)
        self._course_count = len(dataset.course_ids)
        self._next_key = FRESH_KEY_BASE
        self._inserted: List[int] = []  # FIFO of run-inserted, not yet deleted
        self._linked: Dict[int, set] = {}
        self._traversals = 0
        self._requests = 0
        self._pending: deque = deque()  # rest of the block being iterated
        self._hot = {
            name: [self._literals(name) for _ in range(HOT_PER_TEMPLATE)]
            for name in TEMPLATES
        }

    # -- keys and values -----------------------------------------------------

    def _zipf_key(self) -> int:
        return self.rng.choices(self._keys, cum_weights=self._cum_weights)[0]

    def _new_student(self) -> Dict:
        key = self._next_key
        self._next_key += 1
        phones = [f"410-555-{key % 10000:04d}", f"443-555-{(key * 7) % 10000:04d}"]
        return {
            "person_id": key,
            "name": {"firstname": f"New{key}", "lastname": f"Run{key % 29}"},
            "street": f"{key % 1000} Bench Rd",
            "city": self.rng.choice(CITIES),
            "phone_numbers": phones[: self.rng.randint(1, 2)],
            "tot_credits": self.rng.randint(0, 120),
        }

    def _literals(self, template: str) -> Tuple:
        """Fresh literals for a template.

        Ranges have a near-constant width, so a query's cost depends on its
        template far more than on its literals; the literal space still
        holds thousands of distinct texts against the 128-entry plan cache.
        """

        r = self.rng
        if template == "credit_range":
            lo = r.randint(0, 110)
            return (lo, lo + r.randint(5, 9))
        if template == "city_count":
            return (r.choice(CITIES), r.randint(0, 120))
        if template in ("city_group", "top_credits", "advisor_avg", "takes_by_course"):
            lo = r.randint(0, 80)
            return (lo, lo + r.randint(30, 39))
        if template == "grades_agg":
            return (r.randint(0, 120), r.choice(CITIES))
        if template == "enrollment_by_year":
            lo = r.randrange(0, self._course_count)
            return (r.choice(YEARS), lo, lo + r.randint(20, 29))
        raise KeyError(template)

    # -- operations ------------------------------------------------------------

    def _make(self, kind: str) -> Tuple:
        if kind in TEMPLATES:
            hot = self.rng.random() < HOT_SHARE
            literals = self.rng.choice(self._hot[kind]) if hot else self._literals(kind)
            return ("query", kind, literals)
        if kind in ("get", "point"):
            return (kind, self._zipf_key())
        if kind == "traverse":
            self._traversals += 1
            return ("related" if self._traversals % 2 else "hop", self._zipf_key())
        if kind == "update":
            changes = {"city": self.rng.choice(CITIES), "tot_credits": self.rng.randint(0, 120)}
            return ("update", self._zipf_key(), changes)
        if kind == "insert":
            values = self._new_student()
            self._inserted.append(values["person_id"])
            return ("insert", values)
        if kind == "delete":
            if not self._inserted:
                raise RuntimeError("delete scheduled with no run-inserted student left")
            key = self._inserted.pop(0)
            self._linked.pop(key, None)
            return ("delete", key)
        if kind == "link":
            key = self._inserted[-1]
            taken = self._linked.setdefault(key, set())
            free = [s for s in self._sections if s not in taken]
            course_id, sec_id = self.rng.choice(free)
            taken.add((course_id, sec_id))
            return ("link", key, course_id, sec_id, self.rng.choice(GRADES))
        raise KeyError(kind)

    def _block(self) -> List[Tuple]:
        kinds = [kind for kind, count in self.spec.mix.items() for _ in range(count)]
        self.rng.shuffle(kinds)
        out = []
        for kind in kinds:
            out.append(self._make(kind))
            self._requests += 1
            every = self.spec.checkpoint_every
            if every and self._requests % every == 0:
                out.append(("checkpoint",))
        return out

    def warmup(self) -> List[Tuple]:
        ops: List[Tuple] = []
        if "insert" in self.spec.mix:
            ops.extend(self._make("insert") for _ in range(INSERT_BACKLOG))
        for kind in self.spec.mix:
            ops.append(self._make(kind))
            if kind == "traverse":
                ops.append(self._make(kind))  # both related and hop
        return ops

    def __iter__(self) -> Iterator[Tuple]:
        return self

    def __next__(self) -> Tuple:
        if not self._pending:
            self._pending.extend(self._block())
        return self._pending.popleft()

    def rest_of_block(self) -> List[Tuple]:
        """The operations left in the current block; iteration goes on after them."""

        rest = list(self._pending)
        self._pending.clear()
        return rest

    def next_block(self) -> List[Tuple]:
        """One whole block, exactly the mix; call after :meth:`rest_of_block`."""

        return self._block()
