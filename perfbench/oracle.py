"""Expected results, computed without any ErbiumDB code.

:class:`Shadow` mirrors the acknowledged writes of the OLTP workloads over
plain dicts built from the generated instances; :class:`AnalyticsOracle`
answers the analytics templates with plain Python loops over the same
instances.  Neither imports the engine, the planner or the mapping layer.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple


def instance_bytes(values: Dict[str, Any]) -> int:
    """Bytes of one instance's user data (its compact JSON encoding)."""

    return len(json.dumps(values, separators=(",", ":"), sort_keys=True))


def _relationship_values(instance) -> Dict[str, Any]:
    return {"endpoints": {role: list(key) for role, key in instance.endpoints.items()},
            "values": dict(instance.values)}


class Shadow:
    """Students and their ``takes`` links as the acknowledged writes left them."""

    def __init__(self, dataset) -> None:
        self.students: Dict[int, Dict[str, Any]] = {}
        self.takes: Dict[int, Dict[Tuple[int, int], str]] = defaultdict(dict)
        self.static_bytes = 0  # every instance the workloads never change
        for entity in dataset.entities:
            if entity.entity_set == "student":
                self.students[entity.values["person_id"]] = _copy_student(entity.values)
            else:
                self.static_bytes += instance_bytes(entity.values)
        for rel in dataset.relationships:
            if rel.relationship_set == "takes":
                (student,) = rel.endpoints["student"]
                self.takes[student][tuple(rel.endpoints["section"])] = rel.values.get("grade")
            else:
                self.static_bytes += instance_bytes(_relationship_values(rel))

    # -- expectations ----------------------------------------------------------

    def entity(self, key: int) -> Optional[Dict[str, Any]]:
        return self.students.get(key)

    def point_row(self, key: int) -> List[Dict[str, Any]]:
        values = self.students.get(key)
        if values is None:
            return []
        return [{"firstname": values["name"]["firstname"], "city": values["city"],
                 "tot_credits": values["tot_credits"]}]

    def sections(self, key: int) -> Set[Tuple[int, int]]:
        return set(self.takes.get(key, {}))

    def enrolments(self, key: int) -> Set[Tuple[int, int, str]]:
        return {(c, s, g) for (c, s), g in self.takes.get(key, {}).items()}

    def live_bytes(self) -> int:
        """Bytes of live user data: every instance, as JSON."""

        total = self.static_bytes + sum(instance_bytes(v) for v in self.students.values())
        for student, links in self.takes.items():
            for (course_id, sec_id), grade in links.items():
                total += instance_bytes({
                    "endpoints": {"student": [student], "section": [course_id, sec_id]},
                    "values": {"grade": grade},
                })
        return total

    # -- acknowledged writes ----------------------------------------------------

    def apply(self, op: Tuple) -> None:
        kind = op[0]
        if kind == "insert":
            self.students[op[1]["person_id"]] = _copy_student(op[1])
        elif kind == "update":
            self.students[op[1]].update(op[2])
        elif kind == "link":
            _, key, course_id, sec_id, grade = op
            self.takes[key][(course_id, sec_id)] = grade
        elif kind == "delete":
            self.students.pop(op[1], None)
            self.takes.pop(op[1], None)


def _copy_student(values: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(values)
    out["name"] = dict(values["name"])
    out["phone_numbers"] = list(values["phone_numbers"])
    return out


def same_student(actual: Optional[Dict[str, Any]], expected: Optional[Dict[str, Any]]) -> bool:
    """Entity equality; a multi-valued attribute is a set, so its order is free."""

    if actual is None or expected is None:
        return actual is expected
    if sorted(actual.get("phone_numbers") or []) != sorted(expected["phone_numbers"]):
        return False
    return all(actual.get(k) == v for k, v in expected.items() if k != "phone_numbers")


class AnalyticsOracle:
    """Answers each analytics template from the generated instances."""

    def __init__(self, dataset) -> None:
        self.students: List[Tuple[int, str, int]] = []  # (id, city, credits)
        self.advisor: Dict[int, int] = {}
        self.takes: List[Tuple[int, int, int, str]] = []  # (student, course, sec, grade)
        self.year: Dict[Tuple[int, int], int] = {}
        for entity in dataset.entities:
            v = entity.values
            if entity.entity_set == "student":
                self.students.append((v["person_id"], v["city"], v["tot_credits"]))
            elif entity.entity_set == "section":
                self.year[(v["course_id"], v["sec_id"])] = v["year"]
        for rel in dataset.relationships:
            if rel.relationship_set == "advisor":
                self.advisor[rel.endpoints["student"][0]] = rel.endpoints["instructor"][0]
            elif rel.relationship_set == "takes":
                course_id, sec_id = rel.endpoints["section"]
                self.takes.append(
                    (rel.endpoints["student"][0], course_id, sec_id, rel.values.get("grade"))
                )
        self.credits = {sid: credits for sid, _city, credits in self.students}
        self.city = {sid: city for sid, city, _credits in self.students}

    def expected(self, template: str, literals: Sequence[Any]) -> List[Dict[str, Any]]:
        return getattr(self, "_" + template)(*literals)

    def _credit_range(self, lo, hi):
        return [{"person_id": s, "tot_credits": c} for s, _, c in self.students if lo <= c < hi]

    def _city_count(self, city, lo):
        return [{"n": sum(1 for _, ct, c in self.students if ct == city and c >= lo)}]

    def _city_group(self, lo, hi):
        groups: Dict[str, List[int]] = defaultdict(list)
        for _, city, c in self.students:
            if lo < c <= hi:
                groups[city].append(c)
        return [{"city": city, "n": len(cs), "avg_credits": sum(cs) / len(cs)}
                for city, cs in groups.items()]

    def _top_credits(self, lo, hi):
        rows = sorted(((-c, s) for s, _, c in self.students if lo <= c <= hi))[:20]
        return [{"person_id": s, "tot_credits": -neg} for neg, s in rows]

    def _advisor_avg(self, lo, hi):
        groups: Dict[int, List[int]] = defaultdict(list)
        for student, instructor in self.advisor.items():
            c = self.credits[student]
            if lo <= c <= hi:
                groups[instructor].append(c)
        return [{"person_id": i, "avg_credits": sum(cs) / len(cs)} for i, cs in groups.items()]

    def _takes_by_course(self, lo, hi):
        counts: Dict[int, int] = defaultdict(int)
        for student, course_id, _sec, _grade in self.takes:
            if lo <= self.credits[student] <= hi:
                counts[course_id] += 1
        return [{"course_id": c, "n": n} for c, n in counts.items()]

    def _grades_agg(self, credits, city):
        groups: Dict[int, List[str]] = defaultdict(list)
        for student, _course, _sec, grade in self.takes:
            if self.credits[student] == credits and self.city[student] == city:
                groups[student].append(grade)
        return [{"person_id": s, "grades": gs} for s, gs in groups.items()]

    def _enrollment_by_year(self, year, lo, hi):
        counts: Dict[int, int] = defaultdict(int)
        for _student, course_id, sec_id, _grade in self.takes:
            if self.year[(course_id, sec_id)] == year and lo <= course_id < hi:
                counts[course_id] += 1
        return [{"course_id": c, "n": n} for c, n in counts.items()]


def _normalized(row: Dict[str, Any]) -> Tuple:
    """A row as a sortable tuple: floats kept apart, arrays as sorted tuples."""

    key, floats = [], []
    for name in sorted(row):
        value = row[name]
        if isinstance(value, float):
            floats.append(value)
        elif isinstance(value, list):
            key.append((name, tuple(sorted(value))))
        else:
            key.append((name, value))
    return tuple(key), tuple(floats)


def same_rows(actual: Iterable[Dict[str, Any]], expected: Iterable[Dict[str, Any]],
              ordered: bool = False) -> bool:
    """Multiset (or, with ``ordered``, sequence) equality of result rows.

    Floats compare with a relative tolerance of 1e-9: the engine and the
    oracle may sum in different orders.
    """

    a = [_normalized(r) for r in actual]
    e = [_normalized(r) for r in expected]
    if not ordered:
        a.sort()
        e.sort()
    if len(a) != len(e):
        return False
    for (a_key, a_floats), (e_key, e_floats) in zip(a, e):
        if a_key != e_key or len(a_floats) != len(e_floats):
            return False
        if not all(math.isclose(x, y, rel_tol=1e-9) for x, y in zip(a_floats, e_floats)):
            return False
    return True
