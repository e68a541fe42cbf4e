"""The query streams of the three workloads, generated from a seed.

A stream hands out *rounds*: short lists of ``(sql, uid)`` checks that
a client session submits back to back. Sessions only stop between
rounds, so every run is made of whole rounds and each workload's mix
(templates, uids, share rejected) is the same in every run.
"""

from __future__ import annotations

import random
import threading

#: uids in group 'x' of the synthetic database (P1 counts them).
GROUP_X = (1, 2, 3, 4, 5)
#: The uid P2-P6 restrict.
RESTRICTED_UID = 1


class CohortStream:
    """The ROADMAP baseline (``bench_policy_dag.cohort_stream``): W1 from
    uid 1, then a ``d_patients`` range scan from each of uids 2-6. The
    same two texts repeat; the seed is not used."""

    def __init__(self, n_patients: int, seed: int):
        n = n_patients
        w1 = f"SELECT * FROM d_patients WHERE subject_id = {round(n * 186 / 1500)}"
        cohort = (
            f"SELECT * FROM d_patients WHERE subject_id > {n // 3} "
            f"AND subject_id < {5 * n // 6}"
        )
        self._round = [(w1, 1)] + [(cohort, uid) for uid in (2, 3, 4, 5, 6)]

    def next_round(self) -> list:
        return list(self._round)


class _DistinctStream:
    """Seeded rounds whose every text is new. Thread-safe, because the
    two ``adhoc`` sessions draw from one stream."""

    def __init__(self, n_patients: int, seed: int):
        self.n = n_patients
        self.rng = random.Random(seed)
        self._seen: set = set()
        self._turn = 0
        self._lock = threading.Lock()

    def _fresh(self, make) -> str:
        while True:
            text = make()
            if text not in self._seen:
                self._seen.add(text)
                return text

    def next_round(self) -> list:
        with self._lock:
            return self._make_round()

    def _lookup(self) -> str:
        """W1: a point lookup. The dob bound keeps texts distinct and is
        below every generated dob (1920 on), so the lookup always hits."""
        rng = self.rng
        return (
            "SELECT * FROM d_patients WHERE subject_id = "
            f"{rng.randint(1, self.n)} AND dob > {rng.randint(1900, 1919)}"
        )

    def _next_uid(self, uids) -> int:
        """uids in a fixed rotation, so every run has the same uid mix."""
        self._turn += 1
        return uids[self._turn % len(uids)]


class AdhocStream(_DistinctStream):
    """Every text new, one round = W1, W2, W3, W4 in a seeded order with
    random subject ids, ranges and HAVING thresholds, from uids other
    than the restricted one. All are allowed."""

    UIDS = (2, 3, 4, 5)

    def _w2(self) -> str:
        rng = self.rng
        return (
            "SELECT c.subject_id, p.sex, COUNT(c.subject_id) "
            "FROM chartevents c, d_patients p "
            f"WHERE c.subject_id = {rng.randint(1, self.n)} "
            "AND p.subject_id = c.subject_id AND itemid = 211 "
            "GROUP BY c.subject_id, p.sex "
            f"HAVING COUNT(c.subject_id) > {rng.randint(0, 12)}"
        )

    def _range(self, width: int) -> str:
        rng = self.rng
        low = rng.randint(0, self.n - width)
        return (
            "SELECT c.subject_id, p.sex, COUNT(c.subject_id) "
            "FROM chartevents c, d_patients p "
            f"WHERE c.subject_id < {low + width} AND c.subject_id > {low} "
            "AND p.subject_id = c.subject_id AND itemid = 211 "
            "GROUP BY c.subject_id, p.sex "
            f"HAVING COUNT(c.subject_id) > {rng.randint(0, 12)}"
        )

    def _make_round(self) -> list:
        n = self.n
        makers = [
            self._lookup,
            self._w2,
            lambda: self._range(max(2, round(n * 70 / 1500))),
            lambda: self._range(max(2, round(n * 650 / 1500))),
        ]
        self.rng.shuffle(makers)
        return [(self._fresh(make), self._next_uid(self.UIDS)) for make in makers]


class DenyStream(_DistinctStream):
    """Half rejected by design, every text new. One round = a wide
    ``d_patients`` range scan from uid 1, which P3 and P5 reject, a
    ``poe_order`` join with ``chartevents`` from uid 1, which P2 and P4
    reject, each followed by an allowed point lookup from a group-x uid."""

    #: Wide scans return more rows than P3's and P5's caps (n/3, n/2).
    def _wide_scan(self) -> str:
        rng = self.rng
        width = rng.randint(self.n // 2 + 2, self.n)
        low = rng.randint(0, self.n + 1 - width)
        return (
            f"SELECT * FROM d_patients WHERE subject_id > {low} "
            f"AND subject_id < {low + width}"
        )

    def _join(self) -> str:
        rng = self.rng
        return (
            "SELECT o.poe_id, o.medication, c.charttime, c.value1num "
            "FROM poe_order o, chartevents c "
            "WHERE o.subject_id = c.subject_id "
            f"AND o.subject_id = {rng.randint(1, self.n)} "
            f"AND c.itemid = {rng.choice((211, 618))} "
            f"AND c.value1num > {rng.randint(0, 7)}"
        )

    def _make_round(self) -> list:
        return [
            (self._fresh(self._wide_scan), RESTRICTED_UID),
            (self._fresh(self._lookup), self._next_uid(GROUP_X)),
            (self._fresh(self._join), RESTRICTED_UID),
            (self._fresh(self._lookup), self._next_uid(GROUP_X)),
        ]


STREAMS = {"cohort": CohortStream, "adhoc": AdhocStream, "deny": DenyStream}
