"""The output check: P1-P6 modelled over sqlite, apart from the program.

:class:`PolicyModel` loads the generated MIMIC tables into an in-memory
``sqlite3`` database and replays the acknowledged checks in timestamp
order. For each it predicts which of P1-P6 fire, from sqlite's answer to
the same SQL and from the usage history of earlier allowed checks, and
the rows an allowed check must return. It covers the query shapes the
benchmark's streams generate and refuses any other shape.
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter, deque

_FROM = re.compile(r"\bFROM\s+(.*?)\s+WHERE\b", re.IGNORECASE | re.DOTALL)


def _tables(sql: str) -> list:
    match = _FROM.search(sql)
    if match is None:
        raise ValueError(f"the model does not cover this query: {sql}")
    return [part.split()[0].lower() for part in match.group(1).split(",")]


def _normalise(value):
    # JSON booleans arrive as true/false; sqlite stores them as 1/0.
    if isinstance(value, bool):
        return int(value)
    return value


def row_multiset(rows) -> Counter:
    return Counter(tuple(_normalise(value) for value in row) for row in rows)


class PolicyModel:
    """Verdicts of P1-P6 for one shard's stream, replayed in order."""

    def __init__(self, database, params, restricted_uid: int, group_x):
        self.params = params
        self.restricted = restricted_uid
        self.group_x = set(group_x)
        self.sqlite = sqlite3.connect(":memory:")
        for name in database.table_names():
            table = database.table(name)
            columns = table.schema.column_names
            self.sqlite.execute(
                f'CREATE TABLE "{name}" ({", ".join(columns)})'
            )
            self.sqlite.executemany(
                f'INSERT INTO "{name}" VALUES '
                f"({', '.join('?' for _ in columns)})",
                [tuple(_normalise(v) for v in row) for _, row in table.scan()],
            )
        #: (ts, uid) of allowed checks, within the widest window.
        self.users: deque = deque()
        #: (ts, subject_id) for each d_patients tuple an allowed
        #: restricted-uid check used, within the widest window.
        self.patient_uses: deque = deque()
        self._horizon = max(params.p1_window, params.p5_window, params.p6_window)
        self._answers: dict = {}

    def close(self) -> None:
        self.sqlite.close()

    def answer(self, sql: str) -> list:
        rows = self._answers.get(sql)
        if rows is None:
            rows = self._answers[sql] = self.sqlite.execute(sql).fetchall()
        return rows

    def verdict(self, sql: str, uid: int, ts: int) -> "tuple[set, list]":
        """The policies that fire on this check, and sqlite's rows."""
        params = self.params
        for history in (self.users, self.patient_uses):
            while history and history[0][0] <= ts - self._horizon:
                history.popleft()
        tables = _tables(sql)
        rows = self.answer(sql)
        fired = set()

        group_users = {
            user for when, user in self.users
            if when > ts - params.p1_window and user in self.group_x
        }
        if uid in self.group_x:
            group_users.add(uid)
        if len(group_users) > params.p1_max_users:
            fired.add("P1")

        used = set()
        if uid == self.restricted:
            if "poe_order" in tables and set(tables) - {"poe_order", "poe_med"}:
                fired.add("P2")
            if "chartevents" in tables:
                if tables != ["poe_order", "chartevents"] or not sql.startswith(
                    "SELECT o.poe_id, o.medication, c.charttime"
                ):
                    raise ValueError(f"the model does not cover: {sql}")
                # No aggregation: each output tuple has one chartevents
                # input, at most P4's minimum support.
                if rows:
                    fired.add("P4")
            if "d_patients" in tables:
                if tables != ["d_patients"] or not sql.startswith(
                    "SELECT * FROM d_patients"
                ):
                    raise ValueError(f"the model does not cover: {sql}")
                used = {row[0] for row in rows}
                if len(rows) > params.p3_max_output:
                    fired.add("P3")
                window = {
                    subject for when, subject in self.patient_uses
                    if when > ts - params.p5_window
                }
                if len(window | used) > params.p5_max_tuples:
                    fired.add("P5")
                recent = Counter(
                    subject for when, subject in self.patient_uses
                    if when > ts - params.p6_window
                )
                if any(recent[s] + 1 > params.p6_max_uses for s in used):
                    fired.add("P6")

        if not fired:
            self.users.append((ts, uid))
            self.patient_uses.extend((ts, subject) for subject in used)
        return fired, rows
