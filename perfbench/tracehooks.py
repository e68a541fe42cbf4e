"""Layer spans for the traced run, installed from outside the program.

:func:`install` wraps the public entry point of each layer of one
gateway process (and, through :func:`traced_worker_main`, of each
process shard) with a span. Spans nest per thread; when a span ends,
its *self* time (its duration minus the time of the spans it caused)
is added to its layer's bucket, so the buckets of one thread add up to
the duration of its outermost spans. ``GET /v1/stats`` carries the
totals: the gateway's under ``bench_trace``, each process shard's under
``per_shard[i].bench_trace``.

Importing this module changes nothing; process shards import it to
unpickle :func:`traced_worker_main`.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Per-layer self times, inclusive times, call counts and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.root_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.setup: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, fn, namer, after=None):
        """``fn`` inside a span. ``namer`` is the span name, or a callable
        ``(parent_name, args, kwargs) -> name``. ``after(result, frame)``
        may add pre-measured child seconds (``frame[1]``) and counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            name = (
                namer(parent[0] if parent else None, args, kwargs)
                if callable(namer)
                else namer
            )
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, frame)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                with tracer._lock:
                    tracer.self_s[name] += elapsed - frame[1]
                    tracer.incl_s[name] += elapsed
                    tracer.calls[name] += 1
                    if parent is None:
                        tracer.root_s[name] += elapsed

        return wrapper

    def add_self(self, name: str, seconds: float) -> None:
        with self._lock:
            self.self_s[name] += seconds
            self.calls[name] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s),
                "root_s": dict(self.root_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "setup": dict(self.setup),
            }


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's binding of a function at its
    wrapper (functions imported by name live on in each importer)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _patch_method(tracer: Tracer, cls, method: str, namer, after=None):
    original = cls.__dict__[method]
    if isinstance(original, staticmethod):
        wrapped = staticmethod(tracer.wrap(original.__func__, namer, after))
    else:
        wrapped = tracer.wrap(original, namer, after)
    setattr(cls, method, wrapped)


def _patch_function(tracer: Tracer, module, name: str, namer, after=None):
    original = getattr(module, name)
    _rebind(original, tracer.wrap(original, namer, after))


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points in this process."""
    # Imported here so that importing this module has no side effects.
    import repro.service.worker  # noqa: F401 - loads every layer
    from repro.core import Enforcer
    from repro.core.decision_cache import DecisionCache
    from repro.engine import Engine
    from repro.incremental.maintainer import IncrementalMaintainer
    from repro.log import functions as log_functions
    from repro.log.store import LogStore
    from repro.service import ShardedEnforcerService
    from repro.service import ipc
    from repro.sql import canonical, parser
    from repro.storage import snapshot, wal

    # -- service ----------------------------------------------------------
    _patch_method(tracer, ShardedEnforcerService, "submit", "service.submit")

    original_encode = ipc.encode_record
    original_decode = ipc.decode_record

    def encode_record(message):
        data = original_encode(message)
        if message.get("type") == "query" or "decision" in message:
            tracer.count("service.ipc_bytes", len(data))
        return data

    def decode_record(chunk):
        message = original_decode(chunk)
        if message is not None and (
            message.get("type") == "query" or "decision" in message
        ):
            tracer.count("service.ipc_bytes", len(chunk) + 1)
        return message

    ipc.encode_record = encode_record
    ipc.decode_record = decode_record

    # -- core ---------------------------------------------------------------
    def submit_after(decision, frame):
        metrics = getattr(decision, "metrics", None)
        if metrics is None:
            return
        counts = metrics.counts
        tracer.count("core.statements", counts.get("statements", 0))
        tracer.count("log.tuples_staged", counts.get("tuples_staged", 0))
        tracer.count("log.tuples_deleted", counts.get("tuples_deleted", 0))

    _patch_method(tracer, Enforcer, "submit", "core.submit", submit_after)
    _patch_method(tracer, Enforcer, "_interleaved_round", "core.policy_eval")
    _patch_method(tracer, Enforcer, "_direct_round", "core.policy_eval")
    _patch_method(tracer, Enforcer, "_mark_policy", "core.compact_mark")
    for method in ("key_for", "lookup", "store"):
        _patch_method(tracer, DecisionCache, method, "core.decision_cache")

    # -- log ----------------------------------------------------------------
    # The schema log is booked with the users log: no adhoc check ever
    # generates it, and a bucket that reads 0 on every run measures nothing.
    def log_span(name: str) -> str:
        return "log.provenance" if name == "provenance" else "log.users_schema"

    for function in log_functions.STANDARD_LOG_FUNCTIONS:
        object.__setattr__(
            function,
            "generate",
            tracer.wrap(function.generate, log_span(function.name)),
        )
    _patch_method(
        tracer, LogStore, "stage",
        lambda parent, args, kwargs: log_span(args[1]),
    )

    def commit_after(stats, frame):
        # The store times its own delete and insert passes; book them as
        # child spans of the commit.
        frame[1] += stats.delete_seconds + stats.insert_seconds
        tracer.add_self("core.compact_delete", stats.delete_seconds)
        tracer.add_self("core.compact_insert", stats.insert_seconds)

    _patch_method(tracer, LogStore, "commit", "log.commit", commit_after)
    _patch_method(tracer, LogStore, "discard_staged", "log.commit")

    # -- storage ------------------------------------------------------------
    _patch_method(tracer, wal.WriteAheadLog, "append", "storage.wal_append")
    _patch_method(tracer, wal.WriteAheadLog, "_fsync", "storage.wal_fsync")
    _patch_function(
        tracer, wal, "checkpoint", "storage.checkpoint",
        lambda result, frame: tracer.count("storage.checkpoints"),
    )
    # Checkpoints write a snapshot; so does the bootstrap of process shards.
    _patch_function(
        tracer, snapshot, "save_enforcer_state", "storage.checkpoint"
    )

    # -- engine ---------------------------------------------------------------
    def execute_name(parent, args, kwargs):
        lineage = kwargs.get("lineage", args[2] if len(args) > 2 else False)
        if lineage:
            return "engine.lineage_execute"
        if parent == "core.submit":
            return "engine.query"
        return "engine.execute"

    _patch_method(tracer, Engine, "plan", "engine.plan")
    _patch_method(tracer, Engine, "execute", execute_name)
    _patch_method(tracer, Engine, "is_empty", "engine.execute")
    _patch_method(tracer, Engine, "plan_is_empty", "engine.execute")

    # -- sql --------------------------------------------------------------------
    _patch_function(tracer, parser, "parse", "sql.parse")
    _patch_function(tracer, canonical, "canonical_sql", "sql.parse")

    # -- incremental / analysis ------------------------------------------------
    _patch_method(tracer, IncrementalMaintainer, "on_commit", "incremental.fold")
    import repro.core.enforcer as enforcer_module

    enforcer_module.substitute_current_time = tracer.wrap(
        enforcer_module.substitute_current_time, "analysis.witness_instantiate"
    )

    # -- the stats surface carries the totals ----------------------------------
    original_stats = ShardedEnforcerService.stats

    def stats(self):
        entry = original_stats(self)
        entry["bench_trace"] = tracer.snapshot()
        return entry

    ShardedEnforcerService.stats = stats


def traced_worker_main(conn, spec: dict) -> None:
    """A process shard's entry point with the layer spans installed."""
    from repro.service import worker

    tracer = Tracer()
    install(tracer)
    original_build = worker._build_shard
    original_control = worker._handle_control

    def build_shard(shard_spec):
        started = time.perf_counter()
        result = original_build(shard_spec)
        tracer.setup["boot_s"] = time.perf_counter() - started
        tracer.setup["checkpoint_s"] = tracer.root_s.get(
            "storage.checkpoint", 0.0
        )
        return result

    def handle_control(shard, shard_spec, msg):
        reply = original_control(shard, shard_spec, msg)
        if msg.get("type") == "stats" and reply.get("ok"):
            reply["stats"]["bench_trace"] = tracer.snapshot()
        return reply

    worker._build_shard = build_shard
    worker._handle_control = handle_control
    worker.worker_main(conn, spec)
