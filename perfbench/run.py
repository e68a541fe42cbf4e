#!/usr/bin/env python3
"""End-to-end benchmark of the HTTP enforcement gateway.

    python3 perfbench/run.py --workload cohort|adhoc|deny --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Each gateway session starts the gateway
(:mod:`gateway`) in its own process group, drives ``POST /v1/query`` as a
closed loop from one or two client sessions, then SIGKILLs the gateway,
recovers every shard from its data directory and checks the recovered
clock and usage log against what the gateway acknowledged. Every
decision and every allowed result is then checked against the sqlite
model of P1-P6 (:mod:`model`).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` splits the
time over four gateway sessions, untraced, traced, traced, untraced, and
prints the per-layer ledger of the traced ones with the tracing
overhead. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import streams  # noqa: E402
from gateway import CHECKPOINT_EVERY, CLOCK_STEP_MS, N_PATIENTS  # noqa: E402

#: Shard mode and client sessions (one connection each) per workload.
WORKLOADS = {
    "cohort": {"mode": "thread", "sessions": 1},
    "adhoc": {"mode": "process", "sessions": 2},
    "deny": {"mode": "thread", "sessions": 1},
}
#: Gateway launches per run whose set-up times give the ``setup_s`` median.
SETUP_LAUNCHES = 9
#: Share of a session's time spent warming caches before measuring.
WARMUP_SHARE = 0.15
#: ``peak_rss_mb`` is read when this many checks of the session have been
#: answered, not at the end of the run: the gateway keeps every check's
#: metrics, so its peak RSS grows with the number of checks, and a reading
#: at the end would grow with throughput.
RSS_AT_CHECKS = 600
#: A run ends once its time is up, between rounds, and with the current
#: WAL segment holding this many checks (so ``wal_kb_per_check`` has a
#: segment to measure); the upper end leaves room for the last rounds of
#: the other session.
SEGMENT_MIN, SEGMENT_MAX = 32, 200
START_TIMEOUT = 120.0


def cpu_split() -> "tuple[set, set]":
    """(client CPUs, gateway CPUs). The client gets the first usable CPU
    and the gateway the rest, so the load generator neither competes
    with the gateway nor moves its threads between runs; with one CPU,
    both get it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


class BenchmarkError(Exception):
    """The run cannot produce a result."""


# ---------------------------------------------------------------------------
# The gateway process
# ---------------------------------------------------------------------------


def _process_group(pgid: int) -> list:
    """Live (non-zombie) pids in a process group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != b"Z":
            members.append(int(entry))
    return members


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


class Gateway:
    """One gateway process group, from launch to SIGKILL."""

    def __init__(
        self, root: Path, workdir: Path, mode: str, trace: bool, cpus: set
    ):
        self.workdir = workdir
        self.data_dir = workdir / "data"
        (workdir / "tmp").mkdir(parents=True)
        # A fixed hash seed keeps set and dict orders, and so the work
        # done per check, the same from run to run.
        env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            TMPDIR=str(workdir / "tmp"),
        )
        command = [
            sys.executable, str(HERE / "gateway.py"),
            "--data-dir", str(self.data_dir), "--mode", mode,
        ] + (["--trace"] if trace else [])
        self._stderr = open(workdir / "gateway.err", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, start_new_session=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise BenchmarkError(
                "gateway did not start:\n" + self._error_text()
            )
        return int(json.loads(line)["port"])

    def _error_text(self) -> str:
        self._stderr.flush()
        return (self.workdir / "gateway.err").read_text(errors="replace")[-4000:]

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT
        while time.perf_counter() < deadline:
            try:
                if self.get("/v1/health")["status"] == "ok":
                    return
            except (OSError, http.client.HTTPException):
                time.sleep(0.005)
        raise BenchmarkError("gateway never answered /v1/health")

    def request(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path: str):
        status, data = self.request("GET", path)
        if status != 200:
            raise BenchmarkError(f"GET {path} answered {status}")
        return data.decode() if path == "/v1/metrics" else json.loads(data)["data"]

    def kill(self) -> None:
        """SIGKILL the whole group (gateway, fork server, shard workers)
        and wait until every member has ended."""
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        deadline = time.monotonic() + 30
        while _process_group(pgid):
            if time.monotonic() > deadline:
                raise BenchmarkError(f"process group {pgid} did not end")
            time.sleep(0.01)


# ---------------------------------------------------------------------------
# Driving the closed loop
# ---------------------------------------------------------------------------


class ClosedLoop:
    """Client sessions submitting whole rounds back to back."""

    def __init__(self, gateway: Gateway, stream, sessions: int, pids: list):
        self.gateway = gateway
        self.stream = stream
        self.sessions = sessions
        #: Gateway and shard processes whose peak RSS is summed.
        self.pids = pids
        #: (sent, answered, sql, uid, status, body) per check, in the
        #: order answers arrived.
        self.records: list = []
        #: Summed peak RSS once ``RSS_AT_CHECKS`` checks were answered.
        self.peak_rss_mb = None
        self._errors: list = []
        self._lock = threading.Lock()

    def drive(self, seconds: float, guard_segment: bool) -> list:
        """Run every session for ``seconds``; returns this phase's records."""
        first = len(self.records)
        end = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self._session, args=(end, guard_segment))
            for _ in range(self.sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self._errors:
            raise BenchmarkError(f"client session failed: {self._errors[0]!r}")
        return self.records[first:]

    def _done(self, end: float, guard_segment: bool) -> bool:
        if time.perf_counter() < end:
            return False
        if not guard_segment:
            return True
        return SEGMENT_MIN <= len(self.records) % CHECKPOINT_EVERY <= SEGMENT_MAX

    def _session(self, end: float, guard_segment: bool) -> None:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.gateway.port, timeout=60
        )
        headers = {"Content-Type": "application/json"}
        try:
            while not self._done(end, guard_segment):
                for sql, uid in self.stream.next_round():
                    body = json.dumps({"sql": sql, "uid": uid})
                    sent = time.perf_counter()
                    conn.request("POST", "/v1/query", body, headers)
                    response = conn.getresponse()
                    data = response.read()
                    answered = time.perf_counter()
                    self._record((sent, answered, sql, uid, response.status, data))
        except (OSError, http.client.HTTPException) as error:
            self._errors.append(error)
        finally:
            conn.close()

    def _record(self, record: tuple) -> None:
        with self._lock:
            self.records.append(record)
            if len(self.records) == RSS_AT_CHECKS:
                self.peak_rss_mb = sum(peak_rss_mib(pid) for pid in self.pids)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_outputs(records: list, model) -> "tuple[int, list]":
    """Failed operations, and the problems found in the answered ones."""
    from model import row_multiset

    failed = 0
    problems: list = []
    decided = []
    for _, _, sql, uid, status, data in records:
        if status not in (200, 403):
            failed += 1
            continue
        body = json.loads(data)["data"]
        if body["allowed"] != (status == 200):
            problems.append(f"status {status} with allowed={body['allowed']}")
        decided.append((body["timestamp"], sql, uid, body))
    decided.sort(key=lambda entry: entry[0])
    for index in range(1, len(decided)):
        if decided[index][0] == decided[index - 1][0]:
            problems.append(f"two checks share timestamp {decided[index][0]}")
    for timestamp, sql, uid, body in decided:
        fired, rows = model.verdict(sql, uid, timestamp)
        label = f"ts={timestamp} uid={uid} {sql!r}"
        if body["allowed"] == bool(fired):
            problems.append(f"{label}: allowed={body['allowed']}, model {sorted(fired)}")
            continue
        if not body["allowed"]:
            named = {v["policy"] for v in body["violations"]}
            if not named or not named <= fired:
                problems.append(f"{label}: denied by {sorted(named)}, model {sorted(fired)}")
            continue
        if body["row_count"] != len(rows):
            problems.append(f"{label}: {body['row_count']} rows, sqlite {len(rows)}")
        elif not body["truncated"] and row_multiset(body["rows"]) != row_multiset(rows):
            problems.append(f"{label}: rows differ from sqlite")
    return failed, problems


def check_durability(gateway: Gateway, records: list, log: dict) -> list:
    """Recover every shard after the SIGKILL; compare with what the
    gateway acknowledged."""
    from repro.log import SimulatedClock
    from repro.storage.wal import recover_enforcer

    problems = []
    acknowledged = [
        json.loads(data)["data"]["timestamp"]
        for _, _, _, _, status, data in records
        if status in (200, 403)
    ]
    shard_dirs = sorted(gateway.data_dir.glob("shard-*"))
    if len(shard_dirs) != len(log["per_shard"]):
        return [f"{len(shard_dirs)} shard directories for {len(log['per_shard'])} shards"]
    for shard_dir, sizes in zip(shard_dirs, log["per_shard"]):
        enforcer, wal, _ = recover_enforcer(
            shard_dir, clock=SimulatedClock(default_step_ms=CLOCK_STEP_MS),
            sync=False,
        )
        try:
            if enforcer.clock.now() != max(acknowledged):
                problems.append(
                    f"{shard_dir.name}: recovered clock {enforcer.clock.now()}, "
                    f"last acknowledged {max(acknowledged)}"
                )
            if enforcer.log_sizes() != sizes:
                problems.append(
                    f"{shard_dir.name}: recovered log {enforcer.log_sizes()}, "
                    f"served {sizes}"
                )
        finally:
            wal.close()
    return problems


# ---------------------------------------------------------------------------
# Scrapes
# ---------------------------------------------------------------------------


def metric_sums(text: str) -> dict:
    """Prometheus text exposition → value summed over label sets."""
    sums: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        name = name_part.split("{", 1)[0]
        sums[name] = sums.get(name, 0.0) + float(value)
    return sums


def _trace_parts(stats: dict) -> "tuple[dict, dict]":
    """(gateway totals, shard-side totals) from a ``/v1/stats`` body."""
    gateway = stats["bench_trace"]
    shards = [entry["bench_trace"] for entry in stats["per_shard"] if "bench_trace" in entry]
    return gateway, (_merge(shards) if shards else gateway)


def _merge(parts: list) -> dict:
    merged: dict = {}
    for part in parts:
        for section, values in part.items():
            bucket = merged.setdefault(section, {})
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0.0) + value
    return merged


def _delta(after: dict, before: dict) -> dict:
    return {
        section: {
            key: value - before.get(section, {}).get(key, 0.0)
            for key, value in values.items()
        }
        for section, values in after.items()
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _scrape(gateway: Gateway) -> dict:
    return {
        "metrics": metric_sums(gateway.get("/v1/metrics")),
        "stats": gateway.get("/v1/stats"),
    }


def run_session(
    root, workdir, workload, seed, traced, seconds, model, cpus
) -> dict:
    """One gateway launch: warm-up, measured window, scrapes, SIGKILL,
    then the durability and output checks."""
    spec = WORKLOADS[workload]
    stream = streams.STREAMS[workload](N_PATIENTS, seed)
    gateway = Gateway(root, workdir, spec["mode"], traced, cpus)
    try:
        pids = [gateway.proc.pid] + [
            entry["process"]["pid"]
            for entry in gateway.get("/v1/stats")["per_shard"]
            if "process" in entry
        ]
        loop = ClosedLoop(gateway, stream, spec["sessions"], pids)
        loop.drive(seconds * WARMUP_SHARE, guard_segment=False)
        before = _scrape(gateway)
        window = loop.drive(seconds * (1 - WARMUP_SHARE), guard_segment=True)
        after = _scrape(gateway)
        log = gateway.get("/v1/log")
        durability = gateway.get("/v1/durability")
    finally:
        gateway.kill()
    problems = check_durability(gateway, loop.records, log)
    failed, output_problems = check_outputs(loop.records, model)
    return {
        "setup_s": gateway.setup_s,
        "traced": traced,
        "attempted": len(loop.records),
        "failed": failed,
        "problems": problems + output_problems,
        "window": window,
        "before": before,
        "after": after,
        "log": log,
        "durability": durability,
        "peak_rss_mb": loop.peak_rss_mb,
    }


def latency_metrics(window: list) -> dict:
    latencies = sorted(answered - sent for sent, answered, *_ in window)
    span = max(r[1] for r in window) - min(r[0] for r in window)
    return {
        "check_p50_ms": statistics.median(latencies) * 1000,
        "check_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
        "checks_per_s": len(window) / span,
        "check_mean_ms": statistics.fmean(latencies) * 1000,
    }


def end_to_end(session: dict, setup_times: list) -> dict:
    latency = latency_metrics(session["window"])
    shards = session["durability"]["per_shard"]
    wal_bytes = sum(shard["wal_bytes"] for shard in shards)
    segment = sum(shard["since_checkpoint"] for shard in shards)
    if segment < 1:
        raise BenchmarkError("the final WAL segment holds no checks")
    if session["peak_rss_mb"] is None:
        raise BenchmarkError(
            f"the run ended before check {RSS_AT_CHECKS}, where peak_rss_mb is read"
        )
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "check_p50_ms": (latency["check_p50_ms"], "ms"),
        "check_p90_ms": (latency["check_p90_ms"], "ms"),
        "checks_per_s": (latency["checks_per_s"], "1/s"),
        "peak_rss_mb": (session["peak_rss_mb"], "MiB"),
        "log_rows": (float(sum(session["log"]["log"].values())), "rows"),
        "wal_kb_per_check": (wal_bytes / segment / 1024.0, "KiB"),
    }


def _traced_totals(session: dict) -> dict:
    """One traced session's window: its checks and every counter's change."""
    window = session["window"]
    gw_after, shard_after = _trace_parts(session["after"]["stats"])
    gw_before, shard_before = _trace_parts(session["before"]["stats"])
    gw = _delta(gw_after, gw_before)
    if session["after"]["stats"]["workers_mode"] == "thread":
        shard = gw
        child_checkpoint = 0.0
    else:
        shard = _delta(shard_after, shard_before)
        child_checkpoint = shard_after["setup"].get("checkpoint_s", 0.0)
    m_after, m_before = session["after"]["metrics"], session["before"]["metrics"]
    return {
        "checks": len(window),
        "latency_s": sum(answered - sent for sent, answered, *_ in window),
        "response_bytes": sum(len(record[5]) for record in window),
        "gateway": gw,
        "shard": shard,
        "metrics": {
            name: value - m_before.get(name, 0.0) for name, value in m_after.items()
        },
        "setup": dict(gw_after["setup"], child_checkpoint_s=child_checkpoint),
    }


def _sum_totals(parts: list) -> dict:
    return {
        "checks": sum(part["checks"] for part in parts),
        "latency_s": sum(part["latency_s"] for part in parts),
        "response_bytes": sum(part["response_bytes"] for part in parts),
        "gateway": _merge([part["gateway"] for part in parts]),
        "shard": _merge([part["shard"] for part in parts]),
        "metrics": _merge([{"m": part["metrics"]} for part in parts])["m"],
        "setup": parts[0]["setup"],
    }


def ledger(traced: list, traced_cps: float, untraced_cps: float) -> dict:
    """Per-check means of every layer over the traced sessions."""
    totals = _sum_totals([_traced_totals(session) for session in traced])
    n = totals["checks"]
    check_mean_ms = totals["latency_s"] / n * 1000
    gw, shard = totals["gateway"], totals["shard"]

    def metric(name):
        return totals["metrics"].get(name, 0.0)

    def ratio(hits, misses):
        total = metric(hits) + metric(misses)
        return metric(hits) / total if total else 0.0

    self_s = shard["self_s"]
    calls = shard["calls"]
    counts = shard["counts"]

    def ms(name):
        return self_s.get(name, 0.0) / n * 1000

    def per_check(value):
        return value / n

    submit_ms = gw["incl_s"].get("service.submit", 0.0) / n * 1000
    check_ms = metric("repro_check_seconds_sum") / n * 1000
    queue_ms = metric("repro_queue_wait_seconds_sum") / n * 1000
    roots_ms = sum(
        value for name, value in shard["root_s"].items()
        if name != "service.submit"
    ) / n * 1000
    layers = {
        "server.http_ms": check_mean_ms - submit_ms,
        "service.ipc_ms": submit_ms - check_ms,
        "service.queue_wait_ms": queue_ms,
        "service.shard_ms": check_ms - queue_ms - roots_ms,
    }
    spans = {
        "core.unaccounted_ms": "core.submit",
        "core.policy_eval_ms": "core.policy_eval",
        "core.compact_mark_ms": "core.compact_mark",
        "core.compact_delete_ms": "core.compact_delete",
        "core.compact_insert_ms": "core.compact_insert",
        "core.decision_cache_ms": "core.decision_cache",
        "log.users_schema_ms": "log.users_schema",
        "log.provenance_ms": "log.provenance",
        "log.commit_ms": "log.commit",
        "storage.wal_append_ms": "storage.wal_append",
        "storage.wal_fsync_ms": "storage.wal_fsync",
        "storage.checkpoint_ms": "storage.checkpoint",
        "engine.plan_ms": "engine.plan",
        "engine.execute_ms": "engine.execute",
        "engine.lineage_execute_ms": "engine.lineage_execute",
        "engine.query_ms": "engine.query",
        "sql.parse_ms": "sql.parse",
        "incremental.fold_ms": "incremental.fold",
        "analysis.witness_instantiate_ms": "analysis.witness_instantiate",
    }
    unnamed = set(self_s) - set(spans.values()) - {"service.submit"}
    if any(self_s[name] > 0 for name in unnamed):
        raise BenchmarkError(f"spans without a ledger line: {sorted(unnamed)}")
    for metric_name, span in spans.items():
        layers[metric_name] = ms(span)
    ledger_ms = sum(layers.values())

    setup = totals["setup"]
    setup_checkpoint = setup["checkpoint_s"] + setup["child_checkpoint_s"]
    out = {name: (value, "ms") for name, value in layers.items()}
    out.update({
        "server.response_kb": (totals["response_bytes"] / n / 1024.0, "KiB"),
        "service.ipc_kb": (
            per_check(gw["counts"].get("service.ipc_bytes", 0.0)) / 1024.0, "KiB"
        ),
        "core.submit_ms": (shard["incl_s"].get("core.submit", 0.0) / n * 1000, "ms"),
        "core.statements": (per_check(counts.get("core.statements", 0.0)), "count"),
        "core.decision_cache_hits": (
            per_check(metric("repro_decision_cache_hits_total")), "count"
        ),
        "core.decision_cache_misses": (
            per_check(metric("repro_decision_cache_misses_total")), "count"
        ),
        "log.tuples_staged": (per_check(counts.get("log.tuples_staged", 0.0)), "count"),
        "log.tuples_deleted": (per_check(counts.get("log.tuples_deleted", 0.0)), "count"),
        "storage.wal_fsyncs": (per_check(calls.get("storage.wal_fsync", 0.0)), "count"),
        "storage.checkpoints": (per_check(counts.get("storage.checkpoints", 0.0)), "count"),
        "engine.plan_cache_hit_ratio": (
            ratio("repro_plan_cache_hits_total", "repro_plan_cache_misses_total"), "ratio"
        ),
        "engine.join_build_cache_hit_ratio": (
            ratio("repro_join_build_cache_hits_total", "repro_join_build_cache_misses_total"),
            "ratio",
        ),
        "engine.chunks_skipped_ratio": (
            ratio("repro_engine_chunks_skipped_total", "repro_engine_chunks_scanned_total"),
            "ratio",
        ),
        "engine.dag_saved_execs": (per_check(metric("repro_dag_saved_execs_total")), "count"),
        "sql.parses": (per_check(calls.get("sql.parse", 0.0)), "count"),
        "incremental.hits": (per_check(metric("repro_incremental_hits_total")), "count"),
        "incremental.fallbacks": (
            per_check(metric("repro_incremental_fallbacks_total")), "count"
        ),
        "setup.database_s": (setup["database_s"], "s"),
        "setup.prepare_s": (setup["prepare_s"], "s"),
        "setup.checkpoint_s": (setup_checkpoint, "s"),
        "setup.spawn_s": (setup["service_s"] - setup_checkpoint, "s"),
        "trace.check_mean_ms": (check_mean_ms, "ms"),
        "trace.ledger_ms": (ledger_ms, "ms"),
        "trace.checks_per_s": (traced_cps, "1/s"),
        "trace.untraced_checks_per_s": (untraced_cps, "1/s"),
        "trace.overhead_pct": ((untraced_cps / traced_cps - 1) * 100, "%"),
    })
    return out


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.workloads import MimicConfig, PolicyParams, build_mimic_database
    from model import PolicyModel

    config = MimicConfig(n_patients=N_PATIENTS)
    params = PolicyParams.for_config(config)
    database = build_mimic_database(config)
    workdir = root / ".perfbench_run"
    shutil.rmtree(workdir, ignore_errors=True)
    client_cpus, gateway_cpus = cpu_split()
    os.sched_setaffinity(0, client_cpus)
    setup_times = []
    sessions = []
    try:
        if trace:
            # Untraced, traced, traced, untraced: a drift in machine speed
            # over the run weighs on both sides alike.
            plan = [False, True, True, False]
        else:
            for launch in range(SETUP_LAUNCHES - 1):
                gateway = Gateway(
                    root, workdir / f"setup-{launch}",
                    WORKLOADS[workload]["mode"], False, gateway_cpus,
                )
                setup_times.append(gateway.setup_s)
                gateway.kill()
            plan = [False]
        for index, traced in enumerate(plan):
            model = PolicyModel(
                database, params, streams.RESTRICTED_UID, streams.GROUP_X
            )
            try:
                sessions.append(run_session(
                    root, workdir / f"session-{index}", workload, seed,
                    traced, seconds / len(plan), model, gateway_cpus,
                ))
            finally:
                model.close()
            setup_times.append(sessions[-1]["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        def checks_per_s(traced):
            return statistics.fmean(
                latency_metrics(s["window"])["checks_per_s"]
                for s in sessions if s["traced"] == traced
            )

        metrics = ledger(
            [s for s in sessions if s["traced"]],
            checks_per_s(True), checks_per_s(False),
        )
    else:
        metrics = end_to_end(sessions[0], setup_times)
    problems = [problem for s in sessions for problem in s["problems"]]
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end gateway benchmark.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("run from the root of a checkout: src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
