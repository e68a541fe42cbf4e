"""Start the HTTP enforcement gateway the benchmark drives.

Run as ``python3 perfbench/gateway.py --data-dir DIR --mode thread|process
[--trace]`` with ``src`` on ``PYTHONPATH``. It builds the synthetic MIMIC
database with P1-P6, serves it through :func:`repro.server.serve` with
the settings ``repro serve --data-dir`` ships (``ServiceConfig`` defaults,
fsynced WAL, ``checkpoint_every=256``) on an ephemeral port, prints one
JSON line ``{"port": N}`` and serves until killed.

With ``--trace`` the layer spans of :mod:`tracehooks` are installed in
this process and in every process shard. Process shards import this
file again as their main module, so it does nothing at import time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: Database scale and clock step; the benchmark's sqlite model uses the same.
N_PATIENTS = 300
CLOCK_STEP_MS = 10
CHECKPOINT_EVERY = 256


def build_server(data_dir: str, mode: str, tracer=None):
    from repro.core import Enforcer, EnforcerOptions
    from repro.log import SimulatedClock
    from repro.server import serve
    from repro.service import ServiceConfig
    from repro.workloads import (
        MimicConfig,
        PolicyParams,
        build_mimic_database,
        make_all_policies,
    )

    config = MimicConfig(n_patients=N_PATIENTS)
    started = time.perf_counter()
    database = build_mimic_database(config)
    built = time.perf_counter()
    enforcer = Enforcer(
        database,
        make_all_policies(PolicyParams.for_config(config)),
        clock=SimulatedClock(default_step_ms=CLOCK_STEP_MS),
        options=EnforcerOptions.datalawyer(),
    )
    prepared = time.perf_counter()
    server = serve(
        enforcer,
        host="127.0.0.1",
        port=0,
        config=ServiceConfig(
            data_dir=data_dir,
            wal_sync=True,
            checkpoint_every=CHECKPOINT_EVERY,
            workers_mode=mode,
        ),
    )
    served = time.perf_counter()
    if tracer is not None:
        checkpoint_s = tracer.root_s.get("storage.checkpoint", 0.0)
        tracer.setup.update(
            database_s=built - started,
            prepare_s=prepared - built,
            service_s=served - prepared,
            checkpoint_s=checkpoint_s,
        )
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--mode", choices=("thread", "process"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import repro.service.process
        import tracehooks

        tracer = tracehooks.Tracer()
        tracehooks.install(tracer)
        repro.service.process.worker_main = tracehooks.traced_worker_main

    server = build_server(args.data_dir, args.mode, tracer)
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
