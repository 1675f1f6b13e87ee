"""End-to-end smoke test for the cluster fabric CLI.

Usage::

    PYTHONPATH=src python scripts_cluster_smoke.py [--requests 30] \
        [--ids table2 table5 fig5]

The multi-node robustness claim, exercised out-of-process against the
*real* experiment registry with *real* processes and a *real* SIGKILL
(the CI ``cluster`` job runs this on every push; the in-process suite
lives in ``tests/test_cluster/``):

1. start three ``python -m repro serve`` subprocesses on ephemeral
   ports, then ``python -m repro route --peers`` over them, parsing
   both announce lines;
2. drive a seeded loadgen batch through the router and SIGKILL one
   node once the batch is demonstrably in flight: the batch must
   complete with zero client errors and every response exact;
3. rerun the same seeded batch against the cluster missing a node: the
   result stream must be bit-identical to the first run — losing a
   node changes who answers, never what is answered;
4. SIGINT the router and the surviving nodes: all must drain
   gracefully (exit code 0).

Exit code 0 when every leg holds, 1 otherwise.
"""

import argparse
import json
import shutil
import signal
import subprocess
import sys
import time

#: Cheap, registry-real experiments — fast enough for a CI smoke, real
#: enough to cover the full route path (ring, failover, node registry).
DEFAULT_IDS = ["table2", "table5", "fig5"]

NODES = 3


def start_process(command, announce_prefix, tag):
    """Spawn a CLI subprocess; parse its announce line for the port."""
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        sys.stdout.write(f"      {tag}: {line}")
        if line.startswith(announce_prefix):
            address = line[len(announce_prefix):].split()[0]
            port = int(address.rsplit(":", 1)[1])
            return process, port
    process.kill()
    raise RuntimeError(f"{tag} never announced its port")


def start_node(index, cache_root):
    return start_process(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--cache-dir",
            f"{cache_root}/cache-node{index}",
        ],
        "serving on ",
        f"node{index}",
    )


def start_router(peers_spec):
    return start_process(
        [
            sys.executable,
            "-m",
            "repro",
            "route",
            "--peers",
            peers_spec,
            "--port",
            "0",
        ],
        "routing on ",
        "router",
    )


def drain(process, tag):
    """SIGINT a subprocess; return its exit code (None on hang)."""
    if process.poll() is not None:
        return process.returncode
    process.send_signal(signal.SIGINT)
    try:
        code = process.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        process.kill()
        return None
    tail = process.stdout.read()
    for line in tail.splitlines():
        print(f"      {tag}: {line}")
    return code


def routed_total(client):
    """Total requests the router has routed, from federated stats."""
    counters = client.stats()["metrics"]["counters"]
    routed = counters.get("cluster.requests.routed", {})
    return sum(routed.values()) if isinstance(routed, dict) else routed


def run_batch(port, schedule):
    from repro.service.loadgen import run_load

    return run_load("127.0.0.1", port, schedule, timeout=300.0)


def check_batch(report, requests, exact):
    """Zero client errors, every answer exact and internally consistent."""
    if report.client_errors:
        print(f"loadgen saw {report.client_errors} client error(s)")
        return False
    if report.total != requests:
        print(f"answered {report.total}/{requests} requests")
        return False
    for response in report.responses:
        if response["status"] != "ok":
            print(f"non-exact response: {response}")
            return False
        experiment_id = response["result"]["experiment_id"]
        payload = json.dumps(response["result"], sort_keys=True)
        if exact.setdefault(experiment_id, payload) != payload:
            print(f"{experiment_id}: repeat differs from first answer")
            return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ids",
        nargs="+",
        default=DEFAULT_IDS,
        help="experiment ids for the batch (default: %(default)s)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=30,
        help="loadgen batch size (default: %(default)s)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="schedule seed (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-root",
        default="cluster_smoke_cache",
        help="root directory for per-node caches (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    import threading

    from repro.service.client import ServiceClient
    from repro.service.loadgen import build_schedule

    shutil.rmtree(args.cache_root, ignore_errors=True)
    processes = {}
    try:
        print(f"[1/4] start {NODES} nodes + router on ephemeral ports")
        ports = {}
        for index in range(NODES):
            name = f"node{index}"
            processes[name], ports[name] = start_node(
                index, args.cache_root
            )
        peers_spec = ",".join(
            f"{name}=127.0.0.1:{port}" for name, port in ports.items()
        )
        processes["router"], router_port = start_router(peers_spec)

        print(
            f"[2/4] routed batch with mid-flight SIGKILL: "
            f"{args.requests} requests, seed {args.seed}"
        )
        schedule = build_schedule(
            args.requests, args.ids, seed=args.seed, repeat_bias=0.7
        )
        holder = {}
        thread = threading.Thread(
            target=lambda: holder.update(
                report=run_batch(router_port, schedule)
            )
        )
        thread.start()
        # Wait until the router has demonstrably routed work, then
        # deliver a real SIGKILL to one node while the batch runs.
        victim = f"node{NODES - 1}"
        deadline = time.monotonic() + 120.0
        with ServiceClient(
            "127.0.0.1", router_port, timeout=30.0
        ) as client:
            while routed_total(client) < max(2, args.requests // 10):
                if time.monotonic() > deadline:
                    print("batch never got going")
                    return 1
                time.sleep(0.05)
        processes[victim].kill()  # SIGKILL, no drain
        print(f"      SIGKILLed {victim} mid-batch")
        thread.join(300.0)
        if thread.is_alive():
            print("batch hung after the node kill")
            return 1
        first = holder["report"]
        print(f"      {first.summary()}")
        exact = {}
        if not check_batch(first, args.requests, exact):
            return 1

        print("[3/4] seed-identical replay on the cluster missing a node")
        second = run_batch(router_port, schedule)
        print(f"      {second.summary()}")
        if not check_batch(second, args.requests, dict(exact)):
            return 1
        first_stream = [
            json.dumps(r["result"], sort_keys=True)
            for r in first.responses
        ]
        second_stream = [
            json.dumps(r["result"], sort_keys=True)
            for r in second.responses
        ]
        if first_stream != second_stream:
            print("replay stream differs from the first batch")
            return 1

        print("[4/4] graceful drain: router, then surviving nodes")
        for tag in ["router"] + [
            name for name in ports if name != victim
        ]:
            code = drain(processes[tag], tag)
            if code != 0:
                print(f"{tag} exited {code}, expected 0")
                return 1
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
    shutil.rmtree(args.cache_root, ignore_errors=True)

    print(
        f"cluster smoke: ok — {args.requests} requests routed across "
        f"{NODES} nodes, {victim} SIGKILLed mid-batch, zero client "
        f"errors, replay bit-identical, graceful drain"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
