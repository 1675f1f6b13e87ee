"""Per-rule tests: each rule fires on synthetic bad sources and stays
quiet on the idiomatic equivalents."""

from repro.analysis import lint_sources
from repro.analysis.rules import (
    FAULT_INJECTION_POINTS,
    POLICY_CONTRACT,
    RULE_REGISTRY,
)


def _rule_hits(source, path="src/repro/example.py", rules=None):
    return [
        (f.rule_id, f.line) for f in lint_sources([(path, source)], rules)
    ]


class TestNoDirectRandom:
    def test_flags_import_and_from_import(self):
        source = "import random\nfrom random import choice\n"
        assert _rule_hits(source, rules=["no-direct-random"]) == [
            ("no-direct-random", 1),
            ("no-direct-random", 2),
        ]

    def test_rng_module_itself_is_exempt(self):
        source = "import random\n"
        path = "src/repro/common/rng.py"
        assert _rule_hits(source, path, rules=["no-direct-random"]) == []

    def test_numpy_random_attribute_is_fine(self):
        source = "import numpy as np\nx = np.random\n"
        assert _rule_hits(source, rules=["no-direct-random"]) == []


class TestNoWallclock:
    def test_flags_time_time_and_datetime_now(self):
        source = (
            "import time, datetime\n"
            "a = time.time()\n"
            "b = datetime.datetime.now()\n"
            "c = datetime.datetime.utcnow()\n"
        )
        hits = _rule_hits(source, rules=["no-wallclock"])
        assert [line for _, line in hits] == [2, 3, 4]

    def test_monotonic_is_allowed(self):
        source = "import time\nstart = time.monotonic()\n"
        assert _rule_hits(source, rules=["no-wallclock"]) == []


class TestNoCycleArithmetic:
    def test_flags_ready_at_writes_outside_sim(self):
        source = "def f(thread):\n    thread.ready_at += 100\n"
        assert _rule_hits(source, rules=["no-cycle-arithmetic"]) == [
            ("no-cycle-arithmetic", 2)
        ]

    def test_scheduler_layer_is_exempt(self):
        source = "def f(thread):\n    thread.ready_at = 0\n"
        path = "src/repro/sim/scheduler.py"
        assert _rule_hits(source, path, rules=["no-cycle-arithmetic"]) == []

    def test_reads_are_fine(self):
        source = "def f(thread):\n    return thread.ready_at\n"
        assert _rule_hits(source, rules=["no-cycle-arithmetic"]) == []

    def test_fastpath_engine_is_not_exempt(self):
        # The fast engine lives under repro.sim but is cache machinery,
        # not a scheduler: the blanket repro.sim exemption must not
        # extend to it.
        source = "def f(thread):\n    thread.ready_at = 0\n"
        path = "src/repro/sim/fastpath.py"
        assert _rule_hits(source, path, rules=["no-cycle-arithmetic"]) == [
            ("no-cycle-arithmetic", 2)
        ]


class TestPolicyContract:
    def test_flags_partial_policy(self):
        source = (
            "class HalfPolicy(ReplacementPolicy):\n"
            "    def touch(self, way):\n"
            "        pass\n"
        )
        hits = lint_sources(
            [("src/repro/replacement/half.py", source)], ["policy-contract"]
        )
        assert len(hits) == 1
        for member in POLICY_CONTRACT:
            if member != "touch":
                assert member in hits[0].message

    def test_full_contract_passes(self):
        body = "\n".join(
            f"    def {name}(self):\n        pass" for name in POLICY_CONTRACT
        )
        source = f"class FullPolicy(ReplacementPolicy):\n{body}\n"
        assert (
            lint_sources(
                [("src/repro/replacement/full.py", source)],
                ["policy-contract"],
            )
            == []
        )

    def test_unrelated_class_ignored(self):
        source = "class Helper:\n    pass\n"
        assert _rule_hits(source, rules=["policy-contract"]) == []


class TestExperimentRegistered:
    def test_flags_unregistered_run_function(self):
        source = "def run_table9(trials=100):\n    pass\n"
        path = "src/repro/experiments/table9.py"
        assert _rule_hits(source, path, rules=["experiment-registered"]) == [
            ("experiment-registered", 1)
        ]

    def test_registered_run_function_passes(self):
        source = (
            "from repro.experiments.base import register\n"
            '@register("table9")\n'
            "def run_table9(trials=100):\n"
            "    pass\n"
        )
        path = "src/repro/experiments/table9.py"
        assert _rule_hits(source, path, rules=["experiment-registered"]) == []

    def test_helpers_and_other_packages_ignored(self):
        helper = "def run_sweep_inner():\n    pass\n"
        assert (
            _rule_hits(
                helper,
                "src/repro/channels/probe.py",
                rules=["experiment-registered"],
            )
            == []
        )


class TestFaultDeclaresInjection:
    def test_flags_undeclared_fault_model(self):
        source = "class QuietFault(FaultModel):\n    name = 'quiet'\n"
        hits = lint_sources(
            [("src/repro/faults/quiet.py", source)],
            ["fault-declares-injection"],
        )
        assert len(hits) == 1
        for point in sorted(FAULT_INJECTION_POINTS):
            assert point in hits[0].hint

    def test_declared_fault_model_passes(self):
        source = (
            "class LoudFault(PoissonFault):\n"
            "    name = 'loud'\n"
            "    injection_points = ('time-advance',)\n"
        )
        assert (
            lint_sources(
                [("src/repro/faults/loud.py", source)],
                ["fault-declares-injection"],
            )
            == []
        )


# A minimal registry module, mirroring repro/replacement/__init__.py.
_REGISTRY_SOURCE = (
    "POLICY_REGISTRY = {\n"
    '    "lru": TrueLRU,\n'
    "}\n"
)


class TestPolicyRegistered:
    def test_flags_policy_missing_from_registry(self):
        orphan = (
            "class OrphanPolicy(ReplacementPolicy):\n"
            "    pass\n"
        )
        hits = lint_sources(
            [
                ("src/repro/replacement/__init__.py", _REGISTRY_SOURCE),
                ("src/repro/replacement/orphan.py", orphan),
            ],
            ["policy-registered"],
        )
        assert [(f.rule_id, f.path) for f in hits] == [
            ("policy-registered", "src/repro/replacement/orphan.py")
        ]

    def test_transitive_subclasses_are_checked(self):
        tree = (
            "class TrueLRU(ReplacementPolicy):\n"
            "    pass\n"
            "class SegmentedLRU(TrueLRU):\n"
            "    pass\n"
        )
        hits = lint_sources(
            [
                ("src/repro/replacement/__init__.py", _REGISTRY_SOURCE),
                ("src/repro/replacement/tree.py", tree),
            ],
            ["policy-registered"],
        )
        # TrueLRU is registered; its subclass SegmentedLRU is not.
        assert [f.message for f in hits] == [
            "policy SegmentedLRU is not in POLICY_REGISTRY"
        ]

    def test_private_policies_exempt(self):
        source = "class _ProxyPolicy(ReplacementPolicy):\n    pass\n"
        hits = lint_sources(
            [
                ("src/repro/replacement/__init__.py", _REGISTRY_SOURCE),
                ("src/repro/replacement/private.py", source),
            ],
            ["policy-registered"],
        )
        assert hits == []

    def test_annotated_registry_assignment_is_recognized(self):
        # The real registry module uses an annotated assignment
        # (`POLICY_REGISTRY: Dict[...] = {...}`); the rule must parse
        # that form too, not just a bare Assign.
        annotated = (
            "POLICY_REGISTRY: Dict[str, Callable] = {\n"
            '    "lru": TrueLRU,\n'
            "}\n"
        )
        orphan = "class OrphanPolicy(ReplacementPolicy):\n    pass\n"
        hits = lint_sources(
            [
                ("src/repro/replacement/__init__.py", annotated),
                ("src/repro/replacement/orphan.py", orphan),
            ],
            ["policy-registered"],
        )
        assert [f.rule_id for f in hits] == ["policy-registered"]

    def test_no_registry_in_scope_is_silent(self):
        # Single-file lint without the registry module: cannot
        # cross-check, must not false-positive.
        source = "class LonePolicy(ReplacementPolicy):\n    pass\n"
        hits = lint_sources(
            [("src/repro/replacement/lone.py", source)],
            ["policy-registered"],
        )
        assert hits == []


class TestMetricRegistered:
    def test_flags_undeclared_metric_literal(self):
        source = (
            "def build(session):\n"
            "    session.metrics.counter('cache.l1.hitz')\n"
            "    session.metrics.gauge('channel.thresholdd')\n"
            "    session.metrics.histogram('access.latencies')\n"
        )
        hits = _rule_hits(source, rules=["metric-registered"])
        assert hits == [
            ("metric-registered", 2),
            ("metric-registered", 3),
            ("metric-registered", 4),
        ]

    def test_declared_metrics_pass(self):
        source = (
            "def build(session):\n"
            "    session.metrics.counter('cache.l1.hits')\n"
            "    session.metrics.counter('cache.fills', label='L1D')\n"
            "    session.metrics.gauge('channel.threshold')\n"
            "    session.metrics.histogram('access.latency')\n"
        )
        assert _rule_hits(source, rules=["metric-registered"]) == []

    def test_dynamic_names_and_catalog_module_exempt(self):
        # Non-literal names cannot be checked statically (the runtime
        # registry still validates them); the catalogue module is the
        # declaration site.
        dynamic = "def f(r, name):\n    r.counter(name)\n"
        assert _rule_hits(dynamic, rules=["metric-registered"]) == []
        bogus = "REG.counter('not.a.metric')\n"
        assert (
            _rule_hits(
                bogus,
                path="src/repro/obs/catalog.py",
                rules=["metric-registered"],
            )
            == []
        )

    def test_allow_comment_suppresses(self):
        source = (
            "r.counter('made.up')  # repro: allow(metric-registered)\n"
        )
        assert _rule_hits(source, rules=["metric-registered"]) == []


class TestNoBarePool:
    def test_flags_pool_import_and_construction(self):
        source = (
            "from multiprocessing import Pool\n"
            "import multiprocessing\n"
            "with Pool(4) as pool:\n"
            "    pass\n"
            "other = multiprocessing.Pool(2)\n"
        )
        hits = _rule_hits(source, rules=["no-bare-pool"])
        assert [line for _, line in hits] == [1, 3, 5]
        assert all(rule_id == "no-bare-pool" for rule_id, _ in hits)

    def test_flags_aliased_import(self):
        source = (
            "from multiprocessing.pool import Pool as ProcPool\n"
            "p = ProcPool(2)\n"
        )
        hits = _rule_hits(source, rules=["no-bare-pool"])
        assert [line for _, line in hits] == [1, 2]

    def test_supervisor_module_is_exempt(self):
        source = (
            "from multiprocessing import Pool\n"
            "pool = Pool(4)\n"
        )
        path = "src/repro/experiments/supervisor.py"
        assert _rule_hits(source, path, rules=["no-bare-pool"]) == []

    def test_other_multiprocessing_use_is_fine(self):
        source = (
            "import multiprocessing\n"
            "q = multiprocessing.Queue()\n"
            "p = multiprocessing.Process(target=print)\n"
        )
        assert _rule_hits(source, rules=["no-bare-pool"]) == []

    def test_allow_comment_suppresses(self):
        source = (
            "import multiprocessing\n"
            "p = multiprocessing.Pool(2)  # repro: allow(no-bare-pool)\n"
        )
        assert _rule_hits(source, rules=["no-bare-pool"]) == []


class TestNoUnboundedQueue:
    def test_flags_bare_asyncio_and_queue_constructors(self):
        source = (
            "import asyncio\n"
            "import queue\n"
            "a = asyncio.Queue()\n"
            "b = queue.Queue()\n"
            "c = queue.LifoQueue()\n"
            "d = queue.PriorityQueue()\n"
        )
        hits = _rule_hits(source, rules=["no-unbounded-queue"])
        assert [line for _, line in hits] == [3, 4, 5, 6]
        assert all(rule_id == "no-unbounded-queue" for rule_id, _ in hits)

    def test_bounded_constructions_pass(self):
        source = (
            "import asyncio\n"
            "import queue\n"
            "a = asyncio.Queue(maxsize=8)\n"
            "b = queue.Queue(16)\n"
            "c = asyncio.Queue(maxsize=depth)\n"
        )
        assert _rule_hits(source, rules=["no-unbounded-queue"]) == []

    def test_flags_aliased_from_import(self):
        source = (
            "from asyncio import Queue\n"
            "from queue import Queue as ThreadQueue\n"
            "a = Queue()\n"
            "b = ThreadQueue()\n"
            "c = Queue(maxsize=4)\n"
        )
        hits = _rule_hits(source, rules=["no-unbounded-queue"])
        assert [line for _, line in hits] == [3, 4]

    def test_multiprocessing_queue_is_exempt(self):
        # The supervised executor owns and drains these; bounding them
        # would deadlock its result plumbing.
        source = (
            "import multiprocessing\n"
            "q = multiprocessing.Queue()\n"
            "from multiprocessing import Queue\n"
            "r = Queue()\n"
        )
        assert _rule_hits(source, rules=["no-unbounded-queue"]) == []

    def test_allow_comment_suppresses(self):
        source = (
            "import asyncio\n"
            "q = asyncio.Queue()  # repro: allow(no-unbounded-queue)\n"
        )
        assert _rule_hits(source, rules=["no-unbounded-queue"]) == []


class TestNoBlockingCallInAsync:
    SERVICE_PATH = "src/repro/service/example.py"

    def test_flags_blocking_calls_in_async_def(self):
        source = (
            "import time\n"
            "import socket\n"
            "async def handle(reader, writer):\n"
            "    time.sleep(0.1)\n"
            "    data = open('x').read()\n"
            "    sock = socket.create_connection(('h', 1))\n"
        )
        hits = _rule_hits(
            source, self.SERVICE_PATH, rules=["no-blocking-call-in-async"]
        )
        assert [line for _, line in hits] == [4, 5, 6]
        assert all(
            rule_id == "no-blocking-call-in-async" for rule_id, _ in hits
        )

    def test_flags_subprocess_calls_and_aliases(self):
        source = (
            "import subprocess\n"
            "from subprocess import run as sh\n"
            "async def spawn():\n"
            "    subprocess.check_output(['ls'])\n"
            "    sh(['ls'])\n"
        )
        hits = _rule_hits(
            source, self.SERVICE_PATH, rules=["no-blocking-call-in-async"]
        )
        assert [line for _, line in hits] == [4, 5]

    def test_nested_sync_def_is_exempt(self):
        # A sync helper defined inside an async def runs wherever the
        # caller puts it (typically an executor thread): not flagged.
        source = (
            "import time\n"
            "async def handle():\n"
            "    def blocking_work():\n"
            "        time.sleep(1.0)\n"
            "        return open('x').read()\n"
            "    return blocking_work\n"
        )
        assert (
            _rule_hits(
                source,
                self.SERVICE_PATH,
                rules=["no-blocking-call-in-async"],
            )
            == []
        )

    def test_sync_code_and_other_packages_are_exempt(self):
        blocking = (
            "import time\n"
            "def handle():\n"
            "    time.sleep(0.1)\n"
            "    return open('x').read()\n"
        )
        # Sync function in scope: fine.
        assert (
            _rule_hits(
                blocking,
                self.SERVICE_PATH,
                rules=["no-blocking-call-in-async"],
            )
            == []
        )
        # Async function outside the async packages: out of scope.
        async_elsewhere = (
            "import time\n"
            "async def handle():\n"
            "    time.sleep(0.1)\n"
        )
        assert (
            _rule_hits(
                async_elsewhere,
                "src/repro/experiments/runner.py",
                rules=["no-blocking-call-in-async"],
            )
            == []
        )

    def test_cluster_package_is_in_scope(self):
        # The cluster fabric's event loop is as easy to stall as the
        # service's: repro.cluster gets the same rule.
        source = (
            "import time\n"
            "async def handle():\n"
            "    time.sleep(0.1)\n"
        )
        hits = _rule_hits(
            source,
            "src/repro/cluster/router.py",
            rules=["no-blocking-call-in-async"],
        )
        assert [line for _, line in hits] == [3]

    def test_async_socket_wrappers_are_fine(self):
        source = (
            "import asyncio\n"
            "async def handle():\n"
            "    await asyncio.sleep(0.1)\n"
            "    r, w = await asyncio.open_connection('h', 1)\n"
        )
        assert (
            _rule_hits(
                source,
                self.SERVICE_PATH,
                rules=["no-blocking-call-in-async"],
            )
            == []
        )

    def test_allow_comment_suppresses(self):
        source = (
            "import time\n"
            "async def handle():\n"
            "    time.sleep(0.1)"
            "  # repro: allow(no-blocking-call-in-async)\n"
        )
        assert (
            _rule_hits(
                source,
                self.SERVICE_PATH,
                rules=["no-blocking-call-in-async"],
            )
            == []
        )


class TestNoHardcodedPeerAddress:
    CLUSTER_PATH = "src/repro/cluster/router.py"

    def test_flags_literal_addresses_in_cluster_modules(self):
        source = (
            "FALLBACK = '10.0.0.7:7000'\n"
            "OTHER = 'localhost:9999'\n"
            "NAMED = 'node0.internal.example:7001'\n"
        )
        hits = _rule_hits(
            source, self.CLUSTER_PATH, rules=["no-hardcoded-peer-address"]
        )
        assert [line for _, line in hits] == [1, 2, 3]
        assert all(
            rule_id == "no-hardcoded-peer-address" for rule_id, _ in hits
        )

    def test_membership_module_is_exempt(self):
        # Membership parses operator-supplied host:port specs; its
        # docstrings and defaults legitimately contain address shapes.
        source = "EXAMPLE = '127.0.0.1:7000'\n"
        path = "src/repro/cluster/membership.py"
        assert (
            _rule_hits(source, path, rules=["no-hardcoded-peer-address"])
            == []
        )

    def test_other_packages_are_out_of_scope(self):
        source = "DOC = '127.0.0.1:7000'\n"
        path = "src/repro/service/server.py"
        assert (
            _rule_hits(source, path, rules=["no-hardcoded-peer-address"])
            == []
        )

    def test_non_address_strings_pass(self):
        source = (
            "a = 'slow-peer:3'\n"
            "b = 'sha256:'\n"
            "c = 'cluster.route'\n"
            "d = 'host'\n"
            "e = 'run/alpha/trials=5'\n"
        )
        assert (
            _rule_hits(
                source,
                self.CLUSTER_PATH,
                rules=["no-hardcoded-peer-address"],
            )
            == []
        )

    def test_allow_comment_suppresses(self):
        source = (
            "PEER_TARGET = '127.0.0.1:7000'"
            "  # repro: allow(no-hardcoded-peer-address)\n"
        )
        assert (
            _rule_hits(
                source,
                self.CLUSTER_PATH,
                rules=["no-hardcoded-peer-address"],
            )
            == []
        )


class TestRegistry:
    def test_every_advertised_rule_is_registered(self):
        expected = {
            "no-direct-random",
            "no-wallclock",
            "no-cycle-arithmetic",
            "policy-contract",
            "policy-registered",
            "experiment-registered",
            "fault-declares-injection",
            "no-bare-pool",
            "metric-registered",
            "no-unbounded-queue",
            "no-blocking-call-in-async",
            "no-hardcoded-peer-address",
        }
        assert expected <= set(RULE_REGISTRY)

    def test_rules_have_descriptions_and_scopes(self):
        for rule in RULE_REGISTRY.values():
            assert rule.description
            assert rule.scope in ("file", "project")
