"""Integration tests for the extension subsystems.

These exercise the 3-level hierarchy, the randomized-index defense
against the real channel stack, and the CLI entry point.
"""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.randomized_index import RandomizedIndexCache
from repro.channels.algorithm1 import SharedMemoryLRUChannel
from repro.channels.algorithm2 import NoSharedMemoryLRUChannel
from repro.channels.evaluation import evaluate_hyper_threaded, random_message
from repro.channels.protocol import ProtocolConfig
from repro.common.types import CacheLevel
from repro.sim.machine import Machine
from repro.sim.specs import INTEL_E5_2690, INTEL_E5_2690_3LEVEL


class TestThreeLevelHierarchy:
    def test_llc_level_served(self):
        machine = Machine(INTEL_E5_2690_3LEVEL, rng=1)
        machine.hierarchy.load(0)
        # Evict from L1+L2 (small) but not the 2 MiB LLC.
        l2_stride = machine.spec.hierarchy.l2.num_sets * 64
        for i in range(1, 20):
            machine.hierarchy.load((1 << 25) + i * l2_stride)
        outcome = machine.hierarchy.load(0)
        assert outcome.hit_level == CacheLevel.LLC
        assert outcome.latency == 40.0

    def test_counters_include_llc(self):
        machine = Machine(INTEL_E5_2690_3LEVEL, rng=1)
        banks = machine.hierarchy.counters()
        assert [b.level_name for b in banks] == ["L1D", "L2", "LLC"]

    def test_flush_reaches_llc(self):
        machine = Machine(INTEL_E5_2690_3LEVEL, rng=1)
        machine.hierarchy.load(0)
        machine.hierarchy.flush_address(0)
        assert not machine.hierarchy.llc.probe(0)

    def test_l1_channel_unaffected_by_llc_presence(self):
        """The L1 LRU channel must work identically with an LLC below."""
        machine = Machine(INTEL_E5_2690_3LEVEL, rng=42)
        channel = SharedMemoryLRUChannel.build(
            machine.spec.hierarchy.l1, 1, d=8
        )
        evaluation = evaluate_hyper_threaded(
            machine, channel, ProtocolConfig(ts=6000, tr=600),
            random_message(32, rng=7), repeats=2,
        )
        assert evaluation.error_rate < 0.30

    def test_invisible_speculation_with_llc(self):
        machine = Machine(
            INTEL_E5_2690_3LEVEL, rng=1, invisible_speculation=True
        )
        machine.hierarchy.load(0, speculative=True)
        assert not machine.hierarchy.llc.probe(0)


class TestRandomizedIndexDefense:
    def test_kills_algorithm2(self):
        """CEASER-style index randomization removes the attacker's
        ability to target a set (Section IX-B's randomization family)."""
        config = INTEL_E5_2690.hierarchy
        machine = Machine(
            INTEL_E5_2690, rng=42,
            l1_cache=RandomizedIndexCache(config.l1, rng=9),
        )
        channel = NoSharedMemoryLRUChannel.build(config.l1, 1, d=5)
        evaluation = evaluate_hyper_threaded(
            machine, channel, ProtocolConfig(ts=6000, tr=600),
            random_message(48, rng=7), repeats=2,
        )
        baseline = Machine(INTEL_E5_2690, rng=42)
        base_eval = evaluate_hyper_threaded(
            baseline, NoSharedMemoryLRUChannel.build(config.l1, 1, d=5),
            ProtocolConfig(ts=6000, tr=600),
            random_message(48, rng=7), repeats=2,
        )
        assert evaluation.error_rate > base_eval.error_rate + 0.15

    def test_performance_not_destroyed(self):
        """Randomized indexing keeps hit rates for ordinary locality."""
        from repro.workloads.spec_like import get_profile
        from repro.workloads.trace import replay

        config = INTEL_E5_2690.hierarchy
        plain = CacheHierarchy(config, rng=1)
        randomized = CacheHierarchy(
            config, rng=1, l1_cache=RandomizedIndexCache(config.l1, rng=9)
        )
        trace = list(get_profile("hmmer").generate(4000, rng=1))
        plain_stats = replay(plain, trace, warmup=400)
        rand_stats = replay(randomized, trace, warmup=400)
        assert abs(plain_stats.l1_miss_rate - rand_stats.l1_miss_rate) < 0.05


class TestCLI:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig11" in out

    def test_run_fast_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Latency of cache access" in out

    def test_run_unknown(self, capsys):
        from repro.__main__ import main

        assert main(["run", "table99"]) == 2

    def test_demo(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        assert "channel works" in capsys.readouterr().out


class TestEngineChoice:
    """One ``--engine`` flag on run/demo/serve; a bad ``REPRO_ENGINE``
    is refused with one line before anything runs."""

    ARGV = {
        "run": ["run", "table2", "fig11"],
        "demo": ["demo"],
        "serve": ["serve", "--port", "0"],
    }

    @pytest.mark.parametrize("value", ["Fast", "batch"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_bad_env_engine_exits_2_before_anything_runs(
        self, monkeypatch, capsys, command, value
    ):
        import repro.__main__ as cli

        monkeypatch.setenv("REPRO_ENGINE", value)
        ran = []
        monkeypatch.setattr(cli, f"_cmd_{command}", ran.append)
        assert cli.main(self.ARGV[command]) == 2
        assert ran == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"{command}: unknown REPRO_ENGINE {value!r}; "
            f"choose from ('reference', 'fast')"
        ]

    def test_engine_flag_overrides_a_bad_env_engine(self, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_ENGINE", "Fast")
        assert main(["run", "table2", "--engine", "reference"]) == 0

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_engine_flag_takes_the_two_engine_names(self, command, capsys):
        from repro.__main__ import build_parser
        from repro.sim.fastpath import ENGINES

        parser = build_parser()
        argv = self.ARGV[command]
        for engine in ENGINES:
            assert parser.parse_args(argv + ["--engine", engine]).engine == (
                engine
            )
        assert parser.parse_args(argv).engine is None
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv + ["--engine", "batch"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err


class TestRequestPathFlags:
    """Failover belongs to `route`; `serve` and `request` run once."""

    def _parse(self, argv):
        from repro.__main__ import build_parser

        return build_parser().parse_args(argv)

    def test_serve_has_no_retries_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self._parse(["serve", "--retries", "1"])
        assert exit_info.value.code == 2
        assert "--retries" in capsys.readouterr().err

    def test_serve_has_no_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self._parse(["serve", "--backend", "supervised"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_request_has_no_peers_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self._parse(["request", "alpha", "--peers", "a=h:1"])
        assert exit_info.value.code == 2
        assert "--peers" in capsys.readouterr().err

    def test_route_still_takes_peers(self):
        args = self._parse(["route", "--peers", "a=h:1,b=h:2"])
        assert args.peers == "a=h:1,b=h:2"

    def test_request_without_port_is_a_usage_error(self, capsys):
        from repro.__main__ import main

        assert main(["request", "alpha"]) == 2
        assert "--port is required" in capsys.readouterr().err
