"""Documentation consistency checks.

Docs that reference code paths rot silently; these tests parse the
markdown and verify every referenced file, module, and experiment id
actually exists.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _read(name: str) -> str:
    path = ROOT / name
    assert path.exists(), f"{name} missing"
    return path.read_text()


class TestRequiredDocs:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/PAPER_MAP.md"],
    )
    def test_exists_and_nonempty(self, name):
        assert len(_read(name)) > 500


class TestPaperMapReferences:
    def test_all_code_paths_exist(self):
        text = _read("docs/PAPER_MAP.md")
        paths = set(re.findall(r"`(repro/[\w/]+\.py)`", text))
        assert len(paths) > 15
        for path in paths:
            assert (ROOT / "src" / path).exists(), f"{path} referenced but missing"

    def test_all_test_paths_exist(self):
        text = _read("docs/PAPER_MAP.md")
        paths = set(re.findall(r"`(tests/[\w/]+\.py)(?:::[\w]+)?`", text))
        for path in paths:
            assert (ROOT / path).exists(), f"{path} referenced but missing"


class TestDesignExperimentIndex:
    def test_experiment_ids_in_design_are_registered(self):
        from repro.experiments import EXPERIMENT_REGISTRY

        text = _read("DESIGN.md")
        ids = set(re.findall(r"`(ext_\w+)`", text))
        assert ids, "DESIGN.md lists no extension experiments"
        for experiment_id in ids:
            assert experiment_id in EXPERIMENT_REGISTRY, experiment_id

    def test_bench_files_exist(self):
        text = _read("DESIGN.md")
        benches = set(re.findall(r"`(benchmarks/[\w/]+\.py)`", text))
        for path in benches:
            assert (ROOT / path).exists(), f"{path} referenced but missing"


class TestExperimentsMdFreshness:
    def test_contains_every_registered_experiment(self):
        from repro.experiments import EXPERIMENT_REGISTRY

        text = _read("EXPERIMENTS.md")
        for experiment_id in EXPERIMENT_REGISTRY:
            assert f"### {experiment_id}" in text, (
                f"{experiment_id} missing from EXPERIMENTS.md; regenerate "
                "with scripts_generate_experiments_md.py"
            )

    def test_headline_table_present(self):
        text = _read("EXPERIMENTS.md")
        assert "Headline comparisons" in text
        assert "Known deviations" in text


class TestReadmeExamplesTable:
    def test_listed_examples_exist(self):
        text = _read("README.md")
        names = set(re.findall(r"`examples/([\w]+\.py)`", text))
        for name in names:
            assert (ROOT / "examples" / name).exists(), name


#: Docs whose backticked dotted names may refer to metrics.
_METRIC_DOCS = (
    "docs/OBSERVABILITY.md",
    "docs/PAPER_MAP.md",
    "docs/SERVICE.md",
    "docs/LEAKAGE.md",
)

#: Trace span/event names (not metrics, but share metric domains).
_TRACE_NAMES = {
    "protocol.hyper_threaded",
    "protocol.time_sliced",
    "channel.bit",
    "channel.sample",
    "sanitizer.access",
}


class TestObservabilityDoc:
    def test_exists_and_nonempty(self):
        assert len(_read("docs/OBSERVABILITY.md")) > 500

    @pytest.mark.parametrize("name", _METRIC_DOCS)
    def test_every_named_metric_is_in_catalog(self, name):
        # Any backticked dotted identifier whose first segment is a
        # metric domain must be a declared metric: docs cannot name
        # series the registry would refuse to emit.
        from repro.obs.catalog import METRIC_CATALOG

        domains = {key.split(".", 1)[0] for key in METRIC_CATALOG}
        text = _read(name)
        candidates = set(re.findall(r"`([a-z_]+(?:\.[a-z_]+)+)`", text))
        named = {
            c
            for c in candidates
            if c.split(".", 1)[0] in domains
            and not c.endswith(".py")
            and c not in _TRACE_NAMES
        }
        assert named, f"{name} names no metrics"
        unknown = named - set(METRIC_CATALOG)
        assert not unknown, (
            f"{name} names undeclared metrics: {sorted(unknown)}"
        )

    def test_every_catalog_metric_is_documented(self):
        from repro.obs.catalog import METRIC_CATALOG

        text = _read("docs/OBSERVABILITY.md")
        missing = [m for m in METRIC_CATALOG if f"`{m}`" not in text]
        assert not missing, (
            f"docs/OBSERVABILITY.md missing metrics {missing}; run "
            "`python -m repro report --update-doc docs/OBSERVABILITY.md`"
        )

    def test_generated_catalog_section_is_current(self):
        from repro.obs.report import update_catalog_doc

        assert update_catalog_doc(
            str(ROOT / "docs" / "OBSERVABILITY.md"), check=True
        ), (
            "docs/OBSERVABILITY.md catalogue is stale; run "
            "`python -m repro report --update-doc docs/OBSERVABILITY.md`"
        )

    def test_trace_record_types_match_writer(self):
        # The schema table documents every record type write_trace and
        # the bus can produce.
        text = _read("docs/OBSERVABILITY.md")
        for record_type in (
            "run",
            "manifest",
            "result",
            "metrics",
            "event",
            "span_start",
            "span_end",
            "failure",
        ):
            assert f"`{record_type}`" in text, record_type


def _documented_flags(text):
    return set(re.findall(r"(--[a-z][a-z-]+)\b", text))


def _parser_flags():
    from repro.__main__ import build_parser

    flags = set()
    parser = build_parser()
    actions = list(parser._actions)
    for action in parser._actions:
        choices = getattr(action, "choices", None)
        if isinstance(choices, dict):
            for sub in choices.values():
                actions.extend(getattr(sub, "_actions", []))
    for action in actions:
        flags.update(
            s for s in getattr(action, "option_strings", ()) if s.startswith("--")
        )
    return flags


class TestCliFlagDrift:
    #: Flags belonging to other entry points (pytest-benchmark, the
    #: lint CLI, the benchmark regression checker, the EXPERIMENTS.md
    #: generator) that docs legitimately mention.
    FOREIGN = {
        "--benchmark-only",
        "--benchmark-json",
        "--baseline",
        "--min-speedup",
        "--min-batch-speedup",
        "--tolerance",
        "--max-exec-overhead",
        "--min-hit-rate",
        "--rule",
        "--only",
        "--check",
        "--update-doc",
        "--check-doc",
        "--catalog",
        # python -m repro.analysis leakage (the static analyzer CLI):
        "--policy",
        "--eager-budget",
        "--json",
        # python3 bench/run.py (the repository benchmark):
        "--workload",
    }

    @pytest.mark.parametrize(
        "name",
        [
            "README.md",
            "EXPERIMENTS.md",
            "docs/OBSERVABILITY.md",
            "docs/ANALYSIS.md",
            "docs/PERFORMANCE.md",
            "docs/FAULTS.md",
            "docs/RESILIENCE.md",
            "docs/SERVICE.md",
            "docs/LEAKAGE.md",
        ],
    )
    def test_documented_repro_flags_exist(self, name):
        documented = _documented_flags(_read(name)) - self.FOREIGN
        unknown = documented - _parser_flags()
        assert not unknown, (
            f"{name} documents flags `python -m repro` does not have: "
            f"{sorted(unknown)}"
        )

    def test_readme_documents_the_runner_flags(self):
        text = _read("README.md")
        for flag in ("--jobs", "--engine", "--sanitize", "--trace",
                     "--timeout", "--retries", "--checkpoint",
                     "--max-task-crashes", "--heartbeat-interval",
                     "--drain-timeout"):
            assert flag in text, f"README.md CLI section lacks {flag}"

    def test_parser_exposes_report_subcommand(self):
        flags = _parser_flags()
        assert {"--trace", "--catalog", "--update-doc", "--check-doc"} <= flags


class TestExperimentsMdBlocks:
    def test_every_block_has_manifest_footer(self):
        text = _read("EXPERIMENTS.md")
        ids = re.findall(r"^### (\w+)$", text, re.MULTILINE)
        blocks = re.split(r"^### \w+$", text, flags=re.MULTILINE)[1:]
        assert len(ids) == len(blocks)
        for experiment_id, block in zip(ids, blocks):
            assert "_run: seed " in block, (
                f"{experiment_id} block lacks a manifest footer; "
                "regenerate with scripts_generate_experiments_md.py"
            )
            assert "_metrics: " in block, experiment_id

    def test_fast_block_regenerates_verbatim(self):
        # The acceptance invariant on the cheapest experiment: rerunning
        # through the observed runner reproduces the committed block
        # byte-for-byte.
        import repro.experiments  # noqa: F401
        from repro.experiments.runner import ExperimentRunner
        from repro.obs.report import experiment_block

        runner = ExperimentRunner(observe=True)
        report = runner.run_many(["table2"])
        assert report.ok
        result = report.results[0]
        capture = runner.captures["table2"]
        fresh = experiment_block(result, capture.manifest, capture.metrics)
        text = _read("EXPERIMENTS.md")
        assert fresh in text, (
            "EXPERIMENTS.md table2 block is stale; regenerate with "
            "scripts_generate_experiments_md.py"
        )
