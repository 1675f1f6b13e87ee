"""Manifest round-trips and footer rendering."""

import repro
from repro.obs.manifest import RunManifest, git_revision


def _manifest(**overrides):
    base = dict(
        experiment_id="fig4",
        seed=7,
        machines=[{"spec": "Intel Xeon E5-2690", "count": 2}],
        fault_models=[],
        engine="reference",
        sanitize=False,
        git_rev="abc1234",
        python_version="3.11.0",
    )
    base.update(overrides)
    return RunManifest(**base)


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        manifest = _manifest(fault_models=["tsc_jitter"], sanitize=True)
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_from_dict_defaults_for_missing_fields(self):
        manifest = RunManifest.from_dict({"experiment_id": "fig4"})
        assert manifest.seed is None
        assert manifest.machines == []
        assert manifest.engine == "fast"

    def test_old_attempts_key_does_not_survive_a_round_trip(self):
        data = dict(_manifest().to_dict(), attempts=3)
        assert RunManifest.from_dict(data).to_dict() == _manifest().to_dict()

    def test_with_provenance_stamps_checkout(self):
        manifest = RunManifest.with_provenance(experiment_id="fig4")
        assert manifest.git_rev  # "unknown" at worst, never empty
        assert manifest.python_version
        assert manifest.package_version == repro.__version__

    def test_git_revision_never_raises(self):
        assert isinstance(git_revision(), str)


class TestFooterLine:
    def test_deterministic_fields_only(self):
        footer = _manifest().footer_line()
        assert footer == (
            "_run: seed 7 · 2× Intel Xeon E5-2690 · "
            f"repro {repro.__version__}_"
        )
        # provenance must stay out of regenerated doc blocks
        assert "abc1234" not in footer
        assert "3.11.0" not in footer
        assert "reference" not in footer

    def test_seedless_run_renders_dash(self):
        assert "_run: seed -" in _manifest(seed=None).footer_line()

    def test_old_checkpoint_attempts_key_is_ignored(self):
        # Checkpoints written before every run used its registered seed
        # carry an ``attempts`` key; it no longer reaches the footer.
        data = dict(_manifest().to_dict(), attempts=2)
        manifest = RunManifest.from_dict(data)
        assert manifest == _manifest()
        assert "attempt" not in manifest.footer_line()

    def test_sanitize_and_faults_are_called_out(self):
        footer = _manifest(
            sanitize=True, fault_models=["a", "b"]
        ).footer_line()
        assert "sanitized" in footer
        assert "faults a,b" in footer

    def test_no_machines_summary(self):
        assert "no machines" in _manifest(machines=[]).footer_line()
