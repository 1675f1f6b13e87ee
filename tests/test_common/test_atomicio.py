"""Unit tests for the record codec, atomic writes and quarantine."""

import json
import os

import pytest

from repro.common.atomicio import (
    RECORD_VERSION,
    atomic_write_text,
    checksum,
    fsync_directory,
    quarantine_file,
    seal,
    seal_jsonl,
    unseal,
    unseal_jsonl,
)

PAYLOAD = '{"results": {}, "obs": {}}'

#: ``seal(PAYLOAD)`` as the checkpoint writer has always produced it.
SEALED = (
    '{"version": 2, "checksum": "sha256:f224fec16b296866a9d719cc14880985'
    'f5aeabd8d37377041fa671f33bce6765", "data": {"results": {}, "obs": {}}}'
)


class TestSeal:
    def test_bytes_match_the_established_format(self):
        assert RECORD_VERSION == 2
        assert seal(PAYLOAD) == SEALED

    def test_unseal_returns_the_exact_payload(self):
        spaced = '{"b": 1,   "a": [1,2]}'
        assert unseal(seal(spaced)) == spaced
        assert unseal(SEALED + "\n") == PAYLOAD

    def test_checksum_label(self):
        assert checksum("") == (
            "sha256:e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855"
        )

    @pytest.mark.parametrize(
        "raw, reason",
        [
            (SEALED[:-9], "not valid JSON"),
            ("[1, 2]", "not an object"),
            (PAYLOAD, "version is missing"),
            (SEALED.replace('"version": 2', '"version": 3'), "version is 3"),
            ('{"version": 2, "checksum": "x"}', "malformed"),
            (SEALED.replace('"obs": {}', '"obs": {} '), "checksum mismatch"),
            (seal("[1]"), "not an object"),
        ],
    )
    def test_unseal_names_the_failure(self, raw, reason):
        with pytest.raises(ValueError, match=reason):
            unseal(raw)


class TestSealJsonl:
    LINES = ['{"type": "run"}', '{"type": "result", "n": 1}']

    def test_round_trip_strips_the_footer(self):
        text = seal_jsonl(self.LINES)
        assert unseal_jsonl(text) == "".join(
            line + "\n" for line in self.LINES
        )

    def test_footer_bytes_match_the_established_format(self):
        body = "".join(line + "\n" for line in self.LINES)
        footer = json.dumps(
            {
                "type": "trace-footer",
                "trace_version": 2,
                "records": 2,
                "checksum": checksum(body),
            }
        )
        assert seal_jsonl(self.LINES) == body + footer + "\n"

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda t: t.rsplit("\n", 2)[0] + "\n", "no trace-footer"),
            (lambda t: "", "no trace-footer"),
            (lambda t: t.replace('"n": 1', '"n": 2'), "checksum mismatch"),
            (
                lambda t: t.replace('_version": 2', '_version": 9'),
                "trace_version is 9",
            ),
            (lambda t: t.replace('"records": 2', '"records": 3'), "malformed"),
        ],
    )
    def test_unseal_names_the_failure(self, damage, reason):
        with pytest.raises(ValueError, match=reason):
            unseal_jsonl(damage(seal_jsonl(self.LINES)))


class TestAtomicWriteText:
    def test_creates_file_with_exact_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), '{"a": 1}')
        assert path.read_text() == '{"a": 1}'

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_text(str(path), "new")
        assert path.read_text() == "new"

    def test_leaves_no_temp_file_behind(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "content")
        assert os.listdir(tmp_path) == ["out.json"]

    def test_relative_path_in_cwd(self, tmp_path, monkeypatch):
        # The directory fsync resolves a bare filename to the cwd
        # rather than fsyncing the empty string.
        monkeypatch.chdir(tmp_path)
        atomic_write_text("bare.json", "x")
        assert (tmp_path / "bare.json").read_text() == "x"


class TestQuarantineFile:
    def test_moves_to_corrupt_and_returns_path(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("damaged bytes")
        corrupt = quarantine_file(str(path))
        assert corrupt == str(path) + ".corrupt"
        assert not path.exists()
        assert (tmp_path / "artifact.json.corrupt").read_text() == (
            "damaged bytes"
        )

    def test_missing_file_returns_none(self, tmp_path):
        assert quarantine_file(str(tmp_path / "never-existed")) is None

    def test_replaces_previous_quarantine(self, tmp_path):
        path = tmp_path / "artifact.json"
        (tmp_path / "artifact.json.corrupt").write_text("older corpse")
        path.write_text("newer corpse")
        quarantine_file(str(path))
        assert (tmp_path / "artifact.json.corrupt").read_text() == (
            "newer corpse"
        )


class TestFsyncDirectory:
    def test_tolerates_unsyncable_path(self):
        # Must degrade gracefully, never raise.
        fsync_directory("/definitely/not/a/real/directory")
        fsync_directory("")
