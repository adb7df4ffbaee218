"""Tests for the central REPRO_* knob registry (repro.config).

The registry's contract: unknown values are a hard error naming the
allowed set, empty string means unset, and every knob read in the tree
goes through :func:`repro.config.env_value`.
"""

import pytest

from repro import config
from repro.config import KnobError


class TestRegistry:
    def test_all_knobs_are_repro_prefixed(self):
        knobs = config.all_knobs()
        assert knobs
        assert all(k.name.startswith("REPRO_") for k in knobs)

    def test_known_knobs_present(self):
        """Only settings no flag or argument reaches are knobs: sizes,
        shard counts and directories are arguments, not environment."""
        names = {k.name for k in config.all_knobs()}
        assert names == {"REPRO_SNAPSHOT_DIR", "REPRO_SANITIZE"}

    def test_unknown_knob_name_is_keyerror(self):
        with pytest.raises(KeyError, match="REPRO_NO_SUCH_KNOB"):
            config.knob("REPRO_NO_SUCH_KNOB")
        with pytest.raises(KeyError):
            config.env_value("REPRO_NO_SUCH_KNOB")


class TestParsing:
    def test_unset_yields_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert config.env_value("REPRO_SANITIZE") is False

    def test_empty_string_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "")
        assert config.env_value("REPRO_SANITIZE") is False

    def test_knob_error_is_a_value_error(self):
        assert issubclass(KnobError, ValueError)

    @pytest.mark.parametrize("word,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_flag_words(self, monkeypatch, word, expected):
        monkeypatch.setenv("REPRO_SANITIZE", word)
        assert config.env_value("REPRO_SANITIZE") is expected

    def test_flag_garbage_is_hard_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "maybe")
        with pytest.raises(KnobError, match="REPRO_SANITIZE"):
            config.env_value("REPRO_SANITIZE")

    def test_path_knob_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", "/tmp/warm")
        assert config.env_value("REPRO_SNAPSHOT_DIR") == "/tmp/warm"
        monkeypatch.delenv("REPRO_SNAPSHOT_DIR")
        assert config.env_value("REPRO_SNAPSHOT_DIR") is None


class TestKnobTable:
    def test_markdown_table_covers_every_knob(self):
        table = config.knob_table_markdown()
        assert table.startswith("| Knob |")
        for declared in config.all_knobs():
            assert f"`{declared.name}`" in table

    def test_readme_contains_generated_table(self):
        """README's knob table is the generated one, line for line — a
        retired knob's row cannot linger."""
        import pathlib
        readme = (pathlib.Path(__file__).resolve().parents[1]
                  / "README.md").read_text().splitlines()
        start = readme.index("| Knob | Values | Default | What it does |")
        end = start
        while end < len(readme) and readme[end].startswith("|"):
            end += 1
        assert readme[start:end] == \
            config.knob_table_markdown().splitlines()
