"""Tests for the central REPRO_* knob registry (repro.config).

The registry's contract: unknown values are a hard error naming the
allowed set, empty string means unset, and every knob read in the tree
goes through :func:`repro.config.env_value`.
"""

import pytest

from repro import config
from repro.config import KnobError
from repro.netsim import Network, build_cities, build_topology
from repro.netsim import pathengine


@pytest.fixture(scope="module")
def topology():
    return build_topology(build_cities(), seed=0)


class TestRegistry:
    def test_all_knobs_are_repro_prefixed(self):
        knobs = config.all_knobs()
        assert len(knobs) >= 4
        assert all(k.name.startswith("REPRO_") for k in knobs)

    def test_known_knobs_present(self):
        names = {k.name for k in config.all_knobs()}
        assert {"REPRO_REGION_ENGINE", "REPRO_PATH_ENGINE",
                "REPRO_SNAPSHOT_DIR", "REPRO_SANITIZE"} <= names

    def test_unknown_knob_name_is_keyerror(self):
        with pytest.raises(KeyError, match="REPRO_NO_SUCH_KNOB"):
            config.knob("REPRO_NO_SUCH_KNOB")
        with pytest.raises(KeyError):
            config.env_value("REPRO_NO_SUCH_KNOB")


class TestParsing:
    def test_unset_yields_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_REGION_ENGINE", raising=False)
        assert config.env_value("REPRO_REGION_ENGINE") == "packed"
        assert not config.is_set("REPRO_REGION_ENGINE")

    def test_empty_string_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_REGION_ENGINE", "")
        assert config.env_value("REPRO_REGION_ENGINE") == "packed"
        assert not config.is_set("REPRO_REGION_ENGINE")

    def test_invalid_choice_is_hard_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_REGION_ENGINE", "typo")
        with pytest.raises(KnobError) as excinfo:
            config.env_value("REPRO_REGION_ENGINE")
        message = str(excinfo.value)
        assert "REPRO_REGION_ENGINE" in message
        assert "packed" in message and "bool" in message

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

    def test_int_knob_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_SHARDS", "16")
        assert config.env_value("REPRO_CAMPAIGN_SHARDS") == 16
        monkeypatch.delenv("REPRO_CAMPAIGN_SHARDS")
        assert config.env_value("REPRO_CAMPAIGN_SHARDS") == 1

    @pytest.mark.parametrize("raw", ["four", "2.5", "-3", "0x10"])
    def test_int_knob_garbage_is_hard_error(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CAMPAIGN_SHARDS", raw)
        with pytest.raises(KnobError, match="REPRO_CAMPAIGN_SHARDS"):
            config.env_value("REPRO_CAMPAIGN_SHARDS")


class TestKnobTable:
    def test_markdown_table_covers_every_knob(self):
        table = config.knob_table_markdown()
        assert table.startswith("| Knob |")
        for declared in config.all_knobs():
            assert f"`{declared.name}`" in table

    def test_readme_contains_generated_table(self):
        import pathlib
        readme = (pathlib.Path(__file__).resolve().parents[1]
                  / "README.md").read_text()
        for declared in config.all_knobs():
            assert declared.name in readme, (
                f"{declared.name} is registered but missing from README.md")


class TestEngineSelection:
    """The silent-fallback fix: an explicit csr request without scipy
    must fail loudly instead of quietly downgrading to networkx."""

    def test_typod_engine_value_fails_loudly(self, topology, monkeypatch):
        monkeypatch.setenv("REPRO_PATH_ENGINE", "cs")  # typo'd "csr"
        with pytest.raises(KnobError, match="REPRO_PATH_ENGINE"):
            Network(topology, seed=0)

    def test_explicit_csr_without_scipy_raises(self, topology, monkeypatch):
        monkeypatch.setattr(pathengine, "HAVE_SCIPY", False)
        with pytest.raises(RuntimeError, match="scipy"):
            Network(topology, seed=0, path_engine="csr")

    def test_explicit_env_csr_without_scipy_raises(self, topology,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_PATH_ENGINE", "csr")
        monkeypatch.setattr(pathengine, "HAVE_SCIPY", False)
        with pytest.raises(RuntimeError, match="REPRO_PATH_ENGINE"):
            Network(topology, seed=0)

    def test_implicit_default_still_falls_back(self, topology, monkeypatch):
        monkeypatch.delenv("REPRO_PATH_ENGINE", raising=False)
        monkeypatch.setattr(pathengine, "HAVE_SCIPY", False)
        network = Network(topology, seed=0)
        assert network.path_engine_mode == "networkx"
