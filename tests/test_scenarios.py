"""Scenario schema round-trips and the bundled JSON files."""

from pathlib import Path

import pytest

from icsim.channel import CorrelatedBurst, Scripted
from icsim.kinematics import Route
from icsim.scenarios import (
    BUNDLED,
    ScenarioError,
    bundled_scenario,
    load_scenario,
    resolve_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from icsim.sim import Scenario, VehicleSpec

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "icsim" / "data"
TEST_FILES = sorted((Path(__file__).resolve().parent / "scenarios").glob("*.scenario.json"))


class TestRoundTrip:
    def test_dict_round_trip(self):
        s = Scenario(
            vehicles=(
                VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=90.0, v=12.0, a=0.5),
                VehicleSpec(
                    uid=2, route=Route("H2R", "H4L"), x=80.0, v=11.0, a=0.0, dx_bound=1.5
                ),
            ),
            channel=CorrelatedBurst(lam=0.0013, xi=0.7),
            F=12,
            seed=3,
        )
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_left_out_fields_take_the_class_defaults(self):
        # the channel included: a file without one runs on Perfect()
        data = {
            "schema": 1,
            "vehicles": [{"uid": 1, "clane": "H1R", "nlane": "H3L", "x": 90.0, "v": 12.0}],
        }
        spec = VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=90.0, v=12.0)
        assert scenario_from_dict(data) == Scenario(vehicles=(spec,))

    def test_file_round_trip(self, tmp_path):
        s = bundled_scenario("fig5c")
        p = tmp_path / "s.json"
        save_scenario(s, p)
        assert load_scenario(p) == s

    def test_scripted_losses_preserved(self, tmp_path):
        s = bundled_scenario("fig5d")
        assert isinstance(s.channel, Scripted)
        p = tmp_path / "s.json"
        save_scenario(s, p)
        assert load_scenario(p).channel == s.channel


class TestBundledFiles:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_shipped_json_matches_builder(self, name, tmp_path):
        # the shipped file is the scenario's only definition; it is in the
        # canonical form save_scenario writes for its own load
        path = DATA_DIR / f"{name}.scenario.json"
        assert path.exists(), f"missing bundled file {path}"
        save_scenario(bundled_scenario(name), tmp_path / "s.json")
        assert (tmp_path / "s.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
    def test_regression_file_is_in_canonical_form(self, path, tmp_path):
        save_scenario(load_scenario(path), tmp_path / "s.json")
        assert (tmp_path / "s.json").read_bytes() == path.read_bytes()

    def test_every_shipped_file_is_bundled(self):
        shipped = {p.name.removesuffix(".scenario.json") for p in DATA_DIR.glob("*.json")}
        assert shipped == set(BUNDLED)

    def test_resolve_prefers_bundled_names(self):
        assert resolve_scenario("fig5a") == bundled_scenario("fig5a")

    def test_resolve_falls_back_to_path(self, tmp_path):
        p = tmp_path / "x.json"
        save_scenario(bundled_scenario("fig5b"), p)
        assert resolve_scenario(str(p)) == bundled_scenario("fig5b")

    def test_unknown_reference_is_an_error(self):
        with pytest.raises(ScenarioError):
            resolve_scenario("never-heard-of-it")


class TestValidationErrors:
    # True == 1 in Python, but a number field never takes true
    @pytest.mark.parametrize("schema", [99, True, "1"])
    def test_wrong_schema_version(self, schema):
        data = scenario_to_dict(bundled_scenario("fig5b"))
        data["schema"] = schema
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_missing_vehicles(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"schema": 1})

    def test_unknown_channel_type(self):
        data = scenario_to_dict(bundled_scenario("fig5b"))
        data["channel"] = {"type": "quantum"}
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_bad_lane_in_file(self):
        data = scenario_to_dict(bundled_scenario("fig5b"))
        data["vehicles"][0]["clane"] = "H9R"
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError, match="unknown bundled scenario 'nope'"):
            bundled_scenario("nope")
