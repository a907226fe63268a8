"""Scenario files: a versioned JSON schema plus the bundled scenarios.

Schema (version 1)::

    {
      "schema": 1,
      "T": 0.1, "F": 30, "R": 500.0, "seed": 0, "max_slots": 400,
      "geometry": {"x_s": 200.0, "w": 3.5},
      "channel": {"type": "perfect"}
                 | {"type": "distance_iid", "lambda": 0.0013}
                 | {"type": "correlated", "lambda": 0.0013, "xi": 0.9}
                 | {"type": "scripted", "losses": [[uid, slot], ...],
                    "all_lost": [uid, ...]},
      "params": {"tau_th": 2.0, "epsilon": 1e-9, "sigma_x": 0.0,
                 "d_margin": 2.0, "sensing_radius": 150.0,
                 "resume_accel": 2.0},
      "vehicles": [{"uid": 1, "clane": "H1R", "nlane": "H3L",
                    "x": 62.0, "v": 13.0, "a": 0.0, "dx_bound": 0.0}]
    }

The bundled scenarios are the files ``icsim/data/<name>.scenario.json``,
each in the form ``save_scenario`` writes: ``fig5a`` .. ``fig5d`` reproduce
the four scripted failure scenarios and ``allloss`` is a total-blackout run.
``BUNDLED`` maps each name to a one-line description.
"""

from __future__ import annotations

import json
from pathlib import Path

from .channel import CHANNEL_TYPES, ChannelModel
from .kinematics import IntersectionGeometry, Route
from .sim import Scenario, ScenarioError, VehicleSpec

SCHEMA_VERSION = 1

_PARAM_FIELDS = (
    "tau_th",
    "epsilon",
    "sigma_x",
    "d_margin",
    "sensing_radius",
    "resume_accel",
)


def channel_from_dict(d: dict) -> ChannelModel:
    model = CHANNEL_TYPES.get(d.get("type"))
    if model is None:
        raise ScenarioError(f"unknown channel type {d.get('type')!r}")
    return model.from_dict(d, _number, _integer)


def _object(data: dict, key: str, default=None) -> dict:
    value = data.get(key, default or {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{key} must be a JSON object")
    return value


def _number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number (not true or "0.1")."""
    if type(value) is int or type(value) is float:
        return float(value)
    raise ScenarioError(f"{name} must be a number")


def _integer(value, name: str) -> int:
    """``value`` as an int if it is an integral JSON number (not true or 2.7)."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ScenarioError(f"{name} must be an integer")


def scenario_from_dict(data: dict) -> Scenario:
    try:
        if data.get("schema") != SCHEMA_VERSION:
            raise ScenarioError(
                f"unsupported schema version {data.get('schema')!r}"
            )
        geo = _object(data, "geometry")
        geometry = IntersectionGeometry(
            x_s=_number(geo.get("x_s", 200.0), "x_s"), w=_number(geo.get("w", 3.5), "w")
        )
        params = _object(data, "params")
        vehicles = tuple(
            VehicleSpec(
                uid=_integer(v["uid"], "uid"),
                route=Route(v["clane"], v["nlane"]),
                x=_number(v["x"], "x"),
                v=_number(v["v"], "v"),
                a=_number(v.get("a", 0.0), "a"),
                dx_bound=_number(v.get("dx_bound", 0.0), "dx_bound"),
                x_est=_number(v["x_est"], "x_est") if "x_est" in v else None,
            )
            for v in data["vehicles"]
        )
        kwargs = {k: _number(params[k], k) for k in _PARAM_FIELDS if k in params}
        scenario = Scenario(
            vehicles=vehicles,
            geometry=geometry,
            channel=channel_from_dict(_object(data, "channel", {"type": "perfect"})),
            T=_number(data.get("T", 0.1), "T"),
            F=_integer(data.get("F", 30), "F"),
            R=_number(data.get("R", 500.0), "R"),
            max_slots=_integer(data.get("max_slots", 400), "max_slots"),
            seed=_integer(data.get("seed", 0), "seed"),
            **kwargs,
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc
    _known_fields(data, scenario_to_dict(scenario))
    return scenario


def _known_fields(data, form) -> None:
    """Reject a key of ``data`` that the scenario's own JSON form ``form``
    lacks, at every level: a misspelt field would otherwise silently take
    its default. ``data`` has loaded, so each known key holds what its
    reader accepted."""
    if isinstance(data, dict):
        for key, value in data.items():
            if key not in form:
                raise ScenarioError(f"unknown field {key}")
            _known_fields(value, form[key])
    elif isinstance(data, list):
        for item, item_form in zip(data, form):
            _known_fields(item, item_form)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "T": s.T,
        "F": s.F,
        "R": s.R,
        "seed": s.seed,
        "max_slots": s.max_slots,
        "geometry": {"x_s": s.geometry.x_s, "w": s.geometry.w},
        "channel": s.channel.to_dict(),
        "params": {k: getattr(s, k) for k in _PARAM_FIELDS},
        "vehicles": [
            {
                "uid": v.uid,
                "clane": v.route.clane,
                "nlane": v.route.nlane,
                "x": v.x,
                "v": v.v,
                "a": v.a,
                "dx_bound": v.dx_bound,
                **({"x_est": v.x_est} if v.x_est is not None else {}),
            }
            for v in s.vehicles
        ],
    }


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # not JSON, not UTF-8 text, or nested deeper than the parser recurses
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


DATA_DIR = Path(__file__).parent / "data"

#: Bundled scenario name -> what it shows; each is ``data/<name>.scenario.json``.
BUNDLED = {
    "fig5a": "three cars, no losses; the third arrives late, waits out the "
    "first round, and competes against the yielding car in a second round",
    "fig5b": "two cars; the second misses one slot (the first ENTER)",
    "fig5c": "two cars; the second misses three consecutive slots",
    "fig5d": "two cars; both miss the same two slots",
    "allloss": "every V2V message is lost; both cars cross via the fallback",
}


def bundled_scenario(name: str) -> Scenario:
    if name not in BUNDLED:
        raise ScenarioError(
            f"unknown bundled scenario {name!r}; available: {sorted(BUNDLED)}"
        )
    return load_scenario(DATA_DIR / f"{name}.scenario.json")


def resolve_scenario(ref: str) -> Scenario:
    """A scenario reference is a bundled name or a path to a JSON file."""
    if ref in BUNDLED:
        return bundled_scenario(ref)
    if Path(ref).exists():
        return load_scenario(ref)
    raise ScenarioError(f"scenario {ref!r} is neither bundled nor a readable file")
