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

A field left out, the channel included, takes its class's default. The
bundled scenarios are the files ``icsim/data/<name>.scenario.json``, each
in the form ``save_scenario`` writes: ``fig5a`` .. ``fig5d`` reproduce
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


def channel_from_dict(d: dict) -> ChannelModel:
    model = CHANNEL_TYPES.get(d.get("type"))
    if model is None:
        raise ScenarioError(f"unknown channel type {d.get('type')!r}")
    _require(d, model.REQUIRED, "in channel")
    return model.from_dict(d, _number, _integer)


def _object(data: dict, key: str) -> dict:
    value = data.get(key, {})
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


# Each field's reader, one table per level: the top level and "params"
# (Scenario's fields), "geometry", and one vehicle besides its route's
# "clane" and "nlane". The channel model reads its own fields.
_TOP = dict(T=_number, F=_integer, R=_number, seed=_integer, max_slots=_integer)
_PARAMS = dict.fromkeys(("tau_th", "epsilon", "sigma_x", "d_margin", "sensing_radius",
                         "resume_accel"), _number)
_GEOMETRY = dict(x_s=_number, w=_number)
_VEHICLE = dict(uid=_integer, x=_number, v=_number, a=_number, dx_bound=_number, x_est=_number)
# The fields a scenario cannot leave out, per level; a channel model names
# its own as REQUIRED.
_REQUIRED_TOP = ("vehicles",)
_REQUIRED_VEHICLE = ("uid", "clane", "nlane", "x", "v")


def _require(data: dict, names: tuple, where: str) -> None:
    for name in names:
        if name not in data:
            raise ScenarioError(f"missing field {name} {where}")


def _read(data: dict, readers: dict) -> dict:
    """The fields of ``readers`` that ``data`` holds, each read by its reader."""
    return {k: read(data[k], k) for k, read in readers.items() if k in data}


def _fields(obj, readers: dict) -> dict:
    """``obj``'s fields named in ``readers``, leaving out a None."""
    return {k: value for k in readers if (value := getattr(obj, k)) is not None}


def scenario_from_dict(data: dict) -> Scenario:
    try:
        schema = data.get("schema")
        if type(schema) is bool or schema != SCHEMA_VERSION:  # True == 1
            raise ScenarioError(f"unsupported schema version {schema!r}")
        kwargs = _read(data, _TOP) | _read(_object(data, "params"), _PARAMS)
        if "channel" in data:
            kwargs["channel"] = channel_from_dict(_object(data, "channel"))
        _require(data, _REQUIRED_TOP, "at the top level")
        vehicles = data["vehicles"]
        if not isinstance(vehicles, list):
            raise ScenarioError("vehicles must be a JSON array")
        for i, v in enumerate(vehicles):
            if not isinstance(v, dict):
                raise ScenarioError(f"vehicles[{i}] must be a JSON object")
            _require(v, _REQUIRED_VEHICLE, f"in vehicles[{i}]")
        scenario = Scenario(
            vehicles=tuple(
                VehicleSpec(route=Route(v["clane"], v["nlane"]), **_read(v, _VEHICLE))
                for v in vehicles
            ),
            geometry=IntersectionGeometry(**_read(_object(data, "geometry"), _GEOMETRY)),
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
        **_fields(s, _TOP),
        "geometry": _fields(s.geometry, _GEOMETRY),
        "channel": s.channel.to_dict(),
        "params": _fields(s, _PARAMS),
        "vehicles": [
            {"clane": v.route.clane, "nlane": v.route.nlane, **_fields(v, _VEHICLE)}
            for v in s.vehicles
        ],
    }


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # not JSON, not UTF-8 text, or nested deeper than the parser recurses
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    return scenario_from_dict(data)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ScenarioError(f"duplicate key {key}")
        data[key] = value
    return data


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
