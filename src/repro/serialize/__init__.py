"""JSON serialization of every model object.

Round-trips applications, architectures, mappings, future
characterizations and complete system schedules through plain
JSON-compatible dictionaries, so scenarios and design results can be
saved, diffed and reloaded.

The format is versioned with a ``"kind"`` discriminator per object; see
:func:`to_dict` / :func:`from_dict` for the generic entry points and
:func:`save_json` / :func:`load_json` for files.
"""

from repro.serialize.scenario_codec import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_params_from_dict,
    scenario_params_to_dict,
    scenario_to_dict,
)
from repro.serialize.codec import (
    application_from_dict,
    application_to_dict,
    architecture_from_dict,
    architecture_to_dict,
    from_dict,
    future_from_dict,
    future_to_dict,
    load_json,
    mapping_from_dict,
    mapping_to_dict,
    metrics_from_dict,
    metrics_to_dict,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
    to_dict,
)
from repro.serialize.store_key import spec_store_key

__all__ = [
    "application_to_dict",
    "application_from_dict",
    "architecture_to_dict",
    "architecture_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
    "future_to_dict",
    "future_from_dict",
    "metrics_to_dict",
    "metrics_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "spec_store_key",
    "to_dict",
    "from_dict",
    "save_json",
    "load_json",
    "scenario_to_dict",
    "scenario_from_dict",
    "scenario_params_to_dict",
    "scenario_params_from_dict",
    "save_scenario",
    "load_scenario",
]
