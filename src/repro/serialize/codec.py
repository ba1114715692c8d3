"""Dict/JSON codecs for the model, future and schedule objects.

Every ``*_to_dict`` produces a JSON-compatible dictionary carrying a
``"kind"`` discriminator; the matching ``*_from_dict`` validates the
discriminator and rebuilds the object through the public constructors,
so structural invariants are re-checked on load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Union

from repro.core.future import DiscreteDistribution, FutureCharacterization
from repro.core.metrics import DesignMetrics
from repro.model.application import Application
from repro.model.architecture import Architecture, Node
from repro.model.mapping import Mapping
from repro.model.process_graph import Message, Process, ProcessGraph
from repro.sched.schedule import SystemSchedule
from repro.tdma.bus import Slot, TdmaBus
from repro.utils.errors import InvalidModelError


def _expect_kind(payload: Dict[str, Any], kind: str) -> None:
    got = payload.get("kind")
    if got != kind:
        raise InvalidModelError(
            f"expected serialized {kind!r}, got {got!r}"
        )


# ----------------------------------------------------------------------
# applications
# ----------------------------------------------------------------------
def application_to_dict(app: Application) -> Dict[str, Any]:
    """Serialize an application with all graphs, processes and messages."""
    return {
        "kind": "application",
        "name": app.name,
        "graphs": [
            {
                "name": graph.name,
                "period": graph.period,
                "deadline": graph.deadline,
                "processes": [
                    {
                        "id": proc.id,
                        "name": proc.name,
                        "wcet": dict(proc.wcet),
                    }
                    for proc in graph.processes
                ],
                "messages": [
                    {
                        "id": msg.id,
                        "src": msg.src,
                        "dst": msg.dst,
                        "size": msg.size,
                    }
                    for msg in graph.messages
                ],
            }
            for graph in app.graphs
        ],
    }


def application_from_dict(payload: Dict[str, Any]) -> Application:
    """Rebuild an application; re-validates every structural rule."""
    _expect_kind(payload, "application")
    app = Application(payload["name"])
    for gd in payload["graphs"]:
        graph = ProcessGraph(gd["name"], gd["period"], gd["deadline"])
        for pd in gd["processes"]:
            graph.add_process(
                Process(pd["id"], dict(pd["wcet"]), pd.get("name", ""))
            )
        for md in gd["messages"]:
            graph.add_message(
                Message(md["id"], md["src"], md["dst"], md["size"])
            )
        graph.validate()
        app.add_graph(graph)
    return app


# ----------------------------------------------------------------------
# architectures
# ----------------------------------------------------------------------
def architecture_to_dict(arch: Architecture) -> Dict[str, Any]:
    """Serialize nodes and the TDMA round layout."""
    return {
        "kind": "architecture",
        "nodes": [
            {
                "id": node.id,
                "name": node.name,
                "node_kind": node.kind,
                "speed": node.speed,
            }
            for node in arch.nodes
        ],
        "bus": [
            {
                "node_id": slot.node_id,
                "length": slot.length,
                "capacity": slot.capacity,
            }
            for slot in arch.bus.slots
        ],
    }


def architecture_from_dict(payload: Dict[str, Any]) -> Architecture:
    """Rebuild an architecture (bus slot order preserved)."""
    _expect_kind(payload, "architecture")
    nodes = [
        Node(
            nd["id"],
            nd.get("name", ""),
            nd.get("node_kind", "cpu"),
            nd.get("speed", 1.0),
        )
        for nd in payload["nodes"]
    ]
    bus = TdmaBus(
        [
            Slot(sd["node_id"], sd["length"], sd["capacity"])
            for sd in payload["bus"]
        ]
    )
    return Architecture(nodes, bus)


# ----------------------------------------------------------------------
# mappings
# ----------------------------------------------------------------------
def mapping_to_dict(mapping: Mapping) -> Dict[str, Any]:
    """Serialize the process->node assignment (by ids only)."""
    return {
        "kind": "mapping",
        "application": mapping.application.name,
        "assignment": mapping.as_dict(),
    }


def mapping_from_dict(
    payload: Dict[str, Any],
    application: Application,
    architecture: Architecture,
) -> Mapping:
    """Rebuild a mapping against the given application/architecture.

    The application and architecture are passed in (not embedded) so a
    mapping file stays a lightweight overlay of a scenario.
    """
    _expect_kind(payload, "mapping")
    if payload["application"] != application.name:
        raise InvalidModelError(
            f"mapping was saved for application "
            f"{payload['application']!r}, not {application.name!r}"
        )
    return Mapping(application, architecture, payload["assignment"])


# ----------------------------------------------------------------------
# future characterization
# ----------------------------------------------------------------------
def _distribution_to_dict(dist: DiscreteDistribution) -> Dict[str, Any]:
    return {
        "values": list(dist.values),
        "probabilities": list(dist.probabilities),
    }


def _distribution_from_dict(payload: Dict[str, Any]) -> DiscreteDistribution:
    return DiscreteDistribution(
        tuple(payload["values"]), tuple(payload["probabilities"])
    )


def future_to_dict(future: FutureCharacterization) -> Dict[str, Any]:
    """Serialize a future-family characterization."""
    return {
        "kind": "future",
        "t_min": future.t_min,
        "t_need": future.t_need,
        "b_need": future.b_need,
        "wcet_distribution": _distribution_to_dict(future.wcet_distribution),
        "message_size_distribution": _distribution_to_dict(
            future.message_size_distribution
        ),
    }


def future_from_dict(payload: Dict[str, Any]) -> FutureCharacterization:
    """Rebuild a future-family characterization."""
    _expect_kind(payload, "future")
    return FutureCharacterization(
        t_min=payload["t_min"],
        t_need=payload["t_need"],
        b_need=payload["b_need"],
        wcet_distribution=_distribution_from_dict(
            payload["wcet_distribution"]
        ),
        message_size_distribution=_distribution_from_dict(
            payload["message_size_distribution"]
        ),
    )


# ----------------------------------------------------------------------
# design metrics
# ----------------------------------------------------------------------
def metrics_to_dict(metrics: DesignMetrics) -> Dict[str, Any]:
    """Serialize the four metric values plus the combined objective.

    Seven plain numbers, round-tripping exactly (JSON floats serialize
    via ``repr``, which is lossless for IEEE doubles).  The persistent
    result store keeps the same seven fields in a binary record
    instead (:func:`repro.serialize.store_key.metrics_record`).
    """
    return {
        "kind": "metrics",
        "c1p": metrics.c1p,
        "c1m": metrics.c1m,
        "c2p": metrics.c2p,
        "c2m": metrics.c2m,
        "penalty_2p": metrics.penalty_2p,
        "penalty_2m": metrics.penalty_2m,
        "objective": metrics.objective,
    }


def metrics_from_dict(payload: Dict[str, Any]) -> DesignMetrics:
    """Rebuild design metrics from their serialized form."""
    _expect_kind(payload, "metrics")
    return DesignMetrics(
        c1p=float(payload["c1p"]),
        c1m=float(payload["c1m"]),
        c2p=int(payload["c2p"]),
        c2m=int(payload["c2m"]),
        penalty_2p=float(payload["penalty_2p"]),
        penalty_2m=float(payload["penalty_2m"]),
        objective=float(payload["objective"]),
    )


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def schedule_to_dict(schedule: SystemSchedule) -> Dict[str, Any]:
    """Serialize process entries and bus occupancies (ids + times)."""
    return {
        "kind": "schedule",
        "horizon": schedule.horizon,
        "architecture": architecture_to_dict(schedule.architecture),
        "processes": [
            {
                "process_id": e.process_id,
                "instance": e.instance,
                "node_id": e.node_id,
                "start": e.start,
                "end": e.end,
                "frozen": e.frozen,
            }
            for e in schedule.all_entries()
        ],
        "messages": [
            {
                "message_id": o.message_id,
                "instance": o.instance,
                "node_id": o.node_id,
                "round_index": o.round_index,
                "size": o.size,
                "frozen": o.frozen,
            }
            for o in schedule.bus.all_entries()
        ],
    }


def schedule_from_dict(payload: Dict[str, Any]) -> SystemSchedule:
    """Rebuild a schedule; placement re-checks overlap and capacity."""
    _expect_kind(payload, "schedule")
    architecture = architecture_from_dict(payload["architecture"])
    schedule = SystemSchedule(architecture, payload["horizon"])
    for ed in payload["processes"]:
        schedule.place_process(
            ed["process_id"],
            ed["instance"],
            ed["node_id"],
            ed["start"],
            ed["end"] - ed["start"],
            ed.get("frozen", False),
        )
    for md in payload["messages"]:
        schedule.bus.place(
            md["message_id"],
            md["instance"],
            md["node_id"],
            md["round_index"],
            md["size"],
            md.get("frozen", False),
        )
    schedule.validate()
    return schedule


# ----------------------------------------------------------------------
# generic entry points
# ----------------------------------------------------------------------
_TO_DICT: Dict[type, Callable[[Any], Dict[str, Any]]] = {
    Application: application_to_dict,
    Architecture: architecture_to_dict,
    Mapping: mapping_to_dict,
    FutureCharacterization: future_to_dict,
    SystemSchedule: schedule_to_dict,
    DesignMetrics: metrics_to_dict,
}

_FROM_DICT: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "application": application_from_dict,
    "architecture": architecture_from_dict,
    "future": future_from_dict,
    "schedule": schedule_from_dict,
    "metrics": metrics_from_dict,
}


def to_dict(obj: Any) -> Dict[str, Any]:
    """Serialize any supported object (dispatch on type)."""
    for cls, codec in _TO_DICT.items():
        if isinstance(obj, cls):
            return codec(obj)
    raise TypeError(f"cannot serialize objects of type {type(obj).__name__}")


def from_dict(payload: Dict[str, Any]) -> Any:
    """Deserialize any self-contained payload (dispatch on ``kind``).

    Mappings are not self-contained (they reference an application and
    architecture); use :func:`mapping_from_dict` for those.
    """
    kind = payload.get("kind")
    if kind not in _FROM_DICT:
        raise InvalidModelError(f"cannot deserialize kind {kind!r}")
    return _FROM_DICT[kind](payload)


def save_json(obj: Any, path: Union[str, Path]) -> None:
    """Serialize ``obj`` to a JSON file."""
    Path(path).write_text(json.dumps(to_dict(obj), indent=2, sort_keys=True))


def load_json(path: Union[str, Path]) -> Any:
    """Load any self-contained object from a JSON file."""
    return from_dict(json.loads(Path(path).read_text()))
