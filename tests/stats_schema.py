"""Validate a live ``stats`` payload against the documented schema
(:mod:`repro.service.schema` names the sections and their fields)."""

from typing import Mapping, Optional

from repro.errors import ReproError
from repro.metrics.histogram import LogHistogram
from repro.service.schema import (
    ADMISSION_FIELDS,
    BRIDGE_FIELDS,
    CLIENT_FIELDS,
    FIELD_CONNECTIONS,
    FIELD_ROUTING_REPLICAS,
    KVSTORE_FIELDS,
    MIGRATION_FIELDS,
    READCACHE_FIELDS,
    ROUTER_FIELDS,
    ROUTING_FIELDS,
    ROUTING_REPLICA_FIELDS,
    SECTION_ADMISSION,
    SECTION_BRIDGE,
    SECTION_CLIENT,
    SECTION_HISTOGRAMS,
    SECTION_KVSTORE,
    SECTION_METRICS,
    SECTION_MIGRATION,
    SECTION_READCACHE,
    SECTION_ROUTER,
    SECTION_ROUTING,
    SECTION_SHARDS,
    SECTION_TENANTS,
    TENANT_FIELDS,
)


class StatsSchemaError(ReproError):
    """A stats payload does not match the documented schema."""


def _require_number(payload: Mapping, section: str, field: str,
                    where: str) -> None:
    value = payload.get(field)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise StatsSchemaError(
            f"{where}: section {section!r} field {field!r} must be a "
            f"number, got {type(value).__name__}"
        )


def _validate_section(payload: Mapping, section: str, fields: tuple,
                      where: str, required: bool = True) -> None:
    body = payload.get(section)
    if body is None:
        if required:
            raise StatsSchemaError(f"{where}: missing section {section!r}")
        return
    if not isinstance(body, Mapping):
        raise StatsSchemaError(
            f"{where}: section {section!r} must be a mapping, "
            f"got {type(body).__name__}"
        )
    for field in fields:
        _require_number(body, section, field, where)


def _validate_histograms(payload: Mapping, where: str) -> None:
    """Each body of an optional ``histograms`` section must parse as a
    :meth:`LogHistogram.to_wire` form."""
    histograms = payload.get(SECTION_HISTOGRAMS)
    if histograms is None:
        return
    if not isinstance(histograms, Mapping):
        raise StatsSchemaError(
            f"{where}: section {SECTION_HISTOGRAMS!r} must be a mapping")
    for name, wire in histograms.items():
        try:
            LogHistogram.from_wire(wire, name)
        except ReproError as exc:
            raise StatsSchemaError(
                f"{where}: histogram {name!r} is not a wire form: {exc}"
            ) from exc


def validate_stats(payload: Mapping, *, client: bool = False,
                   where: str = "stats") -> None:
    """Raise :class:`StatsSchemaError` unless ``payload`` fits the schema.

    Accepts both single-rack and sharded payloads; ``client=True``
    additionally requires the ``client`` section a
    :meth:`ServiceClient.stats` response carries.
    """
    if not isinstance(payload, Mapping):
        raise StatsSchemaError(
            f"{where}: payload must be a mapping, got {type(payload).__name__}"
        )
    _validate_section(payload, SECTION_BRIDGE, BRIDGE_FIELDS, where)
    _validate_section(payload, SECTION_KVSTORE, KVSTORE_FIELDS, where)
    _validate_section(payload, SECTION_ADMISSION, ADMISSION_FIELDS, where)
    metrics = payload.get(SECTION_METRICS)
    if not isinstance(metrics, Mapping):
        raise StatsSchemaError(
            f"{where}: missing or non-mapping section "
            f"{SECTION_METRICS!r}"
        )
    _validate_histograms(payload, where)
    _require_number(payload, "<top>", FIELD_CONNECTIONS, where)
    if client:
        _validate_section(payload, SECTION_CLIENT, CLIENT_FIELDS, where)
    router = payload.get(SECTION_ROUTER)
    shards = payload.get(SECTION_SHARDS)
    if (router is None) != (shards is None):
        raise StatsSchemaError(
            f"{where}: sharded payloads carry both {SECTION_ROUTER!r} and "
            f"{SECTION_SHARDS!r}, or neither"
        )
    _validate_section(payload, SECTION_MIGRATION, MIGRATION_FIELDS, where,
                      required=False)
    _validate_section(payload, SECTION_ROUTING, ROUTING_FIELDS, where,
                      required=False)
    _validate_section(payload, SECTION_READCACHE, READCACHE_FIELDS, where,
                      required=False)
    tenants = payload.get(SECTION_TENANTS)
    if tenants is not None:
        if not isinstance(tenants, Mapping) or not tenants:
            raise StatsSchemaError(
                f"{where}: {SECTION_TENANTS!r} must be a non-empty mapping "
                f"of tenant name to counters"
            )
        for tenant, body in tenants.items():
            tenant_where = f"{where}.tenants[{tenant!r}]"
            if not isinstance(tenant, str) or not tenant:
                raise StatsSchemaError(
                    f"{tenant_where}: tenant keys are non-empty names"
                )
            if not isinstance(body, Mapping):
                raise StatsSchemaError(f"{tenant_where}: must be a mapping")
            for field in TENANT_FIELDS:
                _require_number(body, SECTION_TENANTS, field, tenant_where)
    routing = payload.get(SECTION_ROUTING)
    if routing is not None:
        replicas = routing.get(FIELD_ROUTING_REPLICAS)
        if not isinstance(replicas, Mapping):
            raise StatsSchemaError(
                f"{where}: {SECTION_ROUTING!r} must carry a "
                f"{FIELD_ROUTING_REPLICAS!r} mapping"
            )
        for node, view in replicas.items():
            node_where = f"{where}.routing.replicas[{node!r}]"
            if not str(node).isdigit():
                raise StatsSchemaError(
                    f"{node_where}: replica keys are decimal rack indices"
                )
            if not isinstance(view, Mapping):
                raise StatsSchemaError(f"{node_where}: must be a mapping")
            for field in ROUTING_REPLICA_FIELDS:
                _require_number(view, SECTION_ROUTING, field, node_where)
    if router is not None:
        _validate_section(payload, SECTION_ROUTER, ROUTER_FIELDS, where)
        if not isinstance(shards, Mapping) or not shards:
            raise StatsSchemaError(
                f"{where}: {SECTION_SHARDS!r} must be a non-empty mapping"
            )
        for shard_id, section in shards.items():
            shard_where = f"{where}.shards[{shard_id!r}]"
            if not str(shard_id).isdigit():
                raise StatsSchemaError(
                    f"{shard_where}: shard keys are decimal rack indices"
                )
            if not isinstance(section, Mapping):
                raise StatsSchemaError(
                    f"{shard_where}: must be a mapping"
                )
            _validate_section(section, SECTION_BRIDGE, BRIDGE_FIELDS,
                              shard_where)
            _validate_section(section, SECTION_KVSTORE, KVSTORE_FIELDS,
                              shard_where)
            _validate_section(section, SECTION_ADMISSION, ADMISSION_FIELDS,
                              shard_where)
            if not isinstance(section.get(SECTION_METRICS), Mapping):
                raise StatsSchemaError(
                    f"{shard_where}: missing section {SECTION_METRICS!r}"
                )
            _validate_histograms(section, shard_where)


def is_sharded(payload: Mapping) -> bool:
    """True when a validated payload came from a sharded front-end."""
    return SECTION_ROUTER in payload


def shard_ids(payload: Mapping) -> "list[int]":
    """The rack indices a sharded payload reports, sorted."""
    shards: Optional[Mapping] = payload.get(SECTION_SHARDS)
    if not shards:
        return []
    return sorted(int(k) for k in shards.keys())
