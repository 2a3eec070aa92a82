"""Multi-tenant QoS: tenant specs, weighted-fair admission, SLO burn.

Production traffic is many tenants with different service levels, not a
flat pool of clients.  This module gives the serving stack a per-tenant
data plane in the spirit of PAIO's software-defined storage stages:

* :class:`TenantSpec` -- one tenant's declared contract: scheduling
  ``weight``, p99 SLO target, token-bucket ``rate_per_sec``/``burst``,
  and relative DRAM cache share;
* :func:`load_tenant_specs` -- parse and validate a spec from a JSON
  file or an inline JSON string (the ``--tenants`` CLI value);
* :class:`QosScheduler` -- weighted-fair admission over the declared
  tenants plus per-tenant SLO-burn tracking.

Scheduling model
----------------

Each tenant holds a *guaranteed share* of the global queue depth
proportional to its weight: ``share_i = weight_i / sum(weights) x
depth``.  Admission is work-conserving: while total in-flight load is
below the contention threshold (half the depth), any tenant may borrow
idle capacity beyond its share; once the threshold is crossed, each
tenant is clamped to its guarantee, so a flooding tenant's overload
drains back to its share while everyone else's guarantee stays
admittable.  A per-tenant token bucket (same mechanism as per-client
admission, :class:`~repro.service.admission.WallClockTokenBucket`)
optionally meters each tenant's aggregate request rate before the fair
share is consulted.

SLO burn is tracked against a p99 target: over a sliding window of
completed requests, the fraction that missed ``slo_ms`` is divided by
the 1% error budget -- ``slo_burn`` of 1.0 means the tenant is burning
its budget exactly as fast as it accrues; above 1.0 the SLO is being
violated.

Connections declare their tenant once, in the ``hello`` exchange (the
binary codec's closed field sets leave no room for a per-request tenant
tag, and per-connection identity is cheaper anyway).  Undeclared
connections map to the implicit :data:`DEFAULT_TENANT`, which always
exists with weight 1 and no rate limit unless the spec overrides it.
"""

import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from repro.service.admission import WallClockTokenBucket

#: Tenant every connection belongs to until its ``hello`` says otherwise.
DEFAULT_TENANT = "default"

#: Cache entries a spec gets when it declares tenants but no capacity.
DEFAULT_CACHE_CAPACITY = 4096

#: Completed requests per tenant in the sliding SLO window.
SLO_WINDOW = 512

#: Fraction of requests allowed past the SLO target (p99 => 1%).
SLO_BUDGET = 0.01


class TenantSpecError(ValueError):
    """A tenant spec failed validation (bad JSON, bad field values)."""


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's declared service contract.

    ``weight`` sets the tenant's proportional share of queue depth;
    ``slo_ms`` is the p99 latency target the burn tracker scores
    against; ``rate_per_sec`` / ``burst`` meter the tenant's aggregate
    request rate (0 disables metering); ``cache_share`` is the tenant's
    relative share of the DRAM read-cache capacity.
    """

    name: str
    weight: float = 1.0
    slo_ms: float = 100.0
    rate_per_sec: float = 0.0
    burst: float = 64.0
    cache_share: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise TenantSpecError(f"tenant name must be a non-empty string, got {self.name!r}")
        if not self.name.isprintable() or any(c.isspace() for c in self.name):
            raise TenantSpecError(f"tenant name must be printable without spaces: {self.name!r}")
        for fname, value, floor in (
            ("weight", self.weight, 0.0),
            ("slo_ms", self.slo_ms, 0.0),
            ("burst", self.burst, 0.0),
        ):
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= floor:
                raise TenantSpecError(f"tenant {self.name!r}: {fname} must be > {floor:g}, "
                                      f"got {value!r}")
        for fname, value in (("rate_per_sec", self.rate_per_sec),
                             ("cache_share", self.cache_share)):
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise TenantSpecError(f"tenant {self.name!r}: {fname} must be >= 0, "
                                      f"got {value!r}")


#: Spec-file keys accepted per tenant object (anything else is a typo).
_TENANT_KEYS = frozenset(
    ("name", "weight", "slo_ms", "rate_per_sec", "burst", "cache_share"))
_TOP_KEYS = frozenset(("tenants", "cache_capacity", "cache_segments"))


@dataclass(frozen=True)
class QosSpec:
    """A parsed ``--tenants`` spec: the tenant table plus cache sizing."""

    tenants: Dict[str, TenantSpec] = field(default_factory=dict)
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    cache_segments: int = 8


def _tenant_from_obj(obj: Any) -> TenantSpec:
    if not isinstance(obj, Mapping):
        raise TenantSpecError(f"tenant entries must be objects, got {type(obj).__name__}")
    unknown = set(obj) - _TENANT_KEYS
    if unknown:
        raise TenantSpecError(f"unknown tenant spec field(s) {sorted(unknown)}; "
                              f"allowed: {sorted(_TENANT_KEYS)}")
    if "name" not in obj:
        raise TenantSpecError("tenant entries need a 'name'")
    return TenantSpec(**dict(obj))


def load_tenant_specs(source: str) -> QosSpec:
    """Parse a tenant spec from a JSON file path or an inline JSON string.

    Two accepted shapes::

        [{"name": "gold", "weight": 3, "slo_ms": 20}, ...]
        {"tenants": [...], "cache_capacity": 8192, "cache_segments": 8}

    Returns a :class:`QosSpec`.  Raises :class:`TenantSpecError` on
    anything malformed -- unknown fields, duplicate names, non-positive
    weights -- so a bad spec fails at startup, not at request time.
    """
    text = source
    if not source.lstrip().startswith(("{", "[")):
        if not os.path.exists(source):
            raise TenantSpecError(
                f"--tenants value {source!r} is neither inline JSON nor an existing file")
        with open(source, "r") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TenantSpecError(f"tenant spec is not valid JSON: {exc}")
    cache_capacity = DEFAULT_CACHE_CAPACITY
    cache_segments = 8
    if isinstance(data, Mapping):
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise TenantSpecError(f"unknown top-level spec field(s) {sorted(unknown)}; "
                                  f"allowed: {sorted(_TOP_KEYS)}")
        entries = data.get("tenants", [])
        cache_capacity = data.get("cache_capacity", cache_capacity)
        cache_segments = data.get("cache_segments", cache_segments)
        if not isinstance(cache_capacity, int) or isinstance(cache_capacity, bool) \
                or cache_capacity < 0:
            raise TenantSpecError(f"cache_capacity must be an int >= 0, got {cache_capacity!r}")
        if not isinstance(cache_segments, int) or isinstance(cache_segments, bool) \
                or cache_segments < 1:
            raise TenantSpecError(f"cache_segments must be an int >= 1, got {cache_segments!r}")
    elif isinstance(data, list):
        entries = data
    else:
        raise TenantSpecError(f"tenant spec must be a JSON list or object, "
                              f"got {type(data).__name__}")
    if not isinstance(entries, list):
        raise TenantSpecError("'tenants' must be a list of tenant objects")
    tenants: Dict[str, TenantSpec] = {}
    for obj in entries:
        spec = _tenant_from_obj(obj)
        if spec.name in tenants:
            raise TenantSpecError(f"duplicate tenant {spec.name!r}")
        tenants[spec.name] = spec
    return QosSpec(tenants=tenants, cache_capacity=cache_capacity,
                   cache_segments=cache_segments)


class _TenantState:
    """Mutable per-tenant runtime state beside the frozen spec."""

    __slots__ = ("spec", "bucket", "inflight", "admitted", "shed_rate_limited",
                 "shed_over_share", "completed", "slo_violations", "window")

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.bucket: Optional[WallClockTokenBucket] = None
        if spec.rate_per_sec > 0:
            self.bucket = WallClockTokenBucket(spec.rate_per_sec, spec.burst)
        self.inflight = 0
        self.admitted = 0
        self.shed_rate_limited = 0
        self.shed_over_share = 0
        self.completed = 0
        self.slo_violations = 0
        self.window: deque = deque(maxlen=SLO_WINDOW)

    def slo_burn(self) -> float:
        if not self.window:
            return 0.0
        missed = sum(self.window) / len(self.window)
        return missed / SLO_BUDGET


class QosScheduler:
    """Weighted-fair tenant admission with per-tenant SLO-burn tracking.

    One scheduler fronts one service (single rack, sharded router, or
    proxy); it owns its own in-flight tally, incremented by
    :meth:`on_submit` and drained by :meth:`on_complete`, independent of
    the per-shard admission queues behind it.
    """

    def __init__(self, tenants: Union[Mapping[str, TenantSpec], Iterable[TenantSpec], None],
                 *, max_queue_depth: int = 256):
        if max_queue_depth < 1:
            raise TenantSpecError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        specs: Dict[str, TenantSpec] = {}
        if tenants:
            values = tenants.values() if isinstance(tenants, Mapping) else tenants
            for spec in values:
                specs[spec.name] = spec
        # The implicit default tenant always exists: undeclared
        # connections are first-class, just unweighted and unmetered.
        specs.setdefault(DEFAULT_TENANT, TenantSpec(DEFAULT_TENANT))
        self.max_queue_depth = max_queue_depth
        self._contention_threshold = max(1, max_queue_depth // 2)
        self._states = {name: _TenantState(spec) for name, spec in specs.items()}
        total_weight = sum(s.weight for s in specs.values())
        self._shares = {
            name: max(1.0, spec.weight / total_weight * max_queue_depth)
            for name, spec in specs.items()
        }
        self.total_inflight = 0

    # -- identity ------------------------------------------------------

    def knows(self, tenant: str) -> bool:
        return tenant in self._states

    @property
    def tenant_names(self):
        return sorted(self._states)

    def cache_shares(self) -> Dict[str, float]:
        """Per-tenant relative cache shares, for :class:`ReadCache`."""
        return {name: st.spec.cache_share for name, st in self._states.items()}

    # -- admission -----------------------------------------------------

    def try_admit(self, tenant: str, now: Optional[float] = None) -> bool:
        """Admit or shed one request for ``tenant``.

        Order matters: the rate gate runs first (a metered tenant over
        its contracted rate is shed regardless of idle capacity), then
        the fair share -- under the guarantee always admits; over it
        admits only while the scheduler as a whole is uncontended, so
        spare capacity is never wasted but contention clamps every
        tenant back to its weight.
        """
        state = self._states.get(tenant)
        if state is None:
            state = self._states[DEFAULT_TENANT]
        if state.bucket is not None and not state.bucket.try_take(now):
            state.shed_rate_limited += 1
            return False
        if (state.inflight >= self._shares[state.spec.name]
                and self.total_inflight >= self._contention_threshold):
            state.shed_over_share += 1
            return False
        state.admitted += 1
        return True

    def on_submit(self, tenant: str) -> None:
        state = self._states.get(tenant) or self._states[DEFAULT_TENANT]
        state.inflight += 1
        self.total_inflight += 1

    def on_complete(self, tenant: str, latency_ms: Optional[float],
                    ok: bool = True) -> None:
        """Drain one in-flight request and score it against the SLO.

        ``latency_ms`` of ``None`` (a timeout or error with no measured
        latency) counts as a violation -- a request the tenant never got
        an answer for is the worst kind of SLO miss.
        """
        state = self._states.get(tenant) or self._states[DEFAULT_TENANT]
        state.inflight = max(0, state.inflight - 1)
        self.total_inflight = max(0, self.total_inflight - 1)
        state.completed += 1
        missed = (not ok) or latency_ms is None or latency_ms > state.spec.slo_ms
        if missed:
            state.slo_violations += 1
        state.window.append(1 if missed else 0)

    # -- stats ---------------------------------------------------------

    def stats_section(self) -> Dict[str, Dict[str, float]]:
        """The ``tenants`` stats section: one numeric map per tenant."""
        out = {}
        for name, st in sorted(self._states.items()):
            out[name] = {
                "weight": float(st.spec.weight),
                "slo_target_ms": float(st.spec.slo_ms),
                "share": float(self._shares[name]),
                "admitted": float(st.admitted),
                "shed_rate_limited": float(st.shed_rate_limited),
                "shed_over_share": float(st.shed_over_share),
                "inflight": float(st.inflight),
                "completed": float(st.completed),
                "slo_violations": float(st.slo_violations),
                "slo_burn": float(st.slo_burn()),
            }
        return out
