"""Live serving layer: the rack (or a sharded fleet of racks) as a
network service.

The batch experiment engine drives a :class:`~repro.cluster.rack.Rack`
from scripts; this package puts the same rack behind an asyncio TCP
front-end so real clients can issue raw vSSD I/O and key-value
GET/PUT/SCAN over a small length-prefixed JSON wire protocol:

* :mod:`repro.service.protocol` -- framing, versioning (``hello``), the
  request/response schema, and the negotiated v2 binary codec for the
  hot ops (JSON stays the fallback and the handshake wire);
* :mod:`repro.service.schema` -- the one documented shape every
  ``stats`` payload follows;
* :mod:`repro.service.bridge` -- the sim-time bridge that injects live
  requests into the discrete-event simulator and completes asyncio
  futures when the simulated request finishes;
* :mod:`repro.service.admission` -- per-client token buckets and the
  global queue-depth cap (``BUSY`` shedding instead of unbounded queues);
* :mod:`repro.service.server` -- the TCP service with graceful drain;
* :mod:`repro.service.shard` / :mod:`repro.service.router` -- the
  consistent-hash ring and the multi-rack front-ends built on it;
* :mod:`repro.service.selector` -- load-aware replica read routing
  (power-of-two-choices) plus its deterministic test harness;
* :mod:`repro.service.membership` / :mod:`repro.service.migration` --
  the elastic-fleet control plane: online rack add/drain with live key
  migration behind an epoch-stamped ring;
* :mod:`repro.service.qos` / :mod:`repro.service.readcache` -- the
  multi-tenant layer: declared tenant specs, the weighted-fair QoS
  scheduler with SLO-burn tracking, and the sharded DRAM read-through
  cache with per-tenant capacity shares;
* :mod:`repro.service.client` -- a pipelined async client;
* :mod:`repro.service.loadgen` -- open/closed-loop load generation.

The package re-exports nothing, so a run loads only the modules it
imports: import from the defining module, or the public names from
:mod:`repro.api`.
"""
