"""Load-aware replica read routing: power-of-two-choices placement.

The hash router places every read at the ring owner, so one hot or
GC-stalled replica drags fleet p99 even while its peer idles -- the
inter-server imbalance RackSched schedules around at the ToR switch.
This module is the serving-layer version of that scheduler: a
:class:`ReplicaSelector` that, per read, looks at the key's preference
list and picks the cheaper of the first two **live** replicas, where
cost is

    ``(outstanding_depth + 1) * ewma_service_us  (+ penalty)``

-- tracked queue depth times an EWMA of observed per-shard service
latency, the same two signals the switch's INT view exports (stage
latency) and the admission controller already counts (queue depth).
The ``+ 1`` makes an idle replica cost one service time, not zero, so
latency still discriminates between two empty queues.

The selector is deliberately conservative: whenever its information is
not trustworthy it degrades to **strict hash order** (the exact replica
the plain router would have picked) rather than guessing --

* the policy is ``"hash"`` (disabled; the router never even calls it),
* fewer than two live candidates remain after dropping dead or
  epoch-retired replicas,
* a top-two candidate is draining/joining (membership changes own those
  racks; diverting onto -- or away from -- a migrating rack mid-window
  would fight the epoch fence),
* a top-two candidate's stats are stale (older than ``stale_after_s``
  -- the switch-view sync has stopped refreshing it).

Every decision is recorded as a :class:`Decision` and handed to an
attached ``trace`` (anything with ``record(decision)``), so it is
replayable: the tests script a load-view timeline and assert exactly
which replica each read chose *and why*.  Load-dependent routing is
nondeterministic in production; against a scripted view it is a pure
function.
"""

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: Valid ``--read-policy`` values.
POLICY_HASH = "hash"
POLICY_P2C = "p2c"
READ_POLICIES = (POLICY_HASH, POLICY_P2C)

#: Stats older than this (wall seconds) are untrustworthy: the
#: switch-view sync loop runs every ~5 ms, so a quarter second of
#: silence means the feed is down, not just between beats.
DEFAULT_STALE_AFTER_S = 0.25

#: EWMA smoothing for observed service latency -- matches the INT
#: flow-telemetry alpha (:class:`repro.switch.telemetry.FlowStats`).
DEFAULT_EWMA_ALPHA = 0.2

#: Decision reasons (the ``why`` of every routing choice).
REASON_P2C = "p2c"                  # scored pick over two live replicas
REASON_POLICY_HASH = "policy-hash"  # policy disabled: strict hash order
REASON_SINGLE = "single"            # < 2 live candidates: nothing to race
REASON_NO_LIVE = "no-live"          # no live candidate: hash-first anyway
REASON_MIGRATING = "migrating"      # top-2 touches a joining/draining rack
REASON_STALE = "stale"              # top-2 stats too old to trust


@dataclass(frozen=True)
class ReplicaStats:
    """One replica's load signals as the selector sees them."""

    depth: float = 0.0      #: outstanding requests right now
    ewma_us: float = 0.0    #: EWMA of observed service latency (0 = none)
    age_s: float = 0.0      #: wall seconds since the stats were refreshed
    live: bool = True       #: registered, reachable, serving
    draining: bool = False  #: mid-drain: still authoritative, not a target


@dataclass(frozen=True)
class Decision:
    """One routing decision: what was considered, what won, and why."""

    seq: int
    key: str
    candidates: Tuple[int, ...]
    chosen: int
    reason: str
    epoch: int = 0
    #: ``(node, cost)`` per scored candidate; empty unless ``reason`` is
    #: :data:`REASON_P2C`.
    scores: Tuple[Tuple[int, float], ...] = ()

    @property
    def diverted(self) -> bool:
        """True when the pick differs from strict hash order."""
        return bool(self.candidates) and self.chosen != self.candidates[0]


class ReplicaSelector:
    """Power-of-two-choices over a preference list, with honest fallbacks.

    ``view`` is anything with ``replica(node) -> ReplicaStats`` -- a
    scripted view in tests, the router/proxy live views in production.
    ``candidates`` passed to :meth:`choose` must already be in strict
    hash (preference) order; every fallback resolves to
    ``candidates`` order restricted to live replicas, so hash mode and
    p2c-that-degraded route identically.
    """

    def __init__(self, view, *, policy: str = POLICY_P2C,
                 stale_after_s: float = DEFAULT_STALE_AFTER_S,
                 trace=None) -> None:
        if policy not in READ_POLICIES:
            raise ConfigError(
                f"read policy must be one of {READ_POLICIES}, got {policy!r}"
            )
        if stale_after_s <= 0:
            raise ConfigError(
                f"stale_after_s must be > 0, got {stale_after_s}"
            )
        self.view = view
        self.policy = policy
        self.stale_after_s = float(stale_after_s)
        self.trace = trace
        self.counters: Dict[str, int] = {
            "decisions": 0,
            "p2c_picks": 0,
            "p2c_diverted": 0,
            "fallbacks": 0,
            "stale_fallbacks": 0,
            "migrating_fallbacks": 0,
            "single_candidate": 0,
            "no_live_fallbacks": 0,
            "dead_skips": 0,
        }

    # --------------------------------------------------------------- choice

    def choose(self, key: str, candidates: Sequence[int], *,
               migrating_node: Optional[int] = None, epoch: int = 0,
               penalties: Optional[Mapping[int, float]] = None) -> Decision:
        """Pick a replica for ``key`` from hash-ordered ``candidates``.

        ``migrating_node`` is the rack a live membership change owns
        right now (joining or draining); ``penalties`` adds cost to a
        candidate's score (the router feeds its GC view through here so
        a both-copies-collecting rack loses ties it would otherwise
        win).  Never raises on bad load data -- an unroutable key is the
        router's problem; this layer only ever narrows *which* replica.
        """
        candidates = tuple(int(c) for c in candidates)
        if not candidates:
            raise ConfigError("choose() needs at least one candidate")
        seq = self.counters["decisions"]
        self.counters["decisions"] += 1
        decision = self._decide(seq, str(key), candidates, migrating_node,
                                int(epoch), penalties or {})
        self._count(decision)
        if self.trace is not None:
            self.trace.record(decision)
        return decision

    def _decide(self, seq: int, key: str, candidates: Tuple[int, ...],
                migrating_node: Optional[int], epoch: int,
                penalties: Mapping[int, float]) -> Decision:
        if self.policy == POLICY_HASH:
            return Decision(seq, key, candidates, candidates[0],
                            REASON_POLICY_HASH, epoch)
        stats = {node: self.view.replica(node) for node in candidates}
        live = [node for node in candidates if stats[node].live]
        self.counters["dead_skips"] += len(candidates) - len(live)
        if not live:
            # Nothing is known-live; send to the hash owner and let the
            # request fail (or succeed -- the view may just be blind)
            # exactly where it would have without a selector.
            return Decision(seq, key, candidates, candidates[0],
                            REASON_NO_LIVE, epoch)
        first, contenders = live[0], live[:2]
        if len(live) < 2:
            return Decision(seq, key, candidates, first,
                            REASON_SINGLE, epoch)
        if any(node == migrating_node or stats[node].draining
               for node in contenders):
            return Decision(seq, key, candidates, first,
                            REASON_MIGRATING, epoch)
        if any(stats[node].age_s > self.stale_after_s
               or stats[node].ewma_us <= 0.0
               for node in contenders):
            return Decision(seq, key, candidates, first,
                            REASON_STALE, epoch)
        scores = tuple(
            (node,
             (stats[node].depth + 1.0) * stats[node].ewma_us
             + float(penalties.get(node, 0.0)))
            for node in contenders
        )
        # min() is stable: a tie goes to the earlier (hash-first) node.
        chosen = min(scores, key=lambda pair: pair[1])[0]
        return Decision(seq, key, candidates, chosen, REASON_P2C, epoch,
                        scores)

    def _count(self, decision: Decision) -> None:
        if decision.reason == REASON_P2C:
            self.counters["p2c_picks"] += 1
            if decision.diverted:
                self.counters["p2c_diverted"] += 1
            return
        if decision.reason == REASON_POLICY_HASH:
            return
        self.counters["fallbacks"] += 1
        if decision.reason == REASON_STALE:
            self.counters["stale_fallbacks"] += 1
        elif decision.reason == REASON_MIGRATING:
            self.counters["migrating_fallbacks"] += 1
        elif decision.reason == REASON_SINGLE:
            self.counters["single_candidate"] += 1
        elif decision.reason == REASON_NO_LIVE:
            self.counters["no_live_fallbacks"] += 1

    # ------------------------------------------------------------ reporting

    def stats_section(self) -> Dict[str, float]:
        """The scalar half of the ``routing`` stats section."""
        out: Dict[str, float] = {
            name: float(value) for name, value in self.counters.items()
        }
        out["policy_p2c"] = 1.0 if self.policy == POLICY_P2C else 0.0
        return out
