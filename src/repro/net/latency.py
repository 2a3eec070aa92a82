"""Datacenter network latency models.

The paper emulates datacenter traffic with traces and published latency
distributions: a PTPmesh study (**Fast** [67]), tenant-level latency
requirements (**Medium** [59]), and AWS tenant measurements (**Slow** [32]),
scaling the first trace to the other two regimes (§3.7).

We reproduce the three regimes parametrically: a lognormal per-hop base
latency plus on/off congestion episodes that multiply latency while active.
Congestion episodes are what make the return-path prediction interesting --
the paper notes mispredictions cluster at the begin/end of congestion.
"""

import math
import random
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigError
from repro.sim.core import MSEC

_NV_MAGICCONST = random.NV_MAGICCONST
_exp = math.exp
_log = math.log


@dataclass(frozen=True)
class NetworkProfile:
    """Parameters of one latency regime (per direction, client<->server)."""

    name: str
    #: Median one-way latency in microseconds, uncongested.
    base_us: float
    #: Lognormal shape parameter (jitter).
    sigma: float
    #: Multiplier applied while a congestion episode is active.
    congestion_factor: float
    #: Mean congestion episode duration (microseconds).
    congestion_on_us: float
    #: Mean gap between congestion episodes (microseconds).
    congestion_off_us: float
    #: Per-packet straggler tail on the *client -> storage* direction:
    #: with this probability a packet is hit by incast/retransmission-style
    #: delay regardless of congestion state.  Fan-in toward the storage
    #: servers makes the request direction the incast-prone one, and these
    #: are precisely the packets whose inflated Net_time coordinated I/O
    #: scheduling can hide behind storage queueing.
    straggler_prob: float = 0.06
    #: Straggler probability on the return direction (one flow fanning
    #: back out -- much milder).
    return_straggler_prob: float = 0.01
    #: Mean multiplier applied to a straggler packet's latency.
    straggler_factor: float = 6.0

    def __post_init__(self) -> None:
        if self.base_us <= 0:
            raise ConfigError(f"base_us must be positive, got {self.base_us}")
        if self.congestion_factor < 1.0:
            raise ConfigError("congestion_factor must be >= 1")
        if not 0.0 <= self.straggler_prob < 1.0:
            raise ConfigError("straggler_prob must be in [0,1)")
        if not 0.0 <= self.return_straggler_prob < 1.0:
            raise ConfigError("return_straggler_prob must be in [0,1)")
        if self.straggler_factor < 1.0:
            raise ConfigError("straggler_factor must be >= 1")


#: PTPmesh-style low-latency fabric [67].
FAST_NETWORK = NetworkProfile(
    name="fast", base_us=25.0, sigma=0.30,
    congestion_factor=8.0, congestion_on_us=20 * MSEC, congestion_off_us=400 * MSEC,
)

#: Mid-range tenant latency regime [59].
MEDIUM_NETWORK = NetworkProfile(
    name="medium", base_us=120.0, sigma=0.35,
    congestion_factor=6.0, congestion_on_us=40 * MSEC, congestion_off_us=400 * MSEC,
)

#: Cloud-tenant (AWS-like) latency regime [32].
SLOW_NETWORK = NetworkProfile(
    name="slow", base_us=500.0, sigma=0.40,
    congestion_factor=5.0, congestion_on_us=80 * MSEC, congestion_off_us=400 * MSEC,
)

NETWORK_PROFILES: Dict[str, NetworkProfile] = {
    profile.name: profile
    for profile in (FAST_NETWORK, MEDIUM_NETWORK, SLOW_NETWORK)
}


def profile_by_name(name: str) -> NetworkProfile:
    """Look up a built-in network regime by name."""
    try:
        return NETWORK_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(NETWORK_PROFILES))
        raise ConfigError(f"unknown network profile {name!r} (known: {known})") from None


class LatencyProcess:
    """A stateful latency sampler with congestion episodes.

    The congestion on/off schedule is precomputed lazily from exponential
    holding times, so two samplers with the same seed agree on when the
    network is congested -- and the begin/end of episodes land at
    reproducible instants.
    """

    def __init__(self, profile: NetworkProfile, rng: random.Random) -> None:
        self.profile = profile
        self._rng = rng
        self._episode_rng = random.Random(rng.getrandbits(63))
        self._mu = math.log(profile.base_us)
        # Congestion schedule: list of (start, end) windows, extended lazily.
        self._windows = []
        self._horizon = 0.0
        #: Start of the newest window, which runs to ``_horizon``, and
        #: the end of the one before it: no window covers the gap between.
        self._last_start = math.inf
        self._gap_start = -math.inf
        # Fault-injection multiplier (link degradation / partition).
        # Applied without consuming RNG draws, so a factor of 1.0 is
        # byte-identical to a run with no degradation at all.
        self.degradation = 1.0

    def set_degradation(self, factor: float) -> None:
        """Scale every subsequent sample by ``factor`` (1.0 restores)."""
        if factor < 1.0:
            raise ConfigError(f"degradation factor must be >= 1, got {factor}")
        self.degradation = factor

    def _extend_schedule(self, until: float) -> None:
        while self._horizon <= until:
            gap = self._episode_rng.expovariate(1.0 / self.profile.congestion_off_us)
            duration = self._episode_rng.expovariate(1.0 / self.profile.congestion_on_us)
            start = self._horizon + gap
            end = start + duration
            self._windows.append((start, end))
            self._gap_start = self._horizon
            self._last_start = start
            self._horizon = end

    def congested(self, now: float) -> bool:
        """Whether a congestion episode is active at simulated time ``now``."""
        if now >= self._horizon:
            self._extend_schedule(now)
        # The newest window ends at the horizon, past ``now``.
        if now >= self._last_start:
            return True
        if now >= self._gap_start:
            return False
        # ``now`` precedes the gap (a return leg samples at an earlier
        # send time): windows are ordered and sparse, so scan back.
        windows = self._windows
        for index in range(len(windows) - 2, -1, -1):
            start, end = windows[index]
            if start <= now < end:
                return True
            if end < now:
                break
        return False

    def sample(self, now: float, direction: str = "out") -> float:
        """One-way network latency for a packet sent at ``now``.

        ``direction`` selects the straggler regime: ``"out"`` (toward the
        storage servers, incast-prone) or ``"ret"`` (back to the client).
        """
        profile = self.profile
        random_ = self._rng.random
        # ``exp(rng.normalvariate(mu, sigma))`` -- what
        # ``rng.lognormvariate`` computes -- with CPython's
        # Kinderman-Monahan loop inlined: the same two draws per try and
        # the same arithmetic, so the stream and the floats are unchanged.
        while True:
            u1 = random_()
            u2 = 1.0 - random_()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -_log(u2):
                break
        draw = _exp(self._mu + z * profile.sigma)
        if self.congested(now):
            draw *= profile.congestion_factor
        prob = (
            profile.straggler_prob
            if direction == "out"
            else profile.return_straggler_prob
        )
        if prob > 0 and random_() < prob:
            # Exponentially distributed straggler magnitude around the
            # profile's mean factor.
            draw *= 1.0 + self._rng.expovariate(1.0 / profile.straggler_factor)
        return draw * self.degradation
