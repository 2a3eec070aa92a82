"""The return-path latency predictor (§3.4).

``Predict_time`` estimates how long the response will take to travel from
the storage server back to the client.  The paper uses a sliding window of
the average network latency of the **100 most recent incoming packets**,
per vSSD, with **separate windows for reads and writes** (their outgoing
packet sizes differ).
"""

from collections import deque
from typing import Deque, Dict, Tuple

from repro.errors import ConfigError

#: The paper's window: small enough to react to congestion onset, large
#: enough to smooth outliers.
DEFAULT_WINDOW = 100


class ReturnLatencyPredictor:
    """Per-(vSSD, op-kind) sliding-window mean of incoming network latency."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        self.window = window
        self._windows: Dict[Tuple[int, str], Deque[float]] = {}
        self._sums: Dict[Tuple[int, str], float] = {}

    def _key(self, vssd_id: int, kind: str) -> Tuple[int, str]:
        if kind not in ("read", "write"):
            raise ConfigError(f"kind must be 'read' or 'write', got {kind!r}")
        return (vssd_id, kind)

    def observe(self, vssd_id: int, kind: str, net_latency_us: float) -> None:
        """Record the measured network latency of an incoming packet."""
        # Only a valid ``kind`` ever gets a window, so ``kind`` is checked
        # when the window is missing, not on every packet.
        key = (vssd_id, kind)
        window = self._windows.get(key)
        if window is None:
            self._key(vssd_id, kind)
            window = deque(maxlen=self.window)
            self._windows[key] = window
            self._sums[key] = 0.0
        total = self._sums[key]
        if len(window) == self.window:
            total -= window[0]
        window.append(net_latency_us)
        self._sums[key] = total + net_latency_us

    def predict(self, vssd_id: int, kind: str) -> float:
        """Predicted return latency; 0 before any observation."""
        key = (vssd_id, kind)
        window = self._windows.get(key)
        if not window:
            self._key(vssd_id, kind)
            return 0.0
        return self._sums[key] / len(window)

    def window_fill(self, vssd_id: int, kind: str) -> int:
        """How many observations the window currently holds."""
        window = self._windows.get(self._key(vssd_id, kind))
        return len(window) if window is not None else 0
