"""Idle-time prediction for background GC (§3.5.1).

RackBlox predicts the next idle interval of a vSSD from the last interval
between I/O requests using exponential smoothing::

    T_i^predict = alpha * T_{i-1}^real + (1 - alpha) * T_{i-1}^predict

with ``alpha = 0.5`` by default.  When the prediction exceeds a threshold
(30 ms by default) the server runs background GC, notifying the switch
without waiting for approval.
"""

from repro.errors import ConfigError
from repro.sim.core import MSEC

DEFAULT_ALPHA = 0.5
DEFAULT_THRESHOLD_US = 30 * MSEC


class IdlePredictor:
    """Exponentially smoothed inter-request interval predictor."""

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        threshold_us: float = DEFAULT_THRESHOLD_US,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0,1], got {alpha}")
        if threshold_us <= 0:
            raise ConfigError(f"threshold must be positive, got {threshold_us}")
        self.alpha = alpha
        self.threshold_us = threshold_us
        self._last_request_at: float = 0.0
        self._predicted: float = 0.0
        self._seen_any = False

    def record_request(self, now: float) -> None:
        """Note a request arrival; updates the smoothed interval."""
        if self._seen_any:
            real_interval = now - self._last_request_at
            self._predicted = (
                self.alpha * real_interval + (1.0 - self.alpha) * self._predicted
            )
        self._last_request_at = now
        self._seen_any = True

    def should_background_gc(self) -> bool:
        """True when the predicted idle interval exceeds the threshold."""
        return self._seen_any and self._predicted > self.threshold_us
