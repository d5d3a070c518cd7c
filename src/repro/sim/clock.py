"""Simulated physical hardware clocks.

Substitutes for the testbed's real `gettimeofday()` sources.  Each node
owns one :class:`HardwareClock` characterised by

* an initial *epoch offset* (clocks are unsynchronized at start-up),
* a constant *drift rate* in parts-per-million (quartz oscillators drift
  on the order of 1-100 ppm), and
* a read *granularity* in microseconds.

Clock readings are :class:`ClockValue` objects — integer microseconds —
to mirror ``struct timeval`` ("the current time in two CORBA longs") and
to keep protocol state free of float-comparison hazards.

The fail-stop clock assumption from the paper (Section 2) is modelled at
the node level: a crashed node's clock can no longer be read, and a
non-faulty clock never returns a wrong value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..errors import ConfigurationError
from .kernel import Simulator

#: Microseconds per second, the conversion constant used throughout.
US_PER_SEC = 1_000_000


@dataclass(frozen=True, order=True)
class ClockValue:
    """An absolute clock reading in integer microseconds.

    Supports the arithmetic the protocols need: differences between
    readings yield plain ``int`` microseconds; adding/subtracting an
    ``int`` offset yields a new :class:`ClockValue`.
    """

    micros: int

    def __post_init__(self) -> None:
        if not isinstance(self.micros, int):
            raise TypeError(f"ClockValue requires int microseconds, got {self.micros!r}")

    # -- timeval-style accessors ----------------------------------------

    @property
    def seconds(self) -> int:
        """The seconds component (``tv_sec``)."""
        return self.micros // US_PER_SEC

    @property
    def microseconds(self) -> int:
        """The sub-second component (``tv_usec``)."""
        return self.micros % US_PER_SEC

    # -- arithmetic -------------------------------------------------------

    def __add__(self, offset: int) -> "ClockValue":
        if not isinstance(offset, int):
            return NotImplemented
        return ClockValue(self.micros + offset)

    __radd__ = __add__

    def __sub__(self, other: Union["ClockValue", int]) -> Union["ClockValue", int]:
        if isinstance(other, ClockValue):
            return self.micros - other.micros
        if isinstance(other, int):
            return ClockValue(self.micros - other)
        return NotImplemented

    def __int__(self) -> int:
        return self.micros

    def __repr__(self) -> str:
        return f"ClockValue({self.seconds}.{self.microseconds:06d})"


class HardwareClock:
    """A drifting, unsynchronized physical clock attached to one node.

    ``reading(t) = epoch + t * (1 + drift_ppm * 1e-6)`` quantized to the
    clock granularity, where ``t`` is simulated real time in seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        epoch_us: int = 0,
        drift_ppm: float = 0.0,
        granularity_us: int = 1,
        name: str = "",
    ):
        if granularity_us < 1:
            raise ConfigurationError(f"granularity must be >= 1 us, got {granularity_us}")
        if drift_ppm <= -US_PER_SEC:
            raise ConfigurationError("drift must keep the clock rate positive")
        self.sim = sim
        self.name = name
        self.epoch_us = int(epoch_us)
        self.drift_ppm = float(drift_ppm)
        self.granularity_us = int(granularity_us)
        #: Cumulative step adjustments (used by clock-discipline baselines
        #: such as the NTP-style service; the consistent time service never
        #: touches the hardware clock).
        self.step_us = 0
        self._last_raw: int = -(2**63)

    # -- reading ----------------------------------------------------------

    def raw_us(self) -> int:
        """The undisciplined reading in microseconds (no step adjustments).

        Monotonically non-decreasing by construction (the drift factor is
        strictly positive).
        """
        elapsed_us = self.sim.now * US_PER_SEC
        raw = self.epoch_us + int(elapsed_us * (1.0 + self.drift_ppm * 1e-6))
        raw -= raw % self.granularity_us
        # Defensive: rounding must never make the clock run backwards.
        if raw < self._last_raw:
            raw = self._last_raw
        self._last_raw = raw
        return raw

    def read_us(self) -> int:
        """The disciplined reading (hardware + step adjustments).

        Step adjustments can move the reading backwards — exactly the
        hazard motivating the paper (Section 1).
        """
        return self.raw_us() + self.step_us

    def read(self) -> ClockValue:
        """The disciplined reading as a :class:`ClockValue`."""
        return ClockValue(self.read_us())

    # -- discipline (baselines only) ---------------------------------------

    def step(self, delta_us: int) -> None:
        """Apply a step adjustment of ``delta_us`` microseconds.

        Negative deltas roll the disciplined clock back; this is allowed
        because real OS clock disciplines (e.g. ``settimeofday``) allow it,
        and the baselines need to exhibit that behaviour.
        """
        self.step_us += int(delta_us)

    # -- introspection -------------------------------------------------------

    def true_offset_us(self) -> int:
        """Current offset of the disciplined clock from simulated real
        time, in microseconds (measurement/reporting only — the protocols
        never read this)."""
        return self.read_us() - int(self.sim.now * US_PER_SEC)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HardwareClock({self.name!r}, epoch_us={self.epoch_us}, "
            f"drift_ppm={self.drift_ppm}, granularity_us={self.granularity_us})"
        )
