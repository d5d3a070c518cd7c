"""``repro.control`` — the elastic control plane.

Live group reconfiguration (:class:`~repro.control.plane.ControlPlane`:
join/drain/rolling restart without losing the primary component),
shed-before-collapse admission control at the client gateway
(:class:`~repro.control.admission.AdmissionController`), and the
scripted drivers behind ``repro control`` / CI's ``scenario-smoke``
(:mod:`repro.control.rolling`).

``rolling`` is imported lazily: it pulls in the live testbed and chaos
harness, which the gateway (an importer of :mod:`.admission`) must not
load at import time.
"""

from ..errors import ReconfigurationError
from .admission import (
    OVERLOADED,
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
    is_overloaded,
    overloaded_value,
    retry_after_of,
)
from .plane import ControlPlane

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "ControlPlane",
    "OVERLOADED",
    "ReconfigurationError",
    "is_overloaded",
    "overloaded_value",
    "retry_after_of",
    "run_rolling_restart",
    "run_reconfig_sequence",
]


def __getattr__(name):
    if name in ("run_rolling_restart", "run_reconfig_sequence"):
        from . import rolling

        return getattr(rolling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
