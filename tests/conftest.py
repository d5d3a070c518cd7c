"""Make the shared test helpers (``support.py``) importable everywhere,
and fail a test that leaves process-wide telemetry switched on.

This is the one sanctioned ``sys.path`` edit for the test tree: every
test module imports ``support`` (and friends) relying on this conftest
instead of repeating a per-file ``sys.path.insert``.
"""

import os
import sys

import pytest

from repro import obs, trace

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def telemetry_left_off():
    """``trace.TRACER`` and ``obs.REGISTRY`` are the process-wide trace
    state: a sink or a switch a test leaves on makes every later test in
    the process run traced.  Such a test fails, and the state is reset
    so the next one starts clean."""
    yield
    left = []
    if trace.TRACER.enabled:
        left.append("a sink on trace.TRACER")
        trace.TRACER._sinks.clear()
    if obs.REGISTRY.enabled:
        left.append("obs.REGISTRY enabled")
        obs.REGISTRY.disable()
    if left:
        pytest.fail("the test left " + " and ".join(left) + " behind")
