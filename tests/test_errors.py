"""The exception hierarchy: every library error is a ReproError."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is errors.ReproError:
                    continue
                assert issubclass(obj, errors.ReproError), name

    def test_subsystem_grouping(self):
        assert issubclass(errors.RpcTimeout, errors.RpcError)
        assert issubclass(errors.ReconfigurationError, errors.ReplicationError)
        assert issubclass(errors.ProcessKilled, errors.SimulationError)
        assert issubclass(errors.NodeDown, errors.SimulationError)

    def test_one_except_clause_catches_everything(self):
        for cls in (errors.TotemError, errors.RpcTimeout,
                    errors.ReconfigurationError, errors.ConfigurationError):
            try:
                raise cls("x")
            except errors.ReproError:
                pass
