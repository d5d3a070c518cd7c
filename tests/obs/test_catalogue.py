"""The metric catalogue in docs/observability.md and the registry name
the same families."""

import importlib
import pkgutil
import re
from pathlib import Path

import repro
from repro import obs

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


def test_catalogue_and_registry_name_the_same_families():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    text = DOC.read_text()
    catalogue = text[text.index("## Instrument catalogue"):
                     text.index("## Trace events and round spans")]
    # Family names; the plain attribute a family is read from follows it
    # in square brackets and is not one.
    documented = set(re.findall(r"(?<!\[)`([a-z][a-z0-9_]+)`", catalogue))
    registered = {metric.name for metric in obs.REGISTRY.metrics()}
    assert registered - documented == set()
    # Anything in the catalogue that looks like a family must be one.
    named = {name for name in documented
             if name.endswith("_total") or name.startswith(("cts_", "ccs_"))}
    assert {name for name in named if obs.REGISTRY.get(name) is None} == set()
