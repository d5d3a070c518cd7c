"""The metric catalogue in docs/observability.md and the family specs
the layers declare name the same families."""

import importlib
import pkgutil
import re
from pathlib import Path

import repro
from repro.obs.metrics import Family, Read

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


def declared_families():
    """Every family a module of the package declares: a histogram spec,
    or a read declaration's families."""
    families = {}
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__"):
            continue
        for value in vars(importlib.import_module(module.name)).values():
            specs = ([value] if isinstance(value, Family) else
                     [item.family for item in value
                      if isinstance(item, Read)]
                     if isinstance(value, tuple) else [])
            families.update((spec.name, spec) for spec in specs)
    return families


def test_catalogue_and_registry_name_the_same_families():
    declared = declared_families()
    text = DOC.read_text()
    catalogue = text[text.index("## Instrument catalogue"):
                     text.index("## Trace events and round spans")]
    # Family names; the plain attribute a family is read from follows it
    # in square brackets and is not one.
    documented = set(re.findall(r"(?<!\[)`([a-z][a-z0-9_]+)`", catalogue))
    assert set(declared) - documented == set()
    # Anything in the catalogue that looks like a family must be one.
    named = {name for name in documented
             if name.endswith("_total") or name.startswith(("cts_", "ccs_"))}
    assert named - set(declared) == set()
