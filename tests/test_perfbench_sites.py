"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps package
functions at the module attributes that ``perfbench/layers.py`` lists in
``TARGETS``, reading each from its owner's ``__dict__``; an attribute that
a module no longer defines or imports stops that run with a ``KeyError``."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_site_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for _, sites, _ in layers.TARGETS:
        for module_path, attr in sites:
            owner = importlib.import_module(module_path)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if leaf not in owner.__dict__:
                missing.append(f"{module_path}.{attr}")
    assert missing == []
