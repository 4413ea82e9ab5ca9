from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _resolve(name: str):
    mod_name, *path = name.split(".")
    target = importlib.import_module(f"vsl.{mod_name}")
    for attr in path:  # a method resolves through its class
        target = getattr(target, attr, None)
    return target


def test_traced_names_resolve_on_vsl_modules():
    # the benchmark's `--trace 1` wraps these by name; a rename in src/
    # would make it fail with AttributeError when it installs its wrappers
    names = spans.TRACED + spans.CERTIFY_AUDIT
    missing = [name for name in names if not callable(_resolve(name))]
    assert missing == []
