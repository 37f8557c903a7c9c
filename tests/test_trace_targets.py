"""Every span of the end-to-end tracer still has a method to wrap.

``benchmarks.e2e.trace`` patches program methods by ``module.qualname``
and only reports a vanished target as ``trace.missing_wraps`` at run
time, so a rename or deletion in ``src/repro`` would silently blind a
layer.  This resolves every target the same way the tracer's patcher does
(the attribute must be defined on its owner itself), without patching.
"""

import importlib

from benchmarks.e2e.trace import WRAPS


def _resolves(module_name: str, qualname: str) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return owner is not None and vars(owner).get(attr) is not None


def test_every_span_has_a_target():
    found = {}
    for wrap in WRAPS:
        found[wrap.name] = found.get(wrap.name, False) or _resolves(
            wrap.module, wrap.qualname
        )
    assert found
    assert [name for name, ok in found.items() if not ok] == []
