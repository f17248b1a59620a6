"""The benchmark's layer timers must find every program name they patch.

``perfbench/layers.py`` wraps program methods and functions by name, and
``benchlib.Timers.patch`` reads ``owner.__dict__[attr]``.  So a program
change that deletes or renames a patched name breaks every traced
benchmark run with a ``KeyError``, which ``python3 -m pytest perfbench``
would only report after about 90 s.  This test installs the timers and
takes them out again in under a second; it only reads ``perfbench/``.
"""

from __future__ import annotations

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench_modules(monkeypatch):
    """``(benchlib, layers)`` imported from ``perfbench/``, as its scripts
    import them, and dropped from ``sys.modules`` afterwards."""
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("benchlib", "layers"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import benchlib
    import layers

    yield benchlib, layers
    for name in ("benchlib", "layers"):
        sys.modules.pop(name, None)


def test_layer_timers_patch_and_restore_every_name(perfbench_modules):
    benchlib, layers = perfbench_modules
    from repro.rfid.reader import Reader

    timers = benchlib.Timers()
    try:
        layers.install(timers)
        patched = list(timers._patched)
        wrapped = [owner.__dict__[attr] for owner, attr, _ in patched]
    finally:
        timers.unpatch()
    assert patched
    for (owner, attr, original), wrapper in zip(patched, wrapped):
        assert wrapper.__wrapped__ is original
        assert owner.__dict__[attr] is original
    names = {(owner, attr) for owner, attr, _ in patched}
    # Kept in the program only because the benchmark still patches them.
    assert {(Reader, "collect_batch"), (Reader, "emit_lane")} <= names
