"""The benchmark's tracer wraps names in ``isohull.harness``; they must stay.

``perfbench/tracing.py`` replaces each name in its ``TRACED`` dict with a
span-recording wrapper, so a harness global that is renamed, removed or no
longer called on the trial path breaks ``perfbench/run.py --trace 1``.  The
module is read from its path and executed here; nothing under ``perfbench/``
is imported as a package or written to.
"""

from __future__ import annotations

from isohull import harness
from conftest import perfbench_module


def traced_names() -> dict[str, str]:
    return perfbench_module("tracing").TRACED


def test_every_traced_name_is_a_callable_harness_global():
    for name in traced_names():
        assert callable(vars(harness).get(name)), name


def test_every_traced_name_is_called(monkeypatch, tmp_path):
    calls = dict.fromkeys(traced_names(), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    record = harness.run_trial(3, 6, harness.derive_seed(424242, [3, 6, 0]))
    harness.summarize_records([record.canonical()])
    harness.emit_records([record.canonical()], tmp_path)
    assert {name for name, count in calls.items() if count == 0} == set()
