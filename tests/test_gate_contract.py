"""The benchmark gate must check every record column, integers exactly.

``perfbench/gate.py`` compares each benchmark record with its reference
row column by column, integer columns exactly and float columns within a
relative tolerance.  A record column it does not list goes unchecked, and
an integer column it lists as a float is checked only approximately.  The
module is read from its path and executed here; nothing under
``perfbench/`` is imported as a package or written to.
"""

from __future__ import annotations

from isohull.harness import CSV_COLUMNS, _INT_COLUMNS
from conftest import perfbench_module


def test_gate_checks_every_record_column():
    gate = perfbench_module("gate")
    assert set(gate.INT_FIELDS + gate.FLOAT_FIELDS) == set(CSV_COLUMNS)
    assert gate.INT_FIELDS == _INT_COLUMNS
