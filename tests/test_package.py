"""The package's public namespace."""

from types import ModuleType

import locclab


def test_all_names_resolve_and_hold_no_module():
    assert {"KrausInstrument", "MEASURE_PURE", "random_scenario", "distillation_report"} <= set(locclab.__all__)
    for name in locclab.__all__:
        assert not isinstance(getattr(locclab, name), ModuleType), name
