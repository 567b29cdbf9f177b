import importlib.util
from pathlib import Path

import pytest

import closed_forms as cf


def _derivation_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "derive_reference_values.py"
    spec = importlib.util.spec_from_file_location("derive_reference_values", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_spheroid_lap_values_are_the_sympy_derivation():
    # the extremum tests and the benchmark's extrema gate read SPHEROID_LAP;
    # every entry must be the exact value the symbolic derivation gives
    pytest.importorskip("sympy")
    derived = _derivation_script().spheroid_section()
    assert set(derived) == set(cf.SPHEROID_LAP) == {(1, 2), (2, 1)}
    for shape, sites in cf.SPHEROID_LAP.items():
        for site, values in sites.items():
            assert set(derived[shape][site]) == set(values)
            for policy, value in values.items():
                exact = derived[shape][site][policy]
                assert exact.is_rational and float(exact) == value, (shape, site, policy)
