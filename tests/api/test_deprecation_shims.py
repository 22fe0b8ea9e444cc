"""The scheduler classes live under ``repro.core``, not the root.

Direct construction predates the unified solver API; the classes stay
first-class, warning-free citizens at their canonical homes, and the
package root no longer re-exports them.
"""

from __future__ import annotations

import pytest

import repro


def test_canonical_homes_do_not_warn(recwarn):
    from repro.core.baselines import PowerConstrainedScheduler  # noqa: F401
    from repro.core.scheduler import ThermalAwareScheduler  # noqa: F401

    assert not [w for w in recwarn if w.category is DeprecationWarning]


def test_unknown_root_attribute_still_raises():
    with pytest.raises(AttributeError):
        repro.definitely_not_an_export


def test_reduced_fast_path_names_are_first_class(recwarn):
    """The simulator's fast-path names are canonical, not shims.

    They live at the package root *and* under ``repro.thermal`` with no
    DeprecationWarning on access, and both spellings resolve to the
    same objects, so the two homes cannot drift as the API grows.
    """
    import repro.thermal

    assert repro.BlockTemperatureField is repro.thermal.BlockTemperatureField
    assert repro.ReducedSteadyOperator is repro.thermal.ReducedSteadyOperator
    assert "BlockTemperatureField" in repro.__all__
    assert "ReducedSteadyOperator" in repro.__all__
    for name in (
        "block_steady_state",
        "block_steady_state_batch",
        "reduced_operator",
    ):
        assert hasattr(repro.ThermalSimulator, name)
    assert not [w for w in recwarn if w.category is DeprecationWarning]
