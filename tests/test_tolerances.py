"""Tolerances and iteration caps are module constants, not parameters.

Only the public callables in KEPT take one as a parameter, each for the
reason given; a new `tol` or `max_iter` parameter anywhere else fails here.
"""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import qmeas
from qmeas.operators import Operator, ValidationError, herm_eig
from qmeas.povm import Povm, validate_povm

KEPT = {
    "operators.herm_eig": "POVM validation passes 1e-9, or 1e-8 for induced POVMs",
    "povm.Povm": "induced_povm validates at 1e-8, everything else at 1e-9",
    "povm.validate_povm": "induced_povm validates at 1e-8, everything else at 1e-9",
    "nonideality.InequalityReport": "record field: the tolerance `satisfied` applies",
    "cli.run": "the documented --tol option",
}


def _public_modules():
    for info in pkgutil.iter_modules(qmeas.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            yield info.name, importlib.import_module(f"qmeas.{info.name}")


def _public_callables():
    for mod_name, module in _public_modules():
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            yield f"{mod_name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    method = inspect.isfunction(member) or isinstance(
                        member, (classmethod, staticmethod)
                    )
                    if method and not attr.startswith("_"):
                        yield f"{mod_name}.{name}.{attr}", getattr(obj, attr)


def _has_knob(fn) -> bool:
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # exception types keep the builtin constructor
        return False
    return any("tol" in p or "max_iter" in p for p in params)


def test_only_the_kept_callables_take_a_tolerance_or_iteration_cap():
    walked = dict(_public_callables())
    assert "cli.run" in walked and "nonideality.check_martens" in walked
    assert "povm.OutcomeGrid" in walked and "states.DensityOperator" in walked
    assert {name for name, fn in walked.items() if _has_knob(fn)} == set(KEPT)


# Each kept tolerance that residuals are compared with, called on a valid input.
# Not here: `InequalityReport.tol` is a record field, and `cli.run` checks --tol itself.
TOL_CALLS = {
    "operators.herm_eig": lambda tol: herm_eig(Operator(np.eye(2)), tol=tol),
    "povm.Povm": lambda tol: Povm([Operator(np.eye(2))], tol=tol),
    "povm.validate_povm": lambda tol: validate_povm([Operator(np.eye(2))], tol=tol),
}


def test_every_compared_tolerance_is_checked_below():
    assert set(TOL_CALLS) == set(KEPT) - {"nonideality.InequalityReport", "cli.run"}


@pytest.mark.parametrize("name", sorted(TOL_CALLS))
@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_a_tolerance_must_be_finite_and_nonnegative(name, tol):
    # a NaN or infinite tol passes every residual; a negative one fails even 0.0
    TOL_CALLS[name](0.0)
    with pytest.raises(ValidationError, match=r"^tol must be finite and >= 0$"):
        TOL_CALLS[name](tol)
