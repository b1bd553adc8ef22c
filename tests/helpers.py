"""Shared random-object generators, model patches and the child-process
environment for the test suite."""

import os
from pathlib import Path

import numpy as np

from qmeas import premeasurement
from qmeas.operators import Operator, exp_hermitian_generator
from qmeas.states import DensityOperator


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """This environment with `src` first on PYTHONPATH, so that a child
    interpreter imports this checkout's qmeas even when it is not installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator(0.5 * (g + g.conj().T))


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(Operator(m / np.trace(m).real))


def random_unitary(rng, dim):
    return exp_hermitian_generator(random_hermitian(rng, dim), 1.0)


def partial_trace_first(m, dim_first, dim_second):
    """Reference partial trace over the first tensor factor of an Operator."""
    blocks = m.mat.reshape(dim_first, dim_second, dim_first, dim_second)
    return Operator(np.einsum("ikil->kl", blocks))


def halve_induced_effects(monkeypatch):
    """Make every premeasurement model built from now on induce its effects halved."""
    lifted_effects = premeasurement._lifted_effects

    def halved(model):
        lifted, effects = lifted_effects(model)
        return lifted, effects / 2

    monkeypatch.setattr(premeasurement, "_lifted_effects", halved)
