"""Acceptance suite: one test per quantitative criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
from helpers import child_env, random_density, random_hermitian, random_unitary

from qmeas.nonideality import check_heisenberg, check_martens, recover_nonideality
from qmeas.operators import Operator
from qmeas.povm import Povm, is_pvm, marginal
from qmeas.premeasurement import PremeasurementModel, induced_povm, pointer_consistency
from qmeas.states import (
    PAULI_X,
    PAULI_Y,
    Pvm,
    entangled_pair_state,
    polarization_pvm,
    pure_state,
    spectral_pvm,
)
from qmeas.experiments import (
    EprBellConfig,
    WhichWayConfig,
    chsh_pasted_aspect,
    chsh_single_setup,
    martens_sweep,
    whichway_povm,
)

LN2 = math.log(2.0)
J_HALF = 0.75 * math.log(3.0) - 0.5 * math.log(2.0)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL")
        raise
    print(f"criterion {number} [{label}]: PASS")


def test_criterion_1_nonideality_recovery():
    with criterion(1, "which-way nonideality recovery"):
        start = time.perf_counter()
        e, f = polarization_pvm(0.0), polarization_pvm(np.pi / 4)
        for gamma in np.linspace(0.0, 1.0, 11):
            grid = whichway_povm(WhichWayConfig(0.0, np.pi / 4, float(gamma)))
            lam = recover_nonideality(marginal(grid, "row"), Povm.from_pvm(e))
            mu = recover_nonideality(marginal(grid, "col"), Povm.from_pvm(f))
            assert np.abs(lam.lam - [[gamma, 0.0], [1.0 - gamma, 1.0]]).max() < 1e-6
            assert np.abs(mu.lam - [[1.0 - gamma, 0.0], [gamma, 1.0]]).max() < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"recovery took {elapsed:.2f} s"


def test_criterion_2_entropy_sweep_curve():
    with criterion(2, "parametric entropy curve"):
        start = time.perf_counter()
        points = martens_sweep(0.0, np.pi / 4, 101)
        elapsed = time.perf_counter() - start
        endpoints = {
            (round(points[0].j_lambda, 6), round(points[0].j_mu, 6)),
            (round(points[-1].j_lambda, 6), round(points[-1].j_mu, 6)),
        }
        assert endpoints == {(round(LN2, 6), 0.0), (0.0, round(LN2, 6))}
        assert abs(points[0].j_lambda - LN2) < 1e-6 and abs(points[0].j_mu) < 1e-6
        assert abs(points[-1].j_lambda) < 1e-6 and abs(points[-1].j_mu - LN2) < 1e-6
        for p in points[1:-1]:
            assert p.slack > 0.0, f"interior point gamma={p.gamma} touches the bound"
        mid = points[50]
        assert abs(mid.gamma - 0.5) < 1e-12
        assert abs(mid.j_lambda - J_HALF) < 1e-6
        assert abs(mid.j_mu - J_HALF) < 1e-6
        assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"


def test_criterion_3_martens_property_suite():
    with criterion(3, "entropic bound over random angles"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            theta, theta_prime = rng.uniform(0.0, 2.0 * np.pi, 2)
            e, f = polarization_pvm(theta), polarization_pvm(theta_prime)
            for gamma in np.linspace(0.0, 1.0, 101):
                grid = whichway_povm(WhichWayConfig(theta, theta_prime, float(gamma)))
                report = check_martens(grid, e, f)
                assert report.slack >= -1e-6, (theta, theta_prime, gamma, report.slack)
                assert report.satisfied
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"property suite took {elapsed:.2f} s"


def test_criterion_4_heisenberg_property_suite():
    with criterion(4, "uncertainty product"):
        rng = np.random.default_rng(4)
        for k in range(1000):
            dim = 2 + k % 3
            report = check_heisenberg(
                random_density(rng, dim), random_hermitian(rng, dim), random_hermitian(rng, dim)
            )
            assert report.slack >= -1e-9
            assert report.satisfied
        equality = check_heisenberg(pure_state([1, 0]), PAULI_X, PAULI_Y)
        assert abs(equality.slack) < 1e-9
        assert abs(equality.lhs - 1.0) < 1e-9


def test_criterion_5_pointer_statistics_identity():
    with criterion(5, "premeasurement pointer identity"):
        rng = np.random.default_rng(5)
        for k in range(500):
            dim_o, dim_a = (2, 2) if k % 2 == 0 else (2, 3)
            model = PremeasurementModel(
                random_density(rng, dim_a),
                random_unitary(rng, dim_o * dim_a),
                spectral_pvm(random_hermitian(rng, dim_a)),
                dim_o,
                dim_a,
            )
            assert pointer_consistency(random_density(rng, dim_o), model) < 1e-9
        cnot = PremeasurementModel(
            pure_state([1, 0]),
            Operator([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
            Pvm([Operator(np.diag([1.0, 0.0])), Operator(np.diag([0.0, 1.0]))], [0.0, 1.0]),
            2,
            2,
        )
        effects = induced_povm(cnot).effects
        assert np.abs(effects[0].mat - np.diag([1.0, 0.0])).max() < 1e-9
        assert np.abs(effects[1].mat - np.diag([0.0, 1.0])).max() < 1e-9


def test_criterion_6_single_setup_is_classical():
    with criterion(6, "single-setup CHSH bound"):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            rho = random_density(rng, 4)
            config = EprBellConfig(
                WhichWayConfig(*rng.uniform(0.0, 2.0 * np.pi, 2), rng.uniform(0.01, 0.99)),
                WhichWayConfig(*rng.uniform(0.0, 2.0 * np.pi, 2), rng.uniform(0.01, 0.99)),
            )
            result = chsh_single_setup(rho, config)
            assert abs(result.s_value) <= 2.0 + 1e-9
            assert not result.violates


def test_criterion_7_pasted_chsh_violation():
    with criterion(7, "pasted CHSH violation"):
        start = time.perf_counter()
        result = chsh_pasted_aspect(
            entangled_pair_state(), 0.0, np.pi / 4, np.pi / 8, 3.0 * np.pi / 8
        )
        elapsed = time.perf_counter() - start
        assert abs(result.s_value - 2.0 * math.sqrt(2.0)) < 1e-6
        assert result.violates
        assert elapsed < 1.0, f"pasted evaluation took {elapsed:.2f} s"


def test_criterion_8_standard_formalism_incompleteness():
    with criterion(8, "proper POVM beyond the standard formalism"):
        half = whichway_povm(WhichWayConfig(0.0, np.pi / 4, 0.5))
        # gamma E  !=  (gamma E)^2 as an executable assertion
        transmitted = half.effect(0, 1)
        assert np.abs(transmitted.mat @ transmitted.mat - transmitted.mat).max() > 1e-3
        assert not is_pvm(half.flatten())
        for gamma in np.linspace(0.0, 1.0, 21):
            whichway_povm(WhichWayConfig(0.0, np.pi / 4, float(gamma))).flatten()


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "byte-identical CLI runs"):
        payload = {
            "kind": "sample",
            "theta1_deg": 0,
            "theta1_prime_deg": 45,
            "theta2_deg": 22.5,
            "theta2_prime_deg": 67.5,
            "gamma1": 0.5,
            "gamma2": 0.5,
            "n_samples": 50000,
            "seed": 424242,
        }
        config = tmp_path / "sample.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        cmd = [sys.executable, "-m", "qmeas", "run", "--config", str(config), "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, check=True, env=child_env())
        second = subprocess.run(cmd, capture_output=True, check=True, env=child_env())
        assert first.stdout == second.stdout
        assert first.returncode == 0
