"""A `Pvm` is the one-axis outcome grid `Povm` whose effects are orthogonal
projectors: every reader of a POVM takes it as it is, with the same bytes as
its re-validated copy `Povm.from_pvm(pvm)`, and it keeps the repr, labels and
stack it had before it was a `Povm`."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from helpers import random_density, random_hermitian, random_unitary

from qmeas.cli import parse_config
from qmeas.nonideality import recover_nonideality
from qmeas.operators import Operator
from qmeas.povm import Povm, distribution, is_pvm
from qmeas.states import Pvm, polarization_pvm, spectral_pvm

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _pvms() -> list:
    """(name, Pvm): polarization PVMs, seeded spectral PVMs at d = 2..4 (and a
    degenerate one), and the pointer PVM the CLI builds from a shipped config."""
    rng = np.random.default_rng(25)
    pvms = [(f"polarization({t})", polarization_pvm(t)) for t in (0.0, 0.3, -1.1, 2.5)]
    pvms += [(f"spectral-d{d}", spectral_pvm(random_hermitian(rng, d))) for d in (2, 3, 4)]
    pvms.append(("spectral-degenerate", spectral_pvm(Operator(np.diag([1.0, 1.0, 2.0, 3.0])))))
    config = parse_config((CONFIGS / "premeasure_cnot.json").read_text(encoding="utf-8"))
    pvms.append(("cli-pointer", config.params.model.pointer))
    return pvms


PVMS = _pvms()
each_pvm = pytest.mark.parametrize("pvm", [p for _, p in PVMS], ids=[n for n, _ in PVMS])


def _smeared(pvm: Pvm, seed: int) -> Povm:
    """A POVM at the PVM's dimension whose effects mix its projectors by a
    seeded column-stochastic matrix, so that it is a nonideal version of it."""
    lam = np.random.default_rng(seed).random((3, len(pvm)))
    return Povm(np.einsum("mn,nij->mij", lam / lam.sum(axis=0), pvm.grid))


def test_a_pvm_is_a_povm_with_no_members_of_its_own_for_dim_len_or_repr():
    assert issubclass(Pvm, Povm)
    assert not {"dim", "__len__", "__repr__"} & set(vars(Pvm))


@each_pvm
def test_distribution_of_a_pvm_equals_that_of_its_povm_copy(pvm):
    rng = np.random.default_rng(3)
    copy = Povm.from_pvm(pvm)
    for _ in range(4):
        rho = random_density(rng, pvm.dim)
        assert distribution(rho, pvm).probabilities.tobytes() == (
            distribution(rho, copy).probabilities.tobytes()
        )


def test_from_pvm_gives_a_povm_when_called_through_pvm():
    pvm = polarization_pvm(0.3)
    copy = Pvm.from_pvm(pvm)
    assert type(copy) is Povm
    assert copy.grid.tobytes() == pvm.grid.tobytes() and copy.outcome_labels == ("1", "-1")


@each_pvm
def test_is_pvm_accepts_a_pvm(pvm):
    assert is_pvm(pvm)


@each_pvm
def test_recovery_against_a_pvm_equals_recovery_against_its_povm_copy(pvm):
    copy = Povm.from_pvm(pvm)
    for seed in range(3):
        m = _smeared(pvm, seed)
        direct, via_copy = recover_nonideality(m, pvm), recover_nonideality(m, copy)
        assert direct.lam.tobytes() == via_copy.lam.tobytes()
        assert direct.residual == via_copy.residual


@each_pvm
def test_pvm_outcome_labels_are_its_eigenvalues_as_g_strings(pvm):
    assert pvm.stack is pvm.grid
    assert pvm.outcome_labels == tuple(f"{x:g}" for x in pvm.labels)


@each_pvm
def test_pvm_stack_stays_read_only_and_labels_stay_floats(pvm):
    assert not pvm.stack.flags.writeable
    with pytest.raises(ValueError):
        pvm.stack[0, 0, 0] = 0.0
    assert all(type(x) is float for x in pvm.labels)


def _fingerprint(pvms) -> str:
    """sha256 over each PVM's repr, dim, len, float labels, stack, projectors
    and the grid and outcome labels of its `Povm.from_pvm` copy."""
    h = hashlib.sha256()
    for _, pvm in pvms:
        copy = Povm.from_pvm(pvm)
        fields = (repr(pvm), pvm.dim, len(pvm), [x.hex() for x in pvm.labels], copy.outcome_labels)
        h.update(repr(fields).encode())
        for a in (pvm.stack, *(p.mat for p in pvm.projectors), copy.grid):
            h.update(a.tobytes())
    return h.hexdigest()


def test_pvms_keep_the_bits_they_had_as_a_class_of_their_own():
    # recorded before `Pvm` subclassed `Povm`
    assert _fingerprint(PVMS) == "8b5583c93dc55933b8d61079290ccdcce1dec2300aca9ea432b62987416414e5"


def test_derived_pvms_make_no_call_to_the_pvm_constructor(monkeypatch):
    # polarization and spectral PVMs are PVMs by construction: they build through `_derived`
    calls = []
    init = Pvm.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Pvm, "__init__", counted)
    polarization_pvm(0.3)
    spectral_pvm(random_hermitian(np.random.default_rng(27), 4))
    spectral_pvm(Operator(np.diag([1.0, 1.0, 2.0])))
    assert calls == []
    Pvm([Operator(np.eye(2))], [0])  # the wrapper counts a checked PVM
    assert len(calls) == 1


def _derived_pvms():
    """(name, derived PVM): polarization PVMs at small and huge angles, and the
    spectral PVMs of seeded Hermitian operators of d = 2..16 at scales 1e-8..1e12,
    half of them with degenerate spectra (eigenvalues repeated in a random basis)."""
    angles = (0.0, np.pi / 4, 2.0**27, -3e12, 1e15)
    pvms = [(f"polarization({t!r})", polarization_pvm(t)) for t in angles]
    rng = np.random.default_rng(2027)
    for d in range(2, 17):
        for scale in (1e-8, 1e-2, 1e4, 1e12):
            if rng.random() < 0.5:
                a = random_hermitian(rng, d).mat
                kind = "random"
            else:
                u = random_unitary(rng, d).mat
                values = rng.integers(-2, 3, size=d).astype(float)  # repeats for d > 5
                a = (u * values) @ u.conj().T
                a = 0.5 * (a + a.conj().T)  # exactly Hermitian, so that scaling keeps it so
                kind = "degenerate"
            pvms.append((f"spectral-{kind}-d{d}-{scale:g}", spectral_pvm(Operator(scale * a))))
    return pvms


DERIVED = _derived_pvms()


@pytest.mark.parametrize("pvm", [p for _, p in DERIVED], ids=[n for n, _ in DERIVED])
def test_every_derived_pvm_passes_the_full_pvm_check_unchanged(pvm):
    # keeps "a PVM by construction" checked rather than assumed
    checked = Pvm([Operator(p) for p in pvm.grid], pvm.labels)
    assert type(pvm) is Pvm and not pvm.grid.flags.writeable
    assert checked.grid.tobytes() == pvm.grid.tobytes()
    assert checked.labels == pvm.labels and checked.outcome_labels == pvm.outcome_labels
