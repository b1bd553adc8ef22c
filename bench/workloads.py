"""Seeded inputs, item runners and output oracles for the four workloads.

Inputs are made from the workload seed with numpy alone; qmeas receives only
the generated inputs.  Every item's output is checked against an oracle that
does not come from the code under test: closed forms, numpy's LAPACK
eigensolver, or CLI output digests recorded before any optimisation.
"""

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS_PATH = BENCH_DIR / "cli_digests.json"

# The workload names, with their one-line reasons, live in BENCHMARK.json.
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = tuple(w["name"] for w in json.loads(SPEC_PATH.read_text(encoding="utf-8"))["workloads"])

MARTENS_PAIRS = 20
MARTENS_GAMMAS = 11
# chsh-grid follows the acceptance suite (tests/test_acceptance.py): criterion
# 6 makes many single-setup CHSH calls next to criterion 7's one pasted call,
# so the item set holds one pasted item.
CHSH_ITEMS = 160
PREMEASURE_DIMS = ((2, 2), (2, 4), (4, 4))
# s = 10**(-4 + k/2), k = 0..16: a log-uniform grid over the full 1e-4..1e4
# range, one item per dimension pair and grid point.  A fixed grid rather
# than random draws keeps the number of d=8 and d=16 items that hit the
# eigensolver's scale defect (each ~10x slower than its peers) the same for
# every seed, so wall time is comparable across seeds.  One item per point
# keeps a pass short (about 1 s), so every item is timed some 20 times in a
# 30 s run.  A coarser grid would shorten the pass further, but the tail
# rank (10 items beyond it) would then fall to the edge of the d=16 items or
# below it (with n items per pair it lies inside them only for n >= 11).
PREMEASURE_LOG_SCALES = tuple(-4.0 + 0.5 * k for k in range(17))

MARTENS_TOL = 1e-6
CHSH_TOL = 1e-9
PASTED_TOL = 1e-6
CONSISTENCY_TOL = 1e-9
EFFECT_TOL = 1e-8


@dataclass
class Item:
    kind: str
    params: dict


# -- input generation ----------------------------------------------------------


def make_inputs(workload: str, seed: int) -> list:
    """The workload's fixed item set for `seed`; equal seeds give equal items."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {
        "martens-grid": _martens_inputs,
        "chsh-grid": _chsh_inputs,
        "premeasure-dyn": _premeasure_inputs,
        "cli-configs": _cli_inputs,
    }[workload](rng)


def _martens_inputs(rng) -> list:
    items = []
    for _ in range(MARTENS_PAIRS):
        theta, theta_prime = (float(x) for x in rng.uniform(0.0, math.pi, size=2))
        for gamma in np.linspace(0.0, 1.0, MARTENS_GAMMAS):
            items.append(
                Item("martens", {"theta": theta, "theta_prime": theta_prime, "gamma": float(gamma)})
            )
    return items


def _random_density(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _chsh_inputs(rng) -> list:
    items = []
    for _ in range(CHSH_ITEMS):
        angles = [float(x) for x in rng.uniform(0.0, math.pi, size=4)]
        gammas = [float(x) for x in rng.uniform(0.0, 1.0, size=2)]
        items.append(
            Item("chsh", {"rho": _random_density(rng, 4), "angles": angles, "gammas": gammas})
        )
    items.append(Item("pasted", {"phi": float(rng.uniform(0.0, math.pi))}))
    return items


def _random_hamiltonian(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    return h / np.linalg.norm(h)


def _unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def reference_effects(h, time, psi_a, dim_o, dim_a) -> np.ndarray:
    """Induced effects of the unscaled model, via LAPACK `eigh`.

    E_m = Tr_A[(I x rho_a) U^dag (I x P_m) U] with U = exp(-i h t) and P_m
    the computational-basis projectors of the apparatus.
    """
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * time)) @ v.conj().T
    weight = np.kron(np.eye(dim_o), np.outer(psi_a, psi_a.conj()))
    effects = []
    for m in range(dim_a):
        proj = np.zeros((dim_a, dim_a))
        proj[m, m] = 1.0
        heis = u.conj().T @ np.kron(np.eye(dim_o), proj) @ u
        blocks = (weight @ heis).reshape(dim_o, dim_a, dim_o, dim_a)
        effects.append(np.einsum("ikjk->ij", blocks))
    return np.array(effects)


def _premeasure_inputs(rng) -> list:
    items = []
    for dim_o, dim_a in PREMEASURE_DIMS:
        for log_s in PREMEASURE_LOG_SCALES:
            h = _random_hamiltonian(rng, dim_o * dim_a)
            time = float(rng.uniform(0.5, 2.0))
            psi_a = _unit_vector(rng, dim_a)
            items.append(
                Item(
                    "premeasure",
                    {
                        "dims": (dim_o, dim_a),
                        "h": h,
                        "time": time,
                        "scale": 10.0**log_s,
                        "psi_a": psi_a,
                        "rho_o": _random_density(rng, dim_o),
                        "expected": reference_effects(h, time, psi_a, dim_o, dim_a),
                    },
                )
            )
    order = rng.permutation(len(items))
    return [items[k] for k in order]


# -- CLI configs -----------------------------------------------------------------

SHIPPED_CONFIGS = (
    "chsh_pasted",
    "entropy_sweep",
    "epr_bell",
    "premeasure_cnot",
    "sample",
    "whichway",
)
FORMATS = ("csv", "json")
POOL_SIZES = {"sample": 4, "premeasure": 12}


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _basis_projectors(dim: int) -> list:
    out = []
    for k in range(dim):
        p = np.zeros((dim, dim))
        p[k, k] = 1.0
        out.append(_pairs(p))
    return out


def _sample_variant(index: int) -> dict:
    rng = np.random.default_rng([1, index])
    angles = np.round(rng.uniform(0.0, 180.0, size=4), 1)
    gammas = np.round(rng.uniform(0.0, 1.0, size=2), 2)
    return {
        "kind": "sample",
        "theta1_deg": float(angles[0]),
        "theta1_prime_deg": float(angles[1]),
        "theta2_deg": float(angles[2]),
        "theta2_prime_deg": float(angles[3]),
        "gamma1": float(gammas[0]),
        "gamma2": float(gammas[1]),
        "n_samples": 1_000_000,
        "seed": int(rng.integers(0, 2**32)),
    }


def _premeasure_variant(index: int) -> dict:
    rng = np.random.default_rng([2, index])
    dim_o, dim_a = PREMEASURE_DIMS[index % 2]
    rho_a = np.zeros((dim_a, dim_a))
    rho_a[0, 0] = 1.0
    return {
        "kind": "premeasure",
        "dim_object": dim_o,
        "dim_apparatus": dim_a,
        "hamiltonian": _pairs(_random_hamiltonian(rng, dim_o * dim_a)),
        "time": float(np.round(rng.uniform(0.5, 2.0), 3)),
        "rho_apparatus": _pairs(rho_a),
        "pointer": _basis_projectors(dim_a),
        "rho_object": _pairs(_random_density(rng, dim_o)),
    }


def _shipped(name: str) -> dict:
    return json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))


def _invalid_variants() -> list:
    """(config text, extra CLI arguments, expected exit code)."""
    whichway = _shipped("whichway")
    sweep = dict(_shipped("entropy_sweep"), n_points=11)
    return [
        (json.dumps(whichway)[:-7], [], 1),  # truncated JSON
        (json.dumps(dict(whichway, gama=0.5)), [], 1),  # unknown field
        (json.dumps(dict(whichway, gamma=1.5)), [], 1),  # gamma out of range
        (json.dumps(dict(_shipped("sample"), n_samples=0)), [], 1),
        (json.dumps(dict(whichway, kind="weak")), [], 1),  # unknown kind
        (json.dumps(dict(whichway, state=[[1, 0], [0, 0], [0, 0]])), [], 1),
        (json.dumps(dict(_shipped("premeasure_cnot"), dim_object=3)), [], 1),
        (json.dumps(_shipped("epr_bell")), ["--tol", "-1"], 2),  # bound fails
        (json.dumps(sweep), ["--tol", "-1"], 2),  # slack floor above zero
        (json.dumps(_shipped("premeasure_cnot")), ["--tol", "-1"], 2),
    ]


def cli_pool() -> dict:
    """Every CLI item any seed can draw, keyed by a stable id.

    Values are (config path or config text, extra arguments, format,
    expected exit code); the digest file stores the stdout digest per id.
    """
    pool = {}
    for name in SHIPPED_CONFIGS:
        for fmt in FORMATS:
            pool[f"shipped/{name}/{fmt}"] = (f"configs/{name}.json", [], fmt, 0)
    for index in range(POOL_SIZES["sample"]):
        text = json.dumps(_sample_variant(index))
        for fmt in FORMATS:
            pool[f"sample/{index}/{fmt}"] = (text, [], fmt, 0)
    for index in range(POOL_SIZES["premeasure"]):
        text = json.dumps(_premeasure_variant(index))
        for fmt in FORMATS:
            pool[f"premeasure/{index}/{fmt}"] = (text, [], fmt, 0)
    for index, (text, extra, code) in enumerate(_invalid_variants()):
        pool[f"invalid/{index}/csv"] = (text, extra, "csv", code)
    return pool


def cli_items(keys, digests=None) -> list:
    """Items for the given pool ids, each with its stdout digest.

    The digests default to the recorded ones; `record_digests.py` passes an
    empty table, so its items carry none.
    """
    pool = cli_pool()
    if digests is None:
        digests = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    items = []
    for key in keys:
        config, extra, fmt, code = pool[key]
        params = {"id": key, "config": config, "args": ["--format", fmt] + extra}
        items.append(Item("cli", dict(params, exit=code, digest=digests.get(key))))
    return items


def _cli_inputs(rng) -> list:
    """Every shipped config in both formats, as ROADMAP's end-to-end CLI
    measure names them, plus one seed-drawn variant of each kind the issue
    asks for: a 1e6-draw sample config, a Hamiltonian premeasure config, and
    one invalid config for each expected exit code (1 and 2)."""
    pool = cli_pool()
    ids = [f"shipped/{name}/{fmt}" for name in SHIPPED_CONFIGS for fmt in FORMATS]
    for group in ("sample", "premeasure"):
        members = sorted({key.rsplit("/", 1)[0] for key in pool if key.startswith(group + "/")})
        ids.append(f"{members[int(rng.integers(len(members)))]}/{FORMATS[int(rng.integers(2))]}")
    for code in (1, 2):
        members = sorted(key for key, v in pool.items() if key.startswith("invalid/") and v[3] == code)
        ids.append(members[int(rng.integers(len(members)))])
    return cli_items(ids)


# -- running items ---------------------------------------------------------------


class Runner:
    """Runs items of one workload against an imported qmeas package.

    `cli_command` is the argument prefix that starts the CLI; `workdir`
    holds generated config files.
    """

    def __init__(self, q, workdir: Path, cli_command=None):
        self.q = q
        self.workdir = workdir
        self.cli_command = cli_command or [sys.executable, "-m", "qmeas"]
        self.env = None
        self.last_stderr = ""

    def run(self, item: Item):
        return getattr(self, f"_run_{item.kind}")(item.params)

    def _run_martens(self, p):
        q = self.q
        r = q.whichway_povm(q.WhichWayConfig(p["theta"], p["theta_prime"], p["gamma"]))
        rep = q.check_martens(r, q.polarization_pvm(p["theta"]), q.polarization_pvm(p["theta_prime"]))
        return (rep.lhs, rep.rhs, rep.slack, rep.satisfied)

    def _run_chsh(self, p):
        q = self.q
        t1, t1p, t2, t2p = p["angles"]
        g1, g2 = p["gammas"]
        config = q.EprBellConfig(q.WhichWayConfig(t1, t1p, g1), q.WhichWayConfig(t2, t2p, g2))
        res = q.chsh_single_setup(q.DensityOperator(q.Operator(p["rho"])), config)
        return tuple(res.correlations) + (res.s_value, res.violates)

    def _run_pasted(self, p):
        q = self.q
        phi = p["phi"]
        res = q.chsh_pasted_aspect(
            q.entangled_pair_state(), phi, phi + math.pi / 4, phi + math.pi / 8, phi + 3 * math.pi / 8
        )
        return tuple(res.correlations) + (res.s_value, res.violates)

    def _run_premeasure(self, p):
        q = self.q
        dim_o, dim_a = p["dims"]
        pointer = q.Pvm(
            [q.Operator(np.diag(np.eye(dim_a)[k])) for k in range(dim_a)], labels=range(dim_a)
        )
        model = q.PremeasurementModel.from_generator(
            q.Operator(p["h"] * p["scale"]),
            p["time"] / p["scale"],
            q.pure_state(p["psi_a"]),
            pointer,
            dim_o,
            dim_a,
        )
        povm = q.induced_povm(model)
        residual = q.pointer_consistency(q.DensityOperator(q.Operator(p["rho_o"])), model)
        return (np.array([e.mat for e in povm.effects]), residual)

    def _run_cli(self, p):
        config = p["config"]
        if not config.startswith("configs/"):
            path = self.workdir / (hashlib.sha256(config.encode()).hexdigest()[:16] + ".json")
            if not path.exists():
                path.write_text(config, encoding="utf-8")
            config = str(path)
        proc = subprocess.run(
            self.cli_command + ["run", "--config", config] + p["args"],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        self.last_stderr = proc.stderr.decode("utf-8", "replace")
        crashed = "Traceback" in self.last_stderr
        return (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), crashed)


# -- oracles ---------------------------------------------------------------------


def output_digest(output) -> str:
    """Stable digest of one item's output (floats by exact hex)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.shape).encode())
            h.update(np.ascontiguousarray(x, dtype=np.complex128).tobytes())
        elif isinstance(x, (tuple, list)):
            for y in x:
                feed(y)
        elif isinstance(x, float):
            h.update(x.hex().encode())
        else:
            h.update(repr(x).encode())
        h.update(b"|")

    feed(output)
    return h.hexdigest()


def _row_entropy(lam: np.ndarray) -> float:
    """J = -(1/N) sum_mn lam_mn ln(lam_mn / rowsum_m), with 0 ln 0 = 0."""
    rows = lam.sum(axis=1, keepdims=True)
    nonzero = lam > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lam / rows
    return -float((lam[nonzero] * np.log(ratio[nonzero])).sum()) / lam.shape[0]


def martens_sides(theta: float, theta_prime: float, gamma: float):
    """Closed-form (lhs, rhs) of the entropic bound on the which-way grid.

    lhs = J(lam) + J(mu) for the paper's lam = [[g, 0], [1-g, 1]] and
    mu = [[1-g, 0], [g, 1]]; rhs = -ln max(cos^2 d, sin^2 d), d = theta - theta'.
    """
    lam = np.array([[gamma, 0.0], [1.0 - gamma, 1.0]])
    mu = np.array([[1.0 - gamma, 0.0], [gamma, 1.0]])
    delta = theta - theta_prime
    rhs = -math.log(max(math.cos(delta) ** 2, math.sin(delta) ** 2))
    return _row_entropy(lam) + _row_entropy(mu), rhs


def _polarizer(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c * c, c * s], [c * s, s * s]])


def chsh_correlations(rho, angles, gammas) -> np.ndarray:
    """E(m1,m2), E(m1,n2), E(n1,m2), E(n1,n2) as Tr rho (X1 x X2).

    On an arm with mirror transmission g, the +/-1-valued detector-D axis is
    m = 2 g E_theta - I and the detector-D' axis is n = 2 (1-g) E_theta' - I.
    """
    t1, t1p, t2, t2p = angles
    g1, g2 = gammas
    eye = np.eye(2)
    m1, n1 = 2.0 * g1 * _polarizer(t1) - eye, 2.0 * (1.0 - g1) * _polarizer(t1p) - eye
    m2, n2 = 2.0 * g2 * _polarizer(t2) - eye, 2.0 * (1.0 - g2) * _polarizer(t2p) - eye
    pairs = ((m1, m2), (m1, n2), (n1, m2), (n1, n2))
    return np.array([np.trace(rho @ np.kron(a, b)).real for a, b in pairs])


def check(item: Item, output) -> str:
    """Empty string when `output` is right for `item`, else the reason."""
    p = item.params
    if item.kind == "martens":
        lhs, rhs, slack, satisfied = output
        if not satisfied or slack < -MARTENS_TOL:
            return f"bound violated (slack {slack:.3e})"
        want = martens_sides(p["theta"], p["theta_prime"], p["gamma"])
        err = max(abs(lhs - want[0]), abs(rhs - want[1]))
        return "" if err <= MARTENS_TOL else f"J(lam) + J(mu) or the bound off by {err:.3e}"
    if item.kind == "chsh":
        s, violates = output[4], output[5]
        if violates or abs(s) > 2.0 + CHSH_TOL:
            return f"single-setup |S| = {abs(s):.12g} > 2"
        err = float(np.abs(np.array(output[:4]) - chsh_correlations(p["rho"], p["angles"], p["gammas"])).max())
        return "" if err <= CHSH_TOL else f"correlations off Tr rho (A x B) by {err:.3e}"
    if item.kind == "pasted":
        phi = p["phi"]
        want = [math.cos(2.0 * (a - b)) for a in (phi, phi + math.pi / 4)
                for b in (phi + math.pi / 8, phi + 3 * math.pi / 8)]
        err = max(abs(output[4] - 2.0 * math.sqrt(2.0)), *(abs(x - y) for x, y in zip(output, want)))
        if not output[5]:
            return "pasted S does not violate the bound"
        return "" if err <= PASTED_TOL else f"pasted correlations or S off by {err:.3e}"
    if item.kind == "premeasure":
        effects, residual = output
        if not residual < CONSISTENCY_TOL:
            return f"pointer consistency {residual:.3e}"
        err = float(np.abs(effects - p["expected"]).max())
        return "" if err <= EFFECT_TOL else f"effects off the unscaled model by {err:.3e}"
    if item.kind == "cli":
        code, digest, crashed = output
        if crashed:
            return "uncaught exception"
        if code != p["exit"]:
            return f"exit code {code}, expected {p['exit']}"
        return "" if digest == p["digest"] else "stdout digest differs from the recorded one"
    raise ValueError(f"unknown item kind {item.kind!r}")
