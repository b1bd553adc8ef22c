"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import pytest  # noqa: E402

import qmeas  # noqa: E402
import qmeas.cli  # noqa: E402
import workloads as w  # noqa: E402
from run import child_env  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from worker import Loop, tally  # noqa: E402


def _inputs_digest(items):
    return w.output_digest([(it.kind, sorted(it.params.items())) for it in items])


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_inputs_are_reproducible_per_seed(workload):
    first = _inputs_digest(w.make_inputs(workload, 7))
    assert _inputs_digest(w.make_inputs(workload, 7)) == first
    assert _inputs_digest(w.make_inputs(workload, 8)) != first


@pytest.mark.parametrize("workload", ["martens-grid", "chsh-grid"])
def test_oracles_pass_right_outputs_and_catch_planted_wrong_ones(workload):
    runner = w.Runner(qmeas, None)
    for item in w.make_inputs(workload, 4)[-3:]:  # chsh-grid ends with its pasted item
        output = runner.run(item)
        assert w.check(item, output) == ""
        wrong = list(output)
        wrong[0] += 1e-4  # lhs, or the first correlation, still inside the bound
        assert w.check(item, tuple(wrong)) != ""


def _cli_item(key, **override):
    item = w.cli_items([key])[0]
    item.params.update(override)
    return item


@pytest.fixture
def cli_runner(tmp_path):
    runner = w.Runner(qmeas, tmp_path)
    runner.env = child_env()
    return runner


def test_recorded_digest_passes_and_planted_wrong_digest_fails(cli_runner):
    item = _cli_item("shipped/whichway/csv")
    output = cli_runner.run(item)
    assert w.check(item, output) == ""
    planted = _cli_item("shipped/whichway/csv", digest="0" * 64)
    assert "digest" in w.check(planted, cli_runner.run(planted))


def test_invalid_config_expected_to_exit_1_is_a_success(cli_runner):
    key = "invalid/1/csv"  # unknown field
    item = _cli_item(key)
    assert item.params["exit"] == 1
    output = cli_runner.run(item)
    assert output[0] == 1
    assert w.check(item, output) == ""
    wrong = _cli_item(key, exit=0)
    assert "exit code" in w.check(wrong, output)


ALIASES = [
    ("operators", "herm_eig", ["povm", "states", "nonideality"]),
    ("operators", "tensor_product", ["experiments", "premeasurement"]),
    ("povm", "distribution", ["cli", "experiments"]),
    ("experiments", "whichway_povm", ["cli"]),
    ("experiments", "eprbell_povm", ["cli"]),
    ("nonideality", "joint_nonideal_decomposition", ["experiments"]),
    ("povm", "marginal", ["nonideality"]),
    ("povm", "validate_povm", ["premeasurement"]),
]


def _binding(module, name):
    return vars(sys.modules[f"qmeas.{module}"])[name]


def test_tracer_rebinds_every_alias_and_restores_the_originals():
    originals = {
        (mod, name): _binding(home, name)
        for home, name, users in ALIASES
        for mod in [home] + users
    }
    init = qmeas.Operator.__dict__["__init__"]
    from_pvm = qmeas.Povm.__dict__["from_pvm"]
    tracer = Tracer()
    with tracer:
        for (mod, name), fn in originals.items():
            wrapped = _binding(mod, name)
            assert wrapped is not fn and wrapped.__wrapped__ is fn, (mod, name)
        assert qmeas.Operator.__dict__["__init__"] is not init
        qmeas.check_martens(
            qmeas.whichway_povm(qmeas.WhichWayConfig(0.1, 0.7, 0.4)),
            qmeas.polarization_pvm(0.1),
            qmeas.polarization_pvm(0.7),
        )
    for (mod, name), fn in originals.items():
        assert _binding(mod, name) is fn, (mod, name)
    assert qmeas.Operator.__dict__["__init__"] is init
    assert qmeas.Povm.__dict__["from_pvm"] is from_pvm
    calls = summarize(tracer.spans)["calls"]
    assert calls["operators.herm_eig.d2"] == 14
    assert calls["nonideality.recover_nonideality"] == 2


def test_self_time_is_span_minus_children_and_errors_count_once_per_layer():
    spans = [
        ("premeasurement.from_generator", 0.0, 10.0, -1, True),
        ("operators.exp_hermitian_generator", 1.0, 9.0, 0, True),
        ("operators.herm_eig.d16", 2.0, 7.0, 1, False),
        ("operators.Operator", 7.5, 8.5, 1, True),
    ]
    s = summarize(spans)
    assert s["self_s"]["premeasurement.from_generator"] == pytest.approx(2.0)
    assert s["self_s"]["operators.exp_hermitian_generator"] == pytest.approx(2.0)
    assert s["self_s"]["operators.herm_eig.d16"] == pytest.approx(5.0)
    assert s["errors"] == {"premeasurement": 1, "operators": 1}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # items that hit the scale defect
@pytest.mark.parametrize("workload", ["martens-grid", "chsh-grid", "premeasure-dyn"])
def test_traced_outputs_equal_untraced_and_calls_repeat(workload):
    items = w.make_inputs(workload, 3)[:12]
    runner = w.Runner(qmeas, None)

    def outputs():
        out = []
        for item in items:
            try:
                out.append(runner.run(item))
            except Exception as exc:
                out.append(repr(exc))
        return w.output_digest(out)

    plain = outputs()
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            assert outputs() == plain
        counts.append(summarize(tracer.spans, tracer.counts))
    assert counts[0]["calls"] == counts[1]["calls"]
    assert counts[0]["counts"] == counts[1]["counts"]


def test_attempted_and_failed_count_items_not_executions():
    class Runner:
        def run(self, item):
            if item.kind == "bad":
                raise ValueError("planted")
            return 1.0

    fake = type("Workloads", (), {"output_digest": staticmethod(w.output_digest),
                                  "check": staticmethod(lambda item, output: "")})
    loop = Loop([w.Item("ok", {}), w.Item("bad", {}), w.Item("ok", {})], Runner(), fake)
    for _ in range(3):
        loop.full_pass()
    assert loop.executions == 9
    assert tally([loop], loop.verdicts()) == (1, True)  # a raise fails its item only
