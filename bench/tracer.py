"""Outside-in tracing of qmeas: spans around public functions and constructors.

The tracer wraps each target function, classmethod, method and constructor
of the `qmeas` modules from outside the package and rebinds *every* name
under which a target is reachable, so that calls through imported aliases
(`herm_eig` in `povm`, `states` and `nonideality`, `tensor_product` in
`experiments` and `premeasurement`, `distribution` in `cli`, ...) are
recorded too.  `restore` puts every original binding back.

A span is `(name, start, end, parent, failed)`: `parent` is the index of the
enclosing span or -1, and `failed` is true when an exception left the call.
A span's self time is its duration minus the durations of its direct
children.  Nothing under `src/` knows about the tracer.
"""

import sys
import time
from collections import Counter, defaultdict

# Spans of these names make the POVM validated inside them "derived": its
# effects were built from effects that had already been validated.
DERIVED_CONTEXTS = frozenset(
    {
        "povm.marginal",
        "povm.marginal_pair",
        "povm.from_pvm",
        "povm.flatten",
        "experiments.eprbell_povm",
    }
)

# (module, attribute, span name).  An attribute "Class.method" wraps a method
# or classmethod; "Class.__init__" records the constructor.
TARGETS = (
    ("operators", "Operator.__init__", "operators.Operator"),
    ("operators", "herm_eig", "operators.herm_eig"),
    ("operators", "exp_hermitian_generator", "operators.exp_hermitian_generator"),
    ("operators", "partial_trace_second", "operators.partial_trace_second"),
    ("operators", "tensor_product", "operators.tensor_product"),
    ("states", "DensityOperator.__init__", "states.DensityOperator"),
    ("states", "Pvm.__init__", "states.Pvm"),
    ("states", "expectation", "states.expectation"),
    ("povm", "Povm.__init__", "povm.validate"),
    ("povm", "BivariatePovm.__init__", "povm.validate"),
    ("povm", "QuadrivariatePovm.__init__", "povm.validate"),
    ("povm", "validate_povm", "povm.validate_povm"),
    ("povm", "distribution", "povm.distribution"),
    ("povm", "marginal", "povm.marginal"),
    ("povm", "marginal_pair", "povm.marginal_pair"),
    ("povm", "Povm.from_pvm", "povm.from_pvm"),
    ("povm", "BivariatePovm.flatten", "povm.flatten"),
    ("povm", "QuadrivariatePovm.flatten", "povm.flatten"),
    ("nonideality", "recover_nonideality", "nonideality.recover_nonideality"),
    ("nonideality", "joint_nonideal_decomposition", "nonideality.joint_nonideal_decomposition"),
    ("nonideality", "check_martens", "nonideality.check_martens"),
    ("nonideality", "row_entropy_measure", "nonideality.row_entropy_measure"),
    ("premeasurement", "PremeasurementModel.from_generator", "premeasurement.from_generator"),
    ("premeasurement", "induced_povm", "premeasurement.induced_povm"),
    ("premeasurement", "pointer_consistency", "premeasurement.pointer_consistency"),
    ("experiments", "whichway_povm", "experiments.whichway_povm"),
    ("experiments", "eprbell_povm", "experiments.eprbell_povm"),
    ("experiments", "chsh_single_setup", "experiments.chsh_single_setup"),
    ("experiments", "chsh_pasted_aspect", "experiments.chsh_pasted_aspect"),
    ("experiments", "quadruple_sample_check", "experiments.quadruple_sample_check"),
    ("sampling", "sample_counts", "sampling.sample_counts"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
    ("cli", "emit", "cli.emit"),
)

HERM_EIG_DIMS = (2, 4, 8, 16)

# Prefix of the stderr line on which a traced CLI child reports its summary.
TRACE_MARKER = "QBENCH-TRACE "


def _herm_eig_name(args, kwargs):
    m = args[0] if args else kwargs["m"]
    return f"operators.herm_eig.d{m.dim}"


def _sample_draws(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["n_samples"])


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name, name_of=None, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            if on_call:
                on_call(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, span_name))
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, failed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_effects(self, effects):
        """Counts validated effects, and those validated in a derived context."""
        n = len(effects)
        self.counts["povm.effects_validated"] += n
        if any(name in DERIVED_CONTEXTS for _, name in self._stack):
            self.counts["povm.effects_derived"] += n

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every target and rebind all of its aliases in `qmeas.*`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "qmeas" or k.startswith("qmeas.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(f"qmeas.{module_name}")
            if module is None:  # e.g. qmeas.cli, which `import qmeas` does not load
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name))
                else:
                    wrapped = self._wrap(original, name)
                self._saved.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            hooks = {}
            if name == "operators.herm_eig":
                hooks["name_of"] = _herm_eig_name
            elif name == "sampling.sample_counts":
                hooks["on_call"] = lambda a, k: self.counts.update(
                    {"sampling.draws": _sample_draws(a, k)}
                )
            self._rebind(modules, original, self._wrap(original, name, **hooks))
        povm = sys.modules["qmeas.povm"]
        check = povm._check_effects
        self._rebind([povm], check, self._wrap_counter(check))

    def _wrap_counter(self, fn):
        def counted(*args, **kwargs):
            effects = fn(*args, **kwargs)
            self._count_effects(effects)
            return effects

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, modules, original, wrapped):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, original))
                    setattr(module, key, wrapped)

    def restore(self):
        """Put back every binding `install` replaced, newest first."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def reset(self):
        """Drop recorded spans and counts (between passes)."""
        if self._stack:
            raise RuntimeError("cannot reset inside an open span")
        self.spans.clear()
        self.counts.clear()


def summarize(spans, counts=None):
    """Per-name calls and self time, and per-layer error counts.

    A layer's error count is the number of failed spans of that layer whose
    parent belongs to another layer, so one exception passing through
    nested calls of the same layer counts once.
    """
    calls = Counter()
    total = defaultdict(float)
    child = defaultdict(float)
    errors = Counter()
    layer = [name.split(".", 1)[0] for name, *_ in spans]
    for index, (name, start, end, parent, failed) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        total[name] += duration
        if parent >= 0:
            child[parent] += duration
        if failed and (parent < 0 or layer[parent] != layer[index]):
            errors[layer[index]] += 1
    self_s = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child[index]
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "errors": dict(errors),
        "counts": dict(counts or {}),
    }
