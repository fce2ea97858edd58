"""Pass-through tracing of the package's layers, installed from outside.

The tracer rebinds names that ``vi_ident`` modules look up at call time (for
example ``vi_ident.forward.splu`` or ``vi_ident.adjoint.solution_map``) to
wrappers that record one span per call and otherwise behave exactly like the
callee: same arguments, same return value, same exception.  Nothing under
``src/`` is edited.  A hook whose target no longer exists is skipped, so the
metrics that depend on it read zero instead of the run crashing.

Spans live in flat in-memory arrays (name, start, end, parent, operation id,
failed flag, one numeric value such as an iteration count) and are written
once, at the end of the run, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array

import numpy as np

SETUP_OP = -1  # operation id of spans recorded while building inputs


def _iterations(result, args, kwargs):
    return result.iterations


def _accepted_steps(result, args, kwargs):
    return len(result.objective_history) - 1


def _csv_bytes(result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _file_bytes(result, args, kwargs):
    return os.path.getsize(result)


# (module, attribute path, span name, value recorded from the result).
# One span name may be bound in several modules; each binding is wrapped, and
# a call goes through exactly one of them.
HOOKS = (
    ("vi_ident.discretization", "elementwise_h1_gram", "discretization.gram", None),
    ("vi_ident.discretization", "friction_gram", "discretization.gram", None),
    ("vi_ident.forward", "assemble_operator", "discretization.assemble", None),
    ("vi_ident.forward", "Problem.operator", "discretization.operator", None),
    ("vi_ident.forward", "splu", "forward.splu", None),
    ("vi_ident.forward", "solution_map", "forward.solution_map", None),
    ("vi_ident.adjoint", "solution_map", "forward.solution_map", None),
    ("vi_ident.identify", "solution_map", "forward.solution_map", None),
    ("vi_ident.experiments", "solution_map", "forward.solution_map", None),
    ("vi_ident.forward", "solve_vi_oracle", "forward.oracle", _iterations),
    ("vi_ident.forward", "solve_regularized", "forward.newton", _iterations),
    ("vi_ident.forward", "modulus_smooth", "kernels.modulus", None),
    ("vi_ident.adjoint", "modulus_smooth", "kernels.modulus", None),
    ("vi_ident.adjoint", "LinearizedMap.__init__", "adjoint.linmap", None),
    ("vi_ident.adjoint", "splu", "adjoint.splu", None),
    ("vi_ident.identify", "adjoint_solve", "adjoint.gradient", None),
    ("vi_ident.experiments", "adjoint_solve", "adjoint.gradient", None),
    ("vi_ident.identify", "reduced_gradients", "adjoint.gradient", None),
    ("vi_ident.experiments", "reduced_gradients", "adjoint.gradient", None),
    ("vi_ident.identify", "reduced_objective", "adjoint.objective", None),
    ("vi_ident.experiments", "reduced_objective", "adjoint.objective", None),
    ("vi_ident.identify", "identify", "identify.identify", _accepted_steps),
    ("vi_ident.experiments", "identify", "identify.identify", _accepted_steps),
    ("vi_ident.cli", "parse_config", "config.parse", None),
    ("vi_ident.cli", "run_experiment", "experiments.run", None),
    ("vi_ident.experiments", "emit_csv", "experiments.io", _csv_bytes),
    ("vi_ident.experiments", "write_manifest", "experiments.io", _file_bytes),
    ("vi_ident.cli", "main", "cli.main", None),
)

# Per-layer metrics: name -> unit.  Everything except ``discretization.gram_s``
# (per set-up) and the two ``trace.*`` figures is a per-operation average over
# the timed phase.
LAYER_METRICS = {
    "discretization.gram_s": "s/setup",
    "discretization.assemble_calls": "count/op",
    "discretization.assemble_s": "s/op",
    "discretization.operator_cache_hit_ratio": "ratio",
    "forward.factorizations": "count/op",
    "forward.factorization_s": "s/op",
    "forward.oracle_calls": "count/op",
    "forward.oracle_s": "s/op",
    "forward.oracle_iters": "count/op",
    "forward.newton_calls": "count/op",
    "forward.newton_s": "s/op",
    "forward.newton_iters": "count/op",
    "forward.failures": "count/op",
    "kernels.modulus_calls": "count/op",
    "kernels.modulus_s": "s/op",
    "adjoint.linmap_builds": "count/op",
    "adjoint.linmap_s": "s/op",
    "adjoint.factorizations": "count/op",
    "adjoint.gradient_s": "s/op",
    "adjoint.objective_evals": "count/op",
    "identify.iterations": "count/op",
    "identify.forward_solves": "count/op",
    "identify.accept_ratio": "ratio",
    "identify.self_s": "s/op",
    "config.parse_s": "s/op",
    "experiments.io_s": "s/op",
    "experiments.io_bytes": "B/op",
    "cli.self_s": "s/op",
    "trace.solved_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def _resolve(module: str, attr: str):
    """Return (owner object, final attribute name) or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.value = array("d")
        self.current_op = SETUP_OP
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, value_of=None):
        """A pass-through wrapper of ``fn`` recording one span per call."""
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.failed.append(0)
            self.value.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[i] = clock()
                self.failed[i] = 1
                raise
            finally:
                stack.pop()
            self.end[i] = clock()
            if value_of is not None:
                self.value[i] = value_of(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=HOOKS) -> None:
        """Rebind every hook target that exists; remember the ones that do not."""
        for module, attr, name, value_of in hooks:
            self._name_id(name)
            target = _resolve(module, attr)
            if target is None:
                self.missing.append(f"{module}.{attr}")
                continue
            owner, last = target
            original = getattr(owner, last)
            self._restore.append((owner, last, original))
            setattr(owner, last, self.wrap(name, original, value_of))

    def uninstall(self) -> None:
        for owner, last, original in reversed(self._restore):
            setattr(owner, last, original)
        self._restore.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).astype(bool),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write all spans in one compressed file (``names`` maps name ids)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def span_cost_s(repeats: int = 20000) -> float:
    """Measured extra time one traced call costs over an untraced call
    (best of three trials, each with a fresh tracer)."""

    def noop():
        return None

    best = float("inf")
    for _ in range(3):
        traced = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / repeats)
    return max(best, 0.0)


def layer_metrics(tracer: Tracer, n_ops: int, n_setups: int, solved: int, timed_s: float) -> dict:
    """Reduce the recorded spans to the per-layer metrics of LAYER_METRICS."""
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_s = dur - child_s
    timed = a["op"] >= 0
    setup = a["op"] == SETUP_OP

    def mask(name, scope=timed):
        return scope & (a["name"] == ids.get(name, -1))

    # Spans with an ``identify.identify`` span among their ancestors.
    under_identify = np.zeros(dur.size, dtype=bool)
    anc = parent.copy()
    ident_id = ids.get("identify.identify", -1)
    while np.any(anc >= 0):
        live = anc >= 0
        under_identify[live] |= a["name"][anc[live]] == ident_id
        anc[live] = parent[anc[live]]

    per_op = 1.0 / max(n_ops, 1)

    def count(name):
        return mask(name).sum() * per_op

    def secs(name):
        return dur[mask(name)].sum() * per_op

    def total(name):
        return a["value"][mask(name)].sum() * per_op

    operator = mask("discretization.operator")
    assembled_in_operator = mask("discretization.assemble") & has_parent
    assembled_in_operator[assembled_in_operator] = operator[parent[assembled_in_operator]]
    n_operator = int(operator.sum())
    identify_spans = mask("identify.identify")
    trials = int((mask("adjoint.objective") & under_identify).sum()) - int(identify_spans.sum())
    accepted = a["value"][identify_spans].sum()
    n_timed_spans = int(timed.sum())

    return {
        "discretization.gram_s": dur[mask("discretization.gram", setup)].sum() / max(n_setups, 1),
        "discretization.assemble_calls": count("discretization.assemble"),
        "discretization.assemble_s": secs("discretization.assemble"),
        "discretization.operator_cache_hit_ratio": (
            (n_operator - int(assembled_in_operator.sum())) / n_operator if n_operator else 0.0
        ),
        "forward.factorizations": count("forward.splu"),
        "forward.factorization_s": secs("forward.splu"),
        "forward.oracle_calls": count("forward.oracle"),
        "forward.oracle_s": secs("forward.oracle"),
        "forward.oracle_iters": total("forward.oracle"),
        "forward.newton_calls": count("forward.newton"),
        "forward.newton_s": secs("forward.newton"),
        "forward.newton_iters": total("forward.newton"),
        "forward.failures": (mask("forward.solution_map") & a["failed"]).sum() * per_op,
        "kernels.modulus_calls": count("kernels.modulus"),
        "kernels.modulus_s": secs("kernels.modulus"),
        "adjoint.linmap_builds": count("adjoint.linmap"),
        "adjoint.linmap_s": secs("adjoint.linmap"),
        "adjoint.factorizations": count("adjoint.splu"),
        "adjoint.gradient_s": secs("adjoint.gradient"),
        "adjoint.objective_evals": count("adjoint.objective"),
        "identify.iterations": accepted * per_op,
        "identify.forward_solves": (mask("forward.solution_map") & under_identify).sum() * per_op,
        "identify.accept_ratio": accepted / trials if trials > 0 else 0.0,
        "identify.self_s": self_s[identify_spans].sum() * per_op,
        "config.parse_s": secs("config.parse"),
        "experiments.io_s": secs("experiments.io"),
        "experiments.io_bytes": total("experiments.io"),
        "cli.self_s": self_s[mask("cli.main")].sum() * per_op,
        "trace.solved_per_s": solved / timed_s,
        "trace.overhead_frac": n_timed_spans * span_cost_s() / timed_s,
    }
