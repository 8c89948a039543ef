"""Layer tracing from outside the program.

``Tracer.install`` wraps each layer's entry points -- public functions
wherever a module holds them, ``QuantileLattice`` methods, and the catalog
potentials' methods -- with a timing wrapper; ``uninstall`` puts the
originals back. Nothing under ``src/`` is edited.

Spans are aggregated as they close, so memory stays flat however many
calls a run makes. For every metric group the tracer keeps the time spent
in the group's outermost spans (a span nested in another span of the same
group is not counted twice) and a call count per entry point. A span's
self time is its duration minus that of its direct children; the self time
of an op's root span is the op time no wrapped call covers.
"""
from __future__ import annotations

import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter

# metric group -> entry points. "mod:func" is a module-level function,
# "mod:Class.method" a method; "*Potential" expands to every catalog class.
LAYERS = {
    "jko.step": ["jko:_native_step"],
    "jko.kernel": [
        "jko:QuantileLattice.entropy",
        "jko:QuantileLattice._entropy_grad_hess",
        "jko:QuantileLattice.w2_sq",
        "jko:QuantileLattice.w2",
        "jko:QuantileLattice.metric_grad",
    ],
    "jko.lattice_build": ["jko:QuantileLattice.__init__"],
    "jko.grid_view": ["jko:QuantileLattice.to_measure", "jko:QuantileLattice.from_grid"],
    "jko.trajectory": ["jko:jko_trajectory"],  # wrapped only to count Newton iterations
    "jko.checks": ["jko:estimate_checks"],
    "measures.from_atoms": ["measures:DiscreteMeasure.from_atoms"],
    "measures.potential": [
        f"measures:*Potential.{m}"
        for m in ("value", "derivative", "drift", "antiderivative", "integral_pairs", "kinks",
                  "argmin", "_segments")
    ],
    "measures.drift": ["measures:*Potential.drift"],
    "measures.antiderivative": ["measures:*Potential.antiderivative"],
    "measures.kinks": ["measures:*Potential.kinks"],
    "measures.reference_build": ["measures:discretize_reference"],
    "oracles.sde": ["oracles:sde_simulate"],
    "oracles.fp": ["oracles:fp_solve"],
    "oracles.semigroup": ["oracles:semigroup_matrix"],
    "transport.sinkhorn": ["transport:w2_sinkhorn"],
    "transport.lp": ["transport:w2_lp"],
    "transport.knots": [
        "transport:w2_quantile_knots",
        "transport:w2_knots_to_gaussian",
        "transport:atomic_quantile_knots",
        "transport:histogram_quantile_knots",
    ],
    "dirichlet": [
        "dirichlet:dirichlet_energy",
        "dirichlet:discrete_lipschitz",
        "dirichlet:slope_variational_check",
        "dirichlet:boundary_measure_1d",
        "dirichlet:integration_by_parts_check",
        "dirichlet:boundary_convergence_check",
    ],
    "stability.sequence": ["stability:build_sequence"],
    "stability.ladder": ["stability:flow_stability_run"],
    "stability.gamma_check": ["stability:gamma_convergence_check"],
    "serialize.write": [
        "serialize:atomic_write_text",
        "serialize:write_measure_csv",
        "serialize:write_reference",
        "serialize:write_coupling_csv",
        "serialize:write_trajectory_csv",
        "serialize:write_manifest",
    ],
}

PACKAGE = "entroflow"


class Tracer:
    def __init__(self):
        self.group_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._active = defaultdict(int)
        self._stack = []  # child time accumulated by each open span
        self._patched = []  # (owner, attribute, original raw attribute)

    # -- spans -------------------------------------------------------------
    def _enter(self, groups):
        for g in groups:
            self._active[g] += 1
        self._stack.append(0.0)

    def _exit(self, name, groups, dur):
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        for g in groups:
            self._active[g] -= 1
            if self._active[g] == 0:
                self.group_s[g] += dur

    def span(self, name, fn):
        """Run fn() as a root span (one benchmark op)."""
        groups = ("op",)
        self._enter(groups)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._exit(name, groups, perf_counter() - t0)

    def _wrap(self, name, groups, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(groups)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, groups, perf_counter() - t0)
            if hook is not None:
                hook(tracer.counters, args, kwargs, out)
            return out

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self):
        targets = defaultdict(set)  # (module, qualname) -> groups
        for group, entries in LAYERS.items():
            for entry in entries:
                for key in _expand(entry):
                    targets[key].add(group)
        for (modname, qual), groups in targets.items():
            groups = tuple(sorted(groups))
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                name = f"{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, groups, raw.__func__, HOOKS.get(name)))
                else:
                    new = self._wrap(name, groups, raw, HOOKS.get(name))
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, new)
            else:
                original = getattr(mod, qual)
                wrapper = self._wrap(qual, groups, original, HOOKS.get(qual))
                # rebind every module-level alias, e.g. names other modules imported
                for other in list(sys.modules.values()):
                    if other is None or not other.__name__.startswith(PACKAGE):
                        continue
                    for attr, val in list(vars(other).items()):
                        if val is original:
                            self._patched.append((other, attr, original))
                            setattr(other, attr, wrapper)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def calls_of(self, group):
        names = {q for e in LAYERS[group] for _, q in _expand(e)}
        return sum(self.calls[n] for n in names)


def _expand(entry):
    modname, qual = entry.split(":")
    if not qual.startswith("*"):
        return [(modname, qual)]
    suffix, meth = qual[1:].split(".")
    mod = importlib.import_module(f"{PACKAGE}.{modname}")
    out = []
    for attr, val in vars(mod).items():
        if isinstance(val, type) and attr.endswith(suffix) and meth in val.__dict__:
            out.append((modname, f"{attr}.{meth}"))
    return out


def _trajectory_hook(counters, args, kwargs, traj):
    counters["newton_iters"] += sum(info.iterations for info in traj.step_infos)
    counters["jko_steps"] += len(traj.step_infos)


def _sinkhorn_hook(counters, args, kwargs, res):
    counters["sinkhorn_iters"] += res.iterations


def _sde_hook(counters, args, kwargs, sample):
    horizon = args[2] if len(args) > 2 else kwargs["T"]
    steps = int(math.ceil(horizon / sample.dt - 1e-9))
    counters["sde_path_steps"] += sample.n_paths * steps


def _write_hook(counters, args, kwargs, _):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counters["bytes_written"] += len(text)


HOOKS = {
    "jko_trajectory": _trajectory_hook,
    "w2_sinkhorn": _sinkhorn_hook,
    "sde_simulate": _sde_hook,
    "atomic_write_text": _write_hook,
}


def layer_metrics(tr: Tracer, ops: int) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Times and counts are per op of the traced part of the run.
    """
    per = 1.0 / max(ops, 1)
    g = tr.group_s
    steps = tr.calls["_native_step"]
    sde_s = g["oracles.sde"]
    out = {
        "jko.step_ms": (1e3 * g["jko.step"] / steps if steps else 0.0, "ms"),
        "jko.kernel_s": (g["jko.kernel"] * per, "s/op"),
        "jko.kernel_calls": (tr.calls_of("jko.kernel") * per, "count/op"),
        "jko.newton_iters_per_step": (
            tr.counters["newton_iters"] / tr.counters["jko_steps"] if tr.counters["jko_steps"] else 0.0,
            "iter/step",
        ),
        "jko.lattice_builds": (tr.calls_of("jko.lattice_build") * per, "count/op"),
        "jko.lattice_build_s": (g["jko.lattice_build"] * per, "s/op"),
        "jko.grid_view_s": (g["jko.grid_view"] * per, "s/op"),
        "jko.grid_views": (tr.calls["QuantileLattice.to_measure"] * per, "count/op"),
        "jko.checks_s": (g["jko.checks"] * per, "s/op"),
        "measures.from_atoms_s": (g["measures.from_atoms"] * per, "s/op"),
        "measures.from_atoms_calls": (tr.calls_of("measures.from_atoms") * per, "count/op"),
        "measures.potential_s": (g["measures.potential"] * per, "s/op"),
        "measures.antiderivative_calls": (tr.calls_of("measures.antiderivative") * per, "count/op"),
        "measures.kinks_calls": (tr.calls_of("measures.kinks") * per, "count/op"),
        "measures.drift_s": (g["measures.drift"] * per, "s/op"),
        "measures.reference_build_s": (g["measures.reference_build"] * per, "s/op"),
        "oracles.sde_path_steps_per_s": (
            tr.counters["sde_path_steps"] / sde_s if sde_s > 0 else 0.0, "1/s"
        ),
        "oracles.fp_s": (g["oracles.fp"] * per, "s/op"),
        "oracles.semigroup_s": (g["oracles.semigroup"] * per, "s/op"),
        "transport.sinkhorn_s": (g["transport.sinkhorn"] * per, "s/op"),
        "transport.sinkhorn_iters": (tr.counters["sinkhorn_iters"] * per, "count/op"),
        "transport.lp_s": (g["transport.lp"] * per, "s/op"),
        "transport.knots_s": (g["transport.knots"] * per, "s/op"),
        "dirichlet.s": (g["dirichlet"] * per, "s/op"),
        "stability.sequence_s": (g["stability.sequence"] * per, "s/op"),
        "stability.ladder_s": (g["stability.ladder"] * per, "s/op"),
        "stability.gamma_check_s": (g["stability.gamma_check"] * per, "s/op"),
        "serialize.write_s": (g["serialize.write"] * per, "s/op"),
        "serialize.bytes": (tr.counters["bytes_written"] * per, "B/op"),
        "cli.self_s": (sum(v for k, v in tr.self_s.items() if k.startswith("op:")) * per, "s/op"),
    }
    return out
