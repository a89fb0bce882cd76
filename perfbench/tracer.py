"""Spans around qemlab's public functions, recorded from outside the package.

``install`` replaces each wrapped function on every ``qemlab`` module that
binds it, because modules import by name (``experiments`` binds ``run``,
``subspace`` binds ``expect_pauli``).  Calls made inside one module go
through its globals, so they are wrapped too and spans nest.

Spans are folded into per-key totals as they close: call count, inclusive
time and self time (inclusive minus the time of wrapped calls it contains).
One span stack is kept per thread.  Work the tracer does for itself, such as
fingerprinting a circuit, is charged to no span.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import time


class Tracer:
    def __init__(self, full: bool):
        self.full = full
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: dict[str, list] = {}     # key -> [calls, inclusive_s, self_s]
        self.counts: dict[str, int] = {}
        self.circuits_seen: set[str] = set()
        self.captured: dict[str, list] = {"exact_ground": [], "optimize": []}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, k: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + k

    def _close(self, key: str, dt: float, child: float) -> None:
        with self._lock:
            st = self.stats.setdefault(key, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dt
            st[2] += dt - child

    def span(self, key, fn, before=None, after=None, on_error=None):
        """Wrap fn; key is a string or a function of the call's arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if before is not None:
                t_hook = time.perf_counter()
                before(*args, **kwargs)
                if stack:  # the hook's cost belongs to no span
                    stack[-1][0] += time.perf_counter() - t_hook
            name = key(*args, **kwargs) if callable(key) else key
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                if on_error is not None:
                    on_error(ex)
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                tracer._close(name, dt, frame[0])
            if after is not None:
                after(result)
            return result

        return wrapper


def _rebind(original, replacement) -> None:
    """Point every qemlab module attribute bound to original at replacement."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qemlab" or name.startswith("qemlab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the baseline calls always, and every traced layer if tracer.full."""
    from qemlab import vqe

    def keep_ground(res):
        tracer.captured["exact_ground"].append(float(res[0]))

    def keep_params(res):
        tracer.captured["optimize"].append({"params": [float(x) for x in res.params]})
        tracer.count("vqe.bfgs_iterations", int(res.iterations))

    _rebind(vqe.exact_ground, tracer.span("vqe.exact_ground", vqe.exact_ground,
                                          after=keep_ground))
    _rebind(vqe.optimize, tracer.span("vqe.optimize", vqe.optimize, after=keep_params))
    if tracer.full:
        _install_layers(tracer)


def _install_layers(tracer: Tracer) -> None:
    from qemlab import circuits, experiments, gevp, pauli, purification, shotnoise, subspace
    from qemlab.errors import SelectionFailureError

    def by_n(prefix):
        return lambda circuit, *a, **k: f"{prefix}.n{circuit.n}"

    def on_run(circuit, *a, **k):
        digest = hashlib.sha1(circuit.dump().encode()).hexdigest()
        with tracer._lock:
            tracer.circuits_seen.add(digest)

    def on_apply(circuit, *a, **k):
        tracer.count("circuits.ops_applied", len(circuit.ops))

    def on_solve_error(ex):
        if isinstance(ex, SelectionFailureError):
            tracer.count("gevp.window_rejections")

    def on_build(mats):
        tracer.count("subspace.ledger_queries", len(mats.queries))

    def on_sample(dist):
        tracer.count("shotnoise.rejections", int(dist.rejections))

    wraps = [
        (circuits.apply, by_n("circuits.apply"), {"before": on_apply}),
        (circuits.run, by_n("circuits.run"), {"before": on_run}),
        (circuits.dual_state, by_n("circuits.dual_state"), {}),
        (circuits.apply_channel, "circuits.apply_channel", {}),
        (circuits.attach_noise, "circuits.attach_noise", {}),
        (pauli.factorize, "pauli.factorize", {}),
        (pauli.sum_mul, "pauli.sum_mul", {}),
        (pauli.expect_pauli, "pauli.expect_pauli", {}),
        (subspace.build, "subspace.build", {"after": on_build}),
        (subspace.plan_queries, "subspace.plan_queries", {}),
        (gevp.solve_pencil, "gevp.solve_pencil", {"on_error": on_solve_error}),
        (shotnoise.perturb, "shotnoise.perturb", {}),
        (shotnoise.sample_distribution, "shotnoise.sample_distribution",
         {"after": on_sample}),
        (shotnoise.var_dsp, "shotnoise.var_dsp", {}),
        (purification.dsp_expectation, "purification.dsp_expectation", {}),
        (experiments.write_outputs, "experiments.write_outputs", {}),
    ]
    for fn, key, kw in wraps:
        _rebind(fn, tracer.span(key, fn, **kw))
    esd = purification.EsdEvaluator
    esd.__init__ = tracer.span("purification.esd_init", esd.__init__)
    esd.numerator = tracer.span("purification.esd_numerator", esd.numerator)
