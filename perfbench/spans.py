"""In-memory span recorder for the traced benchmark run.

``Tracer.install()`` replaces hybridsens' public functions and methods at
the names their callers look them up (a name imported with ``from .x
import f`` is patched in the importing module too), so the package itself
is unchanged.  ``Tracer.uninstall()`` restores every original.

Two kinds of wrapper exist:

* span wrappers record ``[name, start, end, parent, thread id, pass]`` and
  count one call;
* count wrappers only count, for calls too frequent and too cheap to be
  worth a span (dense-output evaluations, factorizations, FD fallbacks).

Counts are attributed to the *pass* the calling thread is in: ``fwd``
(``simulate``), ``tlm`` (``direct_gradient``), ``bwd``
(``propagate_adjoint``) or ``fd`` (a finite-difference check; simulations
inside it stay in ``fd``).  Each thread keeps its own counter, so the
``fd-check`` worker threads never race on a shared increment and counts
repeat exactly.

A span that starts at the root of a worker thread takes as parent the span
open at that moment in the thread that installed the tracer: in
``fd-check`` this links the pool threads to the ``cli.main`` span that
submitted them.  Self time is a span's duration minus the union of its
children's intervals, so two overlapping children are not subtracted twice.
"""

from __future__ import annotations

import gzip
import json
import threading
from collections import Counter
from time import perf_counter

PASS_FD = "fd"


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._counters = []
        self._patches = []
        self._root_stack = None
        self.missing = []

    # -- recording -----------------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.pass_ = None
            loc.counts = Counter()
            self._counters.append(loc.counts)
        return loc

    def count(self, key, n=1):
        loc = self._state()
        loc.counts[(loc.pass_, key)] += n

    def counts(self) -> Counter:
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total

    def span(self, name, fn, pass_=None, nested=True):
        """Wrap fn in a span.  With ``nested=False`` a call made while a span
        of the same layer is open runs unrecorded (for example
        ``accel_and_multipliers`` calling ``accel`` on the same object)."""
        layer = name.split(".", 1)[0] + "."
        tracer = self

        def wrapper(*args, **kwargs):
            loc = tracer._state()
            stack = loc.stack
            if not nested and stack and stack[-1][0].startswith(layer):
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._submitting_span(stack)
            old_pass = loc.pass_
            if pass_ is not None and old_pass != PASS_FD:
                loc.pass_ = pass_
            rec = [name, 0.0, 0.0, parent, threading.get_ident(), loc.pass_]
            loc.counts[(loc.pass_, name)] += 1
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                loc.pass_ = old_pass
                tracer.spans.append(rec)

        wrapper.__wrapped__ = fn
        return wrapper

    def _submitting_span(self, stack):
        """Innermost open span of the installing thread, for a span opening
        at the root of another thread; None in the installing thread."""
        root = self._root_stack
        if root is None or root is stack:
            return None
        try:
            return root[-1]
        except IndexError:
            return None

    def counter(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            loc = tracer._state()
            loc.counts[(loc.pass_, key)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(owner.attr)``.  A boundary the
        package no longer has is listed in ``missing``; run.py then reports
        the traced run as not correct."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        """Patch every layer boundary.  Imports hybridsens lazily so that this
        module loads without it."""
        import hybridsens.adjoint as adjoint
        import hybridsens.cli as cli
        import hybridsens.constrained as constrained
        import hybridsens.direct as direct
        import hybridsens.gallery as gallery
        import hybridsens.hybrid as hybrid
        import hybridsens.integrate as integrate
        import hybridsens.model as model
        import hybridsens.oracle as oracle

        self._root_stack = self._state().stack
        self.missing = []
        wrap = self.wrap

        def span(name, **kwargs):
            return lambda fn: self.span(name, fn, **kwargs)

        def counter(key):
            return lambda fn: self.counter(key, fn)

        # passes
        for mod in (direct, cli, oracle):
            wrap(mod, "simulate", span("pass.simulate", pass_="fwd"))
        for mod in (direct, cli):
            wrap(mod, "direct_gradient", span("pass.direct", pass_="tlm"))
        wrap(adjoint, "propagate_adjoint", self._adjoint_pass)
        wrap(cli, "fd_cost_sensitivity", span("oracle.fd_cost_sensitivity", pass_=PASS_FD))
        wrap(cli, "main", span("cli.main"))

        # integrate
        for mod in (direct, adjoint):
            wrap(mod, "integrate_segment", span("integrate.integrate_segment"))
        wrap(integrate, "RK45", self._counting_stepper)
        wrap(integrate.DenseSegment, "evaluate", counter("integrate.dense_evals"))
        wrap(hybrid.EventSpec, "r_value", span("integrate.event_fn"))

        # right-hand sides
        wrap(direct, "tlm_rhs", span("direct.tlm_rhs"))
        wrap(adjoint, "adjoint_rhs", span("adjoint.adjoint_rhs"))

        # dynamics objects (constrained and model layers)
        for cls in (constrained.PenaltyDynamics, constrained.DaeDynamics,
                    model.OdeDynamics):
            for attr, name in (("accel", "dynamics.accel"),
                               ("accel_and_multipliers", "dynamics.accel"),
                               ("jacobians", "dynamics.jac"),
                               ("multiplier_jacobians", "dynamics.jac")):
                wrap(cls, attr, span(name, nested=False))
        for mod in (constrained, adjoint):
            wrap(mod, "checked_lu", counter("constrained.factorizations"))
        for mod in (direct, adjoint):
            wrap(mod, "cost_density_gradients", span("model.cost_grad"))
        for mod in (model, hybrid):
            for attr in ("fd_jacobian", "fd_derivative"):
                wrap(mod, attr, counter("model.fd_fallback"))

        # hybrid
        wrap(direct, "apply_state_jump", span("hybrid.state_jump"))
        wrap(direct, "build_jump_matrix", span("hybrid.jump_build"))

        # gallery
        for attr in ("five_bar", "bouncing_mass", "pendulum"):
            wrap(gallery, attr, span("gallery.build"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _adjoint_pass(self, fn):
        """The backward pass span, also counting the forward steps of the
        trajectory it walks (the denominator of ``adjoint.step_ratio``)."""
        wrapped = self.span("pass.adjoint", fn, pass_="bwd")
        tracer = self

        def propagate_adjoint(traj, *args, **kwargs):
            tracer.count("adjoint.fwd_steps_walked",
                         sum(len(seg.dense) for seg in traj.segments))
            return wrapped(traj, *args, **kwargs)

        return propagate_adjoint

    def _counting_stepper(self, base):
        """RK45 subclass counting accepted and rejected steps.  One attempt
        costs ``n_stages`` right-hand-side evaluations (FSAL), so the
        attempts inside one ``step()`` are its evaluations over n_stages."""
        tracer = self

        class CountingRK45(base):
            def step(self):
                before = self.nfev
                msg = super().step()
                attempts = (self.nfev - before) // self.n_stages
                if attempts and self.status != "failed":
                    tracer.count("integrate.steps")
                    attempts -= 1
                if attempts:
                    tracer.count("integrate.steps_rejected", attempts)
                return msg

        return CountingRK45

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the union of child intervals."""
        children = {}
        for rec in self.spans:
            if rec[3] is not None:
                children.setdefault(id(rec[3]), []).append((rec[1], rec[2]))
        out = []
        for rec in self.spans:
            covered = 0.0
            kids = children.get(id(rec))
            if kids:
                kids.sort()
                lo, hi = kids[0]
                for a, b in kids[1:]:
                    if a > hi:
                        covered += hi - lo
                        lo, hi = a, b
                    elif b > hi:
                        hi = b
                covered += hi - lo
            out.append((rec, rec[2] - rec[1] - covered))
        return out

    def write(self, path):
        """Write all spans as gzipped JSON lines: one header naming the
        fields, then one ``[name, start, end, parent, thread, pass]`` row per
        span, parent given as a row index."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "thread", "pass"]}) + "\n")
            for rec in self.spans:
                parent = index.get(id(rec[3])) if rec[3] is not None else None
                fh.write(json.dumps([rec[0], rec[1], rec[2], parent, rec[4], rec[5]]))
                fh.write("\n")
