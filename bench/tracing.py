"""Spans around radialift's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces the public names each module calls through with
timing wrappers, wherever the package refers to the same function object
(so ``quadrature.integrate_finite`` is also caught where ``transform``
imported it).  ``uninstall`` puts the originals back.  A name that a later
version of the package no longer has is listed in ``Tracer.missing`` and
skipped; the metrics that need it are then reported missing.

A span is ``(id, name, start_ns, end_ns, parent_id, attrs)``; ``parent_id``
is 0 at the top of a thread.  Spans stay in memory until ``dump``.
"""

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time

MODULES = ("bessel", "quadrature", "transform", "expr", "lift", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _size(value):
    return int(getattr(value, "size", 1))  # a scalar is one argument


def _array_size(args, kwargs, out):
    return {"args": _size(_arg(args, kwargs, 1, "x"))}


def _eval_size(args, kwargs, out):
    return {"args": _size(_arg(args, kwargs, 1, "s"))}


def _zero_order(args, kwargs, out):
    nu = _arg(args, kwargs, 0, "nu")
    return {"order": getattr(nu, "nu", nu)}


def _point(args, kwargs, out):
    if out is None:  # raised
        return None
    return {"n": int(_arg(args, kwargs, 1, "n")),
            "r": float(_arg(args, kwargs, 2, "r")),
            "value": complex(out.value).real,
            "converged": bool(out.converged),
            "evaluations": int(out.evaluations)}


def _lift_steps(args, kwargs, out):
    base = _arg(args, kwargs, 1, "base_dim")
    target = _arg(args, kwargs, 2, "target_dim")
    return {"k": (int(target) - int(base)) // 2}


# (module, attribute, span name, attrs from (args, kwargs, result or None))
FUNCTIONS = (
    ("quadrature", "bessel_j_tilde", "bessel.bessel_j_tilde", _array_size),
    ("quadrature", "bessel_zeros", "bessel.bessel_zeros", _zero_order),
    ("quadrature", "integrate_finite", "quadrature.integrate_finite", None),
    ("quadrature", "split_halfline_at_zeros",
     "quadrature.split_halfline_at_zeros", None),
    ("transform", "integrability_check", "transform.integrability_check", None),
    ("transform", "radial_fourier_result", "transform.radial_fourier_result",
     _point),
    ("expr", "simplify", "expr.simplify", None),
    ("lift", "lift_to_dimension", "lift.lift_to_dimension", _lift_steps),
    ("lift", "lift_once", "lift.lift_once", None),
    ("cli", "main", "cli.main", None),
)

# (module, class, method, span name, attrs); "diff" recurses through the
# subclasses' overrides, so only the outermost call becomes a span
METHODS = (
    ("expr", "Expression", "eval_array", "expr.Expression.eval_array",
     _eval_size),
    ("expr", "Expression", "evaluate", "expr.Expression.evaluate", None),
    ("expr", "Expression", "diff", "expr.Expression.diff", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A span opened by the benchmark's own code around a call."""
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, name, start, parent, attrs or None)

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, parent, attrs):
        end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, attrs))

    def _wrapper(self, original, name, attrs_of, outermost=False):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if outermost and getattr(tracer._local, "busy", False):
                return original(*args, **kwargs)
            sid, parent = tracer._open()
            if outermost:
                tracer._local.busy = True
            out = None
            start = time.perf_counter_ns()
            try:
                out = original(*args, **kwargs)
                return out
            finally:
                if outermost:
                    tracer._local.busy = False
                attrs = attrs_of(args, kwargs, out) if attrs_of else None
                tracer._close(sid, name, start, parent, attrs)

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every name in FUNCTIONS and METHODS that the package has."""
        package = importlib.import_module("radialift")
        modules = [package] + [importlib.import_module(f"radialift.{m}")
                               for m in MODULES]
        for mod_name, attr, name, attrs_of in FUNCTIONS:
            mod = importlib.import_module(f"radialift.{mod_name}")
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrapper(original, name, attrs_of)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._set(owner, key, wrapper)
        for mod_name, cls_name, attr, name, attrs_of in METHODS:
            mod = importlib.import_module(f"radialift.{mod_name}")
            base = getattr(mod, cls_name, None)
            if base is None or not hasattr(base, attr):
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            outermost = attr == "diff"
            for cls in [base] + _subclasses(base):
                if attr in vars(cls):
                    self._set(cls, attr, self._wrapper(
                        vars(cls)[attr], name, attrs_of, outermost))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns",
                                  "parent", "attrs"],
                       "missing": self.missing, "spans": self.spans}, fh)


def load(path):
    with open(path) as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]], data["missing"]


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out

