"""numpy calls per public single-point op, held to a budget.

A single-point call costs per-call overhead, not arithmetic: about a
microsecond per numpy call on arrays of a few entries.  These tests count
the calls of each op with a ``sys.setprofile`` hook and fail when an op
makes more than its budget, so that a change which adds a call to one of
these ops must raise the budget here on purpose.

What the hook sees: ``c_call`` events of the builtin functions and methods
that numpy owns, such as ``np.array``, ``np.zeros``, ufunc methods like
``np.add.reduce``, ndarray and numpy scalar methods like ``.all()`` and
``.tolist()``, and those that numpy's Python-level functions
(``np.linalg.solve``) make in turn.  What it does not see: the call of a
ufunc itself (``np.log(x)``) and array operators (``x + y``, ``x[i]``,
``abs(x)``).  Those go through type slots, not builtin function objects,
and raise no ``c_call`` event.  So the counts are a floor on the numpy work
of an op, not all of it.
"""

import sys

import numpy as np
import pytest

import lgeo
from lgeo import generators as G
from lgeo.simplex import to_primal_many


def numpy_calls(call) -> list:
    """Names of the numpy-owned builtin calls that ``call()`` makes."""
    seen = []

    def hook(frame, event, arg):
        if event != "c_call":
            return
        owner = type(getattr(arg, "__self__", None)).__module__ or ""
        if (getattr(arg, "__module__", None) or "").startswith("numpy") or owner.startswith("numpy"):
            seen.append(getattr(arg, "__qualname__", repr(arg)))

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(outer)
    return seen


def _families():
    w = np.linspace(1.0, 2.0, 3)
    dw = G.DiversityWeighted(0.5)
    mix = G.ConvexCombination([G.ConstantWeighted(w / w.sum()), dw], [0.4, 0.6])
    return {"dw": dw, "mix": mix}


P, Q, R = np.array([[0.2, 0.3, 0.5], [0.35, 0.25, 0.4], [0.5, 0.2, 0.3]])
TH = to_primal_many(P)


def _ops(gen) -> dict:
    """The pinned ops on ``gen``, each a call without arguments."""
    ph, x0 = G.dual_coord(gen, TH).phi, TH + 1e-3
    return {
        "l_divergence": lambda: lgeo.l_divergence(gen, Q, P),
        "pythagorean_sign": lambda: lgeo.pythagorean_sign(gen, P, Q, R),
        "metric_primal": lambda: lgeo.metric_primal(gen, TH),
        "christoffel_primal": lambda: lgeo.christoffel_primal(gen, TH),
        "riem_gradient_dual": lambda: lgeo.riem_gradient_dual(gen, P, Q),
        "c_transform": lambda: lgeo.c_transform(gen, ph, x0=x0),
    }


# the counts at n = 3.  Before the stacked checks, the shared tilts and the
# Cholesky certificate they read, in the order below, 11/37/26/11/18/122
# (dw) and 14/41/29/13/20/132 (mix); riem_gradient_dual took 15 (dw) and
# 17 (mix) before its tilt came from the ratio of T(q|p).  c_transform took
# 119 (dw) and 129 (mix) while it checked phi three times and refined a
# closed form by Newton from x0
BUDGET = {
    ("dw", "l_divergence"): 8,
    ("dw", "pythagorean_sign"): 26,
    ("dw", "metric_primal"): 24,
    ("dw", "christoffel_primal"): 11,
    ("dw", "riem_gradient_dual"): 7,
    ("dw", "c_transform"): 15,
    ("mix", "l_divergence"): 11,
    ("mix", "pythagorean_sign"): 30,
    ("mix", "metric_primal"): 27,
    ("mix", "christoffel_primal"): 13,
    ("mix", "riem_gradient_dual"): 9,
    ("mix", "c_transform"): 125,
}


@pytest.mark.parametrize("family", ["dw", "mix"])
@pytest.mark.parametrize("op", ["l_divergence", "pythagorean_sign", "metric_primal",
                                "christoffel_primal", "riem_gradient_dual", "c_transform"])
def test_single_point_op_keeps_its_numpy_call_budget(family, op):
    call = _ops(_families()[family])[op]
    call()  # caches (the identity, imports) fill on the first call
    calls = numpy_calls(call)
    # fewer calls than the budget is a saving: lower the budget to pin it
    assert len(calls) == BUDGET[family, op], calls


def test_the_hook_counts_numpy_calls_only():
    x = np.arange(3.0)
    assert numpy_calls(lambda: np.add.reduce(x)) == ["ufunc.reduce"]
    assert numpy_calls(lambda: (x.all(), len(x), x + x, np.exp(x))) == ["ndarray.all", "ufunc.reduce"]


def test_an_added_call_breaks_the_budget(monkeypatch):
    gen = _families()["dw"]
    op = _ops(gen)["l_divergence"]
    log_gen = type(gen).log_gen
    monkeypatch.setattr(type(gen), "log_gen", lambda self, P: log_gen(self, np.asarray(P)))
    op()
    assert len(numpy_calls(op)) == BUDGET["dw", "l_divergence"] + 1
