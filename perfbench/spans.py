"""Span tracing of lgeo from outside: wrappers around its layer boundaries.

:func:`install` wraps the public functions of each lgeo module and the stage
functions named in the layer map, rebinding every name under which an lgeo
module imported them (``psi`` is bound in four modules and as ``_psi`` in
``generators``); generator methods are wrapped on their classes.  Nothing in
``src/lgeo`` changes, and a wrapper returns exactly what the function
returned.

Each wrapped call is a span (name, start, end, parent, operation).  Self
time is the span's duration minus the time its child spans cover, summed per
group.  Spans are kept in memory, up to ``SPAN_CAP`` of them, and written
out at the end; counts and self times cover every call.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

SPAN_CAP = 200_000


def _rows(arg) -> int:
    shape = np.shape(arg)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self.group_of: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.stack = [0]          # time covered by children of each open span
        self.parents = [-1]       # span index of each open span
        self.spans = array("q")   # flat (index, name, start, end, parent, op)
        self.n_spans = 0
        self.originals: list[tuple] = []
        self._op_wrappers: dict = {}

    # -- recording ----------------------------------------------------------

    def _name(self, name: str, group: str) -> int:
        self.names.append(name)
        self.group_of.append(group)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def wrap(self, fn, name: str, group: str, tally=None):
        """Wrapper recording a span per call; ``tally(args, kwargs, result)``
        returns ``(counter, amount)`` pairs to add after a successful call."""
        nid = self._name(name, group)
        perf = time.perf_counter_ns
        tr, calls, self_ns = self, self.calls, self.self_ns
        stack, parents, spans = self.stack, self.parents, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            idx = tr.n_spans
            tr.n_spans = idx + 1
            parent = parents[-1]
            parents.append(idx)
            stack.append(0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                covered = stack.pop()
                parents.pop()
                stack[-1] += dur
                calls[nid] += 1
                self_ns[nid] += dur - covered
                if idx < SPAN_CAP:
                    spans.extend((idx, nid, t0, t1, parent, tr.op))
            if tally is not None:
                for key, amount in tally(args, kwargs, result):
                    tr.count(key, amount)
            return result

        return wrapper

    def run_op(self, op_index: int, kind: str, fn):
        """Run one benchmark operation as a root span."""
        self.op = op_index
        wrapped = self._op_wrappers.get(kind)
        if wrapped is None:
            wrapped = self._op_wrappers[kind] = self.wrap(lambda f: f(), f"op.{kind}", "op")
        return wrapped(fn)

    # -- per-pass aggregates ------------------------------------------------

    def reset(self) -> None:
        for i in range(len(self.calls)):
            self.calls[i] = 0
            self.self_ns[i] = 0
        self.counters = {}

    def snapshot(self) -> dict:
        """Calls, self time (s) and counters per group since the last reset."""
        calls, self_s = {}, {}
        for nid, group in enumerate(self.group_of):
            calls[group] = calls.get(group, 0) + self.calls[nid]
            self_s[group] = self_s.get(group, 0.0) + self.self_ns[nid] * 1e-9
        return {"calls": calls, "self_s": self_s, "counters": dict(self.counters)}

    def write(self, path) -> None:
        """Write the recorded spans as ``.npz`` (columns of ``spans``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        cols = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        np.savez_compressed(path, spans=cols, names=np.array(self.names),
                            groups=np.array(self.group_of),
                            columns=np.array(["index", "name", "start_ns", "end_ns",
                                              "parent", "op"]),
                            total_spans=self.n_spans)

    # -- installation -------------------------------------------------------

    def rebind(self, fn, wrapper) -> int:
        """Replace ``fn`` by ``wrapper`` under every name in every lgeo module."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lgeo" or modname.startswith("lgeo.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.originals.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    hits += 1
        return hits

    def wrap_function(self, module, attr: str, group: str, tally=None) -> None:
        fn = getattr(module, attr)
        wrapper = self.wrap(fn, f"{module.__name__.split('.')[-1]}.{attr}", group, tally)
        if self.rebind(fn, wrapper) == 0:
            raise RuntimeError(f"{module.__name__}.{attr} is bound nowhere in lgeo")

    def wrap_method(self, cls, attr: str, group: str, tally=None) -> None:
        fn = cls.__dict__[attr]
        self.originals.append((cls, attr, fn))
        setattr(cls, attr, self.wrap(fn, f"{cls.__name__}.{attr}", group, tally))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.originals):
            setattr(owner, attr, fn)
        self.originals.clear()


SCALAR_METHODS = ("log_gen", "euclid_grad", "euclid_hess_phi", "euclid_hess_Phi",
                  "portfolio", "dpi_dtheta", "dual_map_inverse")
BATCH_METHODS = ("log_gen_many", "portfolio_many", "dpi_dtheta_many")


def _public_functions(module):
    return [name for name in module.__all__
            if inspect.isfunction(getattr(module, name, None))
            and getattr(module, name).__module__ == module.__name__]


def install() -> Tracer:
    """Wrap lgeo's layer boundaries; returns the (inactive) tracer."""
    import lgeo.cli as C
    from lgeo import divergence as D
    from lgeo import finance as F
    from lgeo import generators as G
    from lgeo import geodesics as Gd
    from lgeo import geometry as Ge
    from lgeo import simplex as S
    from lgeo import transport as Tr

    tr = Tracer()
    fn = tr.wrap_function

    def rows_of(position, key):
        return lambda args, kwargs, result: ((key, _rows(args[position])),)

    # simplex: kernels, batch kernels, input validation
    for attr in ("psi", "softmax_with_tail"):
        fn(S, attr, "simplex.kernel")
    for attr in ("psi_many", "from_primal_many", "to_primal_many"):
        fn(S, attr, "simplex.batch", rows_of(0, "simplex.batch_rows"))
    fn(S, "_as_vector", "simplex.validate")
    tr.wrap_method(S.SimplexPoint, "__init__", "simplex.validate")

    # generators: methods on every family class, and the duality maps
    for cls in vars(G).values():
        if isinstance(cls, type) and issubclass(cls, G.Generator):
            for attr in SCALAR_METHODS:
                if attr in cls.__dict__:
                    tr.wrap_method(cls, attr, "generators.scalar")
            for attr in BATCH_METHODS:
                if attr in cls.__dict__:
                    tr.wrap_method(cls, attr, "generators.batch",
                                   rows_of(1, "generators.batch_rows"))
    for attr in ("portfolio", "portfolio_theta", "dual_coord", "dual_euclidean",
                 "jacobian_dual", "check_regularity"):
        fn(G, attr, "generators.maps")

    # divergence: potentials, inverse dual map, Newton solver, certificate
    fn(D, "f_value", "divergence.f_value")
    fn(D, "inverse_dual_coord", "divergence.inverse_dual")
    fn(D, "c_transform_argmin", "divergence.argmin")
    fn(D, "_newton_max_u", "divergence.newton")
    fn(D, "_u_value_grad_hess", "divergence.newton_eval")
    fn(D, "minimize", "divergence.nelder_mead")
    fn(D, "is_c_cyclical_monotone", "divergence.certificate")
    special = {"f_value", "inverse_dual_coord", "c_transform_argmin", "is_c_cyclical_monotone"}
    for attr in _public_functions(D):
        if attr not in special:
            fn(D, attr, "divergence.api")

    # geometry: every public function
    for attr in _public_functions(Ge):
        fn(Ge, attr, "geometry")

    # geodesics: node tables, quadrature, range guard, flows, region
    fn(Gd, "primal_geodesic", "geodesics.node_table")
    fn(Gd, "dual_geodesic", "geodesics.node_table")
    fn(Gd, "_reparam_from_weight", "geodesics.reparam")
    fn(Gd, "_gauss_segment", "geodesics.gauss")
    fn(Gd, "_dual_range_guard", "geodesics.range_guard")
    fn(Gd, "_rk4_step", "geodesics.rk4")
    accepted = lambda args, kwargs, result: (("geodesics.flow_accepted", len(result) - 1),)
    fn(Gd, "primal_flow", "geodesics.flow", accepted)
    fn(Gd, "dual_flow", "geodesics.flow", accepted)
    fn(Gd, "_primal_flow_rhs", "geodesics.flow")
    fn(Gd, "_dual_flow_rhs", "geodesics.flow")
    fn(Gd, "region_sample", "geodesics.region")
    fn(Gd, "region_gap", "geodesics.region_gap")
    fn(Gd, "pythagorean_sign", "geodesics.pyth")

    # transport: Gaussian audit and its Monte Carlo map, interpolation
    fn(Tr, "gaussian_example_check", "transport.gaussian")
    fn(Tr, "_graph_is_monotone", "transport.gaussian")
    fn(Tr, "_dual_map_batch", "transport.mc", rows_of(1, "transport.mc_rows"))
    for attr in ("displacement_family", "market_interpolation"):
        fn(Tr, attr, "transport.interp")
    for attr in ("generator_at", "portfolio_at", "dual_map_at", "trajectory"):
        tr.wrap_method(Tr.InterpolationFamily, attr, "transport.interp")

    # finance: ingest, decomposition, schedule comparison
    ingest_bytes = lambda args, kwargs, result: (("finance.ingest_bytes",
                                                  os.path.getsize(args[0])),)
    fn(F, "ingest_csv", "finance.ingest", ingest_bytes)
    tr.wrap_method(F.MarketPath, "__post_init__", "finance.ingest")
    fn(F, "fernholz_decompose", "finance.decompose")
    fn(F, "rebalance_compare", "finance.compare")
    fn(F, "_schedule_log_value", "finance.compare")

    # cli: parsing, dispatch, emission
    for attr in ("main", "_build_parser", "parse_generator_spec", "_generator_from_args",
                 "_point", "_vector"):
        fn(C, attr, "cli.parse")
    for attr in [a for a in vars(C) if a.startswith("_cmd_")]:
        fn(C, attr, "cli.dispatch")
    fn(C, "emit_region", "cli.emit")
    tr.wrap_method(Gd.Curve, "to_csv", "cli.emit")
    tr.wrap_method(F.BacktestReport, "to_csv", "cli.emit")
    tr.wrap_method(Tr.GaussianCheckReport, "to_csv", "cli.emit")
    return tr
