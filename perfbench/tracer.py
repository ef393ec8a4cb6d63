"""Outside-in span tracing of the basisrisk modules, from the benchmark.

Nothing in the package is edited. :meth:`Tracer.install` replaces every
public function of each module, under each name the package's modules see
it by, with a wrapper that records a span (name, start, end, parent, job);
public methods of the module's classes, and the constructors listed in
``CONSTRUCTORS``, are wrapped on the class. :meth:`Tracer.restore` puts the
originals back. Spans stay in memory; :func:`layer_metrics` turns one traced
pass into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time

MODULES = ("expectile", "contracts", "weighting_pure", "weighting_index",
           "hazard", "dependence")

# Constructors that do measurable work, wrapped as "<module>.<Class>".
CONSTRUCTORS = {
    "expectile": ("EmpiricalSample",),
    "contracts": ("EmpiricalBinConditioner",),
    "hazard": ("TrackSet",),
    "dependence": ("PairedObservations",),
}


def _levels(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["gammas"])


# Per-span quantity stored with the span, computed after the call returns.
AMOUNTS = {
    "expectile.expectile": lambda args, kwargs, result: 1,
    "expectile.expectile_grid": _levels,
    "dependence.PairedObservations": lambda args, kwargs, result: args[0].m,
    "hazard.TrackSet.from_csv": lambda args, kwargs, result: sum(len(t) for t in result),
}


def _size_of(obj):
    return len(obj) if hasattr(obj, "__len__") else 0


# Calls whose arguments are kept for the microbenchmarks: the call with the
# largest key wins. Keys see (args, kwargs, result).
CAPTURE = {
    "expectile.expectile": lambda a, k, r: _size_of(a[0]),
    "expectile.expectile_grid": lambda a, k, r: _size_of(a[0]),
    "weighting_pure.v1_v2": lambda a, k, r: _size_of(a[0].triggered),
    "weighting_index.build_surface": lambda a, k, r: len(a[1]) * len(a[2]),
    "weighting_index.decompose": lambda a, k, r: a[0].size,
    "hazard.TrackSet.from_csv": lambda a, k, r: len(r),
    "hazard.incident_windspeeds": lambda a, k, r: len(a[0]),
    "hazard.simulate_portfolio": lambda a, k, r: len(a[0]),
    "dependence.plateau_k": lambda a, k, r: a[0].m,
    "dependence.gumbel_mle": lambda a, k, r: a[0].m,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "amount")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.amount = 0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Span recorder; single-threaded, like the CLI it traces."""

    def __init__(self):
        self.spans: list[Span] = []
        self.captured: dict[str, tuple] = {}
        self.job = None
        self._stack: list[int] = []
        self._undo: list = []
        self._capture_keys: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span = Span(name, 0.0, self._stack[-1] if self._stack else -1, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        amount = AMOUNTS.get(name)
        capture = CAPTURE.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if amount is not None:
                span.amount = amount(args, kwargs, result)
            if capture is not None:
                key = capture(args, kwargs, result)
                if key > self._capture_keys.get(name, -1):
                    self._capture_keys[name] = key
                    self.captured[name] = (args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the benchmark's own call."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- installation ------------------------------------------------------

    def install(self, modules: dict):
        """Wrap the public functions and methods of the package's modules.

        ``modules`` maps short names (``MODULES`` plus ``cli``) to modules.
        """
        namespaces = list(modules.values())
        modules = [modules[m] for m in MODULES]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self.wrap(f"{short}.{name}", obj)
                    for ns in namespaces:
                        if vars(ns).get(name) is obj:
                            self._set(ns, name, traced)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(short, obj)

    def _install_class(self, short, cls):
        for attr, value in list(vars(cls).items()):
            label = f"{short}.{cls.__name__}.{attr}"
            if attr == "__init__":
                if cls.__name__ in CONSTRUCTORS.get(short, ()):
                    self._set(cls, attr, self.wrap(f"{short}.{cls.__name__}", value))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(value):
                self._set(cls, attr, self.wrap(label, value))
            elif isinstance(value, (classmethod, staticmethod)):
                self._set(cls, attr, type(value)(self.wrap(label, value.__func__)))

    def wrap_commands(self, commands: dict):
        """Wrap the CLI's subcommand table, which is how ``main`` sees them."""
        for name, fn in list(commands.items()):
            traced = self.wrap(f"cli.cmd_{name.replace('-', '_')}", fn)
            commands[name] = traced
            self._undo.append((commands.__setitem__, name, fn))

    def _set(self, owner, name, value):
        self._undo.append((lambda n, v, _o=owner: setattr(_o, n, v), name,
                           vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self):
        for setter, name, original in reversed(self._undo):
            setter(name, original)
        self._undo.clear()

    def reset(self):
        self.spans.clear()
        self._stack.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

def _outermost(spans, match):
    """Spans matching ``match`` with no matching ancestor (no double count)."""
    inside = [False] * len(spans)
    out = []
    for i, s in enumerate(spans):
        p = s.parent
        covered = p >= 0 and (inside[p] or match(spans[p].name))
        inside[i] = covered
        if not covered and match(s.name):
            out.append(s)
    return out


def busy(spans, names) -> float:
    names = set(names)
    return sum(s.duration for s in _outermost(spans, names.__contains__))


def busy_prefix(spans, prefix, exclude=()) -> float:
    exclude = set(exclude)

    def match(name):
        return name.startswith(prefix) and name not in exclude

    return sum(s.duration for s in _outermost(spans, match))


def count(spans, names) -> int:
    names = set(names)
    return sum(1 for s in spans if s.name in names)


def amount(spans, names, reduce=sum):
    names = set(names)
    return reduce([s.amount for s in spans if s.name in names] or [0])


def _descendant_count(spans, ancestors, names):
    """Spans named in ``names`` that run inside a span named in ``ancestors``."""
    ancestors, names = set(ancestors), set(names)
    under = [False] * len(spans)
    n = 0
    for i, s in enumerate(spans):
        p = s.parent
        under[i] = p >= 0 and (under[p] or spans[p].name in ancestors)
        if under[i] and s.name in names:
            n += 1
    return n


def _cli_times(spans):
    children = {}
    for s in spans:
        if s.parent >= 0:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    cmd_self = 0.0
    cmd_total = 0.0
    main_total = 0.0
    for i, s in enumerate(spans):
        if s.name.startswith("cli.cmd_"):
            cmd_total += s.duration
            cmd_self += s.duration - children.get(i, 0.0)
        elif s.name == "cli.main":
            main_total += s.duration
    return cmd_self, main_total - cmd_total


SOLVERS = ("expectile.expectile", "expectile.expectile_grid")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (times in seconds)."""
    cmd_self, write = _cli_times(spans)
    solves = count(spans, ["weighting_pure.solve_gamma_star"])
    in_solves = _descendant_count(spans, ["weighting_pure.solve_gamma_star"], SOLVERS)
    wi = "weighting_index."
    return {
        "cli.cmd_self_s": cmd_self,
        "cli.write_s": write,
        "expectile.calls": count(spans, SOLVERS),
        "expectile.levels": amount(spans, SOLVERS),
        "expectile.busy_s": busy_prefix(spans, "expectile.",
                                        exclude=["expectile.EmpiricalSample"]),
        "expectile.samples_built": count(spans, ["expectile.EmpiricalSample"]),
        "expectile.build_s": busy(spans, ["expectile.EmpiricalSample"]),
        "contracts.busy_s": busy_prefix(spans, "contracts."),
        "contracts.splits": count(spans, ["contracts.split_by_trigger"]),
        "contracts.payouts": count(spans, ["contracts.pure_parametric_payout",
                                           "contracts.index_payout"]),
        "weighting_pure.solve_s": busy(spans, ["weighting_pure.solve_gamma_star"]),
        "weighting_pure.solves": solves,
        "weighting_pure.expectile_calls_per_solve": in_solves / solves if solves else 0.0,
        "weighting_pure.utility_curve_s": busy(spans, ["weighting_pure.utility_curve"]),
        "weighting_index.surface_s": busy(spans, [wi + "build_surface"]),
        "weighting_index.decompose_s": busy(spans, [wi + "decompose"]),
        "weighting_index.quantities_s": busy(spans, [wi + "index_quantities"]),
        "weighting_index.bounds_s": busy(spans, [wi + "check_bounds_index"]),
        "weighting_index.solve_s": busy(spans, [wi + "solve_gamma_star_index"]),
        "hazard.parse_s": busy(spans, ["hazard.TrackSet.from_csv"]),
        "hazard.portfolio_s": busy(spans, ["hazard.simulate_portfolio"]),
        "hazard.incident_s": busy(spans, ["hazard.incident_windspeeds"]),
        "hazard.incident_calls": count(spans, ["hazard.incident_windspeeds"]),
        "hazard.simulate_losses_s": busy(spans, ["hazard.simulate_losses"]),
        "hazard.track_points": amount(spans, ["hazard.TrackSet.from_csv"]),
        "dependence.condprob_s": busy(spans, ["dependence.conditional_probabilities"]),
        "dependence.kendall_s": busy(spans, ["dependence.kendall_tau"]),
        "dependence.xi_s": busy(spans, ["dependence.chatterjee_xi"]),
        "dependence.plateau_k_s": busy(spans, ["dependence.plateau_k"]),
        "dependence.gumbel_mle_s": busy(spans, ["dependence.gumbel_mle"]),
        "dependence.pairs": count(spans, ["dependence.PairedObservations"]),
        "dependence.joint_m_max": amount(spans, ["dependence.PairedObservations"], max),
    }


# ---------------------------------------------------------------------------
# microbenchmarks on the arguments captured from the traced pass
# ---------------------------------------------------------------------------

def _median_time(fn, budget_s=0.4, max_repeats=7):
    times = []
    t_end = time.perf_counter() + budget_s
    while len(times) < max_repeats and (len(times) < 3 or time.perf_counter() < t_end):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def microbenchmarks(modules, captured) -> dict:
    """Time the north-star hot functions on this workload's own inputs.

    Each runs on the largest arguments it was called with in the traced
    pass (``min_distance_km`` on every parsed track against the first
    site). A function the workload never reaches reports 0.
    """
    ex = modules["expectile"]
    wp = modules["weighting_pure"]
    wi = modules["weighting_index"]
    hz = modules["hazard"]
    dep = modules["dependence"]
    out = {}

    def timed(metric, name, call):
        if name in captured:
            args, kwargs, _ = captured[name]
            out[metric] = _median_time(lambda: call(args, kwargs))
        else:
            out[metric] = 0.0

    timed("expectile.micro_expectile_s", "expectile.expectile",
          lambda a, k: ex.expectile(*a, **k))
    timed("expectile.micro_grid_s", "expectile.expectile_grid",
          lambda a, k: ex.expectile_grid(*a, **k))
    timed("weighting_pure.micro_v1_v2_s", "weighting_pure.v1_v2",
          lambda a, k: wp.v1_v2(*a, **k))

    if "weighting_index.build_surface" in captured and "weighting_index.decompose" in captured:
        s_args, s_kwargs, _ = captured["weighting_index.build_surface"]
        d_args, d_kwargs, _ = captured["weighting_index.decompose"]

        def surface_then_decompose():
            surface = wi.build_surface(*s_args, **s_kwargs)
            wi.decompose(surface, *d_args[1:], **d_kwargs)

        out["weighting_index.micro_surface_decompose_s"] = _median_time(surface_then_decompose)
    else:
        out["weighting_index.micro_surface_decompose_s"] = 0.0

    site = None
    for name in ("hazard.simulate_portfolio", "hazard.incident_windspeeds"):
        if name in captured:
            arg = captured[name][0][1]
            site = arg[0] if isinstance(arg, (list, tuple)) else arg
            break
    if "hazard.TrackSet.from_csv" in captured and site is not None:
        tracks = captured["hazard.TrackSet.from_csv"][2]
        out["hazard.micro_min_distance_s"] = _median_time(
            lambda: [hz.min_distance_km(t, site) for t in tracks])
    else:
        out["hazard.micro_min_distance_s"] = 0.0

    timed("dependence.micro_plateau_k_s", "dependence.plateau_k",
          lambda a, k: dep.plateau_k(*a, **k))
    timed("dependence.micro_gumbel_mle_s", "dependence.gumbel_mle",
          lambda a, k: dep.gumbel_mle(*a, **k))
    return out
