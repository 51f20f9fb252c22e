"""The jacobilin layers as the benchmark sees them: the functools caches on
its modules, the functions wrapped for the traced run, and the per-layer
metrics computed from both.  Nothing under src/ is changed; wrapping happens
by rebinding module and class attributes from here.
"""

import sys

PACKAGE = "jacobilin"


class ColdCacheError(RuntimeError):
    """A cache still holds entries at the start of an op that must run cold."""


def package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _namespaces():
    """Every jacobilin module and every class defined in one."""
    out = []
    for mod in package_modules():
        out.append(mod)
        out += [
            v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == mod.__name__
        ]
    return out


def _is_cache(obj):
    return callable(getattr(obj, "cache_info", None)) and callable(
        getattr(obj, "cache_clear", None)
    )


def find_caches() -> dict:
    """Every functools cache bound in a jacobilin module or class, found by
    introspection rather than by a list, keyed "<module>.<function>"."""
    found = {}
    for ns in _namespaces():
        for value in list(vars(ns).values()):
            seen = set()
            while value is not None and id(value) not in seen:
                seen.add(id(value))
                if _is_cache(value):
                    module = value.__module__.rpartition(".")[2]
                    found.setdefault(f"{module}.{value.__qualname__.lstrip('_')}", value)
                value = getattr(value, "__wrapped__", None)
    return dict(sorted(found.items()))


def clear_caches(caches: dict) -> None:
    for cache in caches.values():
        cache.cache_clear()


def assert_cold(caches: dict) -> None:
    warm = [name for name, cache in caches.items() if cache.cache_info().currsize]
    if warm:
        raise ColdCacheError(f"caches not empty at op start: {', '.join(warm)}")


class CacheStats:
    """cache_info() summed over the ops of a pass: hits and misses add up,
    currsize keeps its largest value seen."""

    def __init__(self):
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}
        self.currsize: dict[str, int] = {}

    def record(self, caches: dict) -> None:
        for name, cache in caches.items():
            info = cache.cache_info()
            self.hits[name] = self.hits.get(name, 0) + info.hits
            self.misses[name] = self.misses.get(name, 0) + info.misses
            self.currsize[name] = max(self.currsize.get(name, 0), info.currsize)

    def hit_ratio(self, name: str) -> float:
        lookups = self.hits.get(name, 0) + self.misses.get(name, 0)
        return self.hits.get(name, 0) / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            name: {"hits": self.hits[name], "misses": self.misses[name],
                   "currsize": self.currsize[name]}
            for name in self.hits
        }


PARITY_CLASSES = ("even_even", "odd_odd", "mixed")


def _gencheb_parity(p, m, n):
    if m % 2 == 0 and n % 2 == 0:
        return "even_even"
    if m % 2 == 1 and n % 2 == 1:
        return "odd_odd"
    return "mixed"


# (metric prefix, module, attribute, span-name split) for every function whose
# calls and self time the traced run reports.
SPANS = (
    ("exact.pochhammer", "exact", "pochhammer", None),
    ("exact.count_real_roots", "exact", "count_real_roots", None),
    ("params.classify_region", "params", "classify_region", None),
    ("jacobi.theta_iota_kappa", "jacobi", "theta_iota_kappa", None),
    ("jacobi.gasper_boundary", "jacobi", "gasper_boundary", None),
    ("jacobi.jacobi_rec_coeffs", "jacobi", "jacobi_rec_coeffs", None),
    ("jacobi.linearize_jacobi", "jacobi", "linearize_jacobi", None),
    ("jacobi.linearize_bruteforce", "jacobi", "linearize_bruteforce", None),
    ("gencheb.linearize_gencheb", "gencheb", "linearize_gencheb", _gencheb_parity),
    ("gencheb.gencheb_rec_coeffs", "gencheb", "gencheb_rec_coeffs", None),
    ("hypergeom.rahman_coefficient", "hypergeom", "rahman_coefficient", None),
    ("hypergeom.dougall_coefficient", "hypergeom", "dougall_coefficient", None),
    ("analysis.scan_sign_pattern", "analysis", "scan_sign_pattern", None),
    ("analysis.find_negativity_witness", "analysis", "find_negativity_witness", None),
    ("analysis.iota_zero_count", "analysis", "iota_zero_count", None),
    ("analysis.pq_inequality_check", "analysis", "pq_inequality_check", None),
    ("analysis.phi_sequence", "analysis", "phi_sequence", None),
    ("cli.run_command", "cli", "run_command", None),
)
# (metric prefix, module, class, method): RationalPolynomial arithmetic.
METHOD_SPANS = (
    ("exact.poly_mul", "exact", "RationalPolynomial", "__mul__"),
    ("exact.poly_divmod", "exact", "RationalPolynomial", "__divmod__"),
)
MAKE_PARAMS = "params.make_params"
SERIES = "hypergeom.series"


def install(tracer) -> None:
    """Wrap every traced function in each namespace that bound it."""
    namespaces = _namespaces()
    modules = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
    for name, module, attr, split in SPANS:
        original = getattr(modules[module], attr, None)
        if original is not None:
            tracer.patch(namespaces, original, tracer.span(name, original, split))
    for name, module, cls, method in METHOD_SPANS:
        klass = getattr(modules[module], cls, None)
        original = None if klass is None else vars(klass).get(method)
        if original is not None:
            tracer.patch([klass], original, tracer.span(name, original))
    original = getattr(modules["params"], "make_params", None)
    if original is not None:
        tracer.patch(namespaces, original, tracer.counter(MAKE_PARAMS, original))
    klass = getattr(modules["hypergeom"], "HypTermSum", None)
    if klass is not None and "evaluate" in vars(klass):
        original = vars(klass)["evaluate"]
        counted = tracer.counter(SERIES, original, lambda series: series.term_count + 1)
        tracer.patch([klass], original, counted)


def layer_metrics(tracer, stats: CacheStats, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by BENCHMARK.json name; `counts`
    are the workload's own tallies, such as CLI exit codes."""
    out: dict[str, float] = {}
    spans = []
    for name, _module, _attr, split in SPANS:
        spans += [name] if split is None else [f"{name}.{c}" for c in PARITY_CLASSES]
    spans += [name for name, *_ in METHOD_SPANS]
    for name in spans:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = tracer.self_ns[name] / 1e9
    out[f"{MAKE_PARAMS}.calls"] = tracer.calls[MAKE_PARAMS]
    for cache in ("jacobi.linearize_jacobi", "jacobi.monomial_basis",
                  "gencheb.linearize_gencheb", "gencheb.norm_table"):
        out[f"{cache}.hit_ratio"] = stats.hit_ratio(cache)
        out[f"{cache}.currsize"] = stats.currsize.get(cache, 0)
    out["hypergeom.series_terms"] = tracer.amounts[SERIES]
    singular = tracer.errors[SERIES, "SingularSeriesError"]
    out["hypergeom.singular_ratio"] = singular / tracer.calls[SERIES] if tracer.calls[SERIES] else 0.0
    for code in (0, 1, 2):
        out[f"cli.exit_{code}"] = counts.get(f"cli.exit_{code}", 0)
    return out
