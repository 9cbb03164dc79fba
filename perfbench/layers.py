"""Which library functions the traced run wraps, and the per-layer metrics.

Each target is a public function or method of one catlattice module.  Its
span is named "<module>.<attribute>".  A target that no longer exists is
reported as missing, so a rename shows up instead of silently reading 0.
"""
import importlib
import resource
import statistics
import sys

from spans import self_times

PACKAGE = "catlattice"


def _maxrss_mb(args, kwargs, result):
    return {"maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}


def _liouvillian_size(args, kwargs, result):
    return {"rows": result.n_rows, "nnz": result.sup.nnz}


def _corner_dim(args, kwargs, result):
    return {"m": result.m}


# (module, attribute) pairs; the attribute may be Class.method
TARGETS = (
    [("fock", f) for f in ("annihilation_op", "number_op", "identity_op",
                           "embed_site_op", "total_number_diagonal",
                           "parity_op")]
    + [("lattice", f) for f in ("chain", "rectangle", "geometry_from_size",
                                "build_hamiltonian", "build_jump_operators")]
    + [("liouville", "vectorize_lindbladian", _liouvillian_size),
       ("liouville", "solve_steady_state")]
    + [("liouville", f, _maxrss_mb) for f in ("steady_state_direct",
                                             "steady_state_eigen",
                                             "steady_state_time")]
    + [("corner", "convergence_sweep"),
       ("corner", "corner_steady_state", _maxrss_mb),
       ("corner", "merge_spaces", _corner_dim),
       ("corner", "project_pair"), ("corner", "project_operator")]
    + [("observables", f) for f in ("parity_expectation",
                                    "von_neumann_entropy", "expectation",
                                    "site_density", "correlation",
                                    "trace_distance")]
    + [("store", "SweepStore.__init__"), ("store", "SweepStore.append"),
       ("store", "SweepStore.to_csv"), ("store", "read_rows")]
    + [("sweep", "run_sweep"), ("sweep", "solve_point")]
    + [("analyze", "analyze_rows"), ("scaling", "find_crossing")]
)

# the benchmark's own span around the resume pass of the sweep workload
RESUME_SPAN = "bench.resume"

LIOUVILLE_SOLVES = ("liouville.steady_state_direct",
                    "liouville.steady_state_eigen",
                    "liouville.steady_state_time")


def install(tracer):
    """Wrap every target; returns the names that could not be found."""
    importlib.import_module(PACKAGE)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    missing = []
    for target in TARGETS:
        module_name, attr = target[0], target[1]
        hook = target[2] if len(target) > 2 else None
        span_name = module_name + "." + attr
        try:
            holder = importlib.import_module(PACKAGE + "." + module_name)
        except ImportError:
            missing.append(span_name)
            continue
        owner, _, leaf = attr.rpartition(".")
        if owner:
            holder = getattr(holder, owner, None)
        found = holder is not None and tracer.patch(
            holder, leaf, span_name, hook, rebind_in=() if owner else modules)
        if not found:
            missing.append(span_name)
    return missing


# metric name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "lattice.build_s": ("s", "lower"),
    "lattice.build_calls": ("count", "lower"),
    "liouville.assemble_s": ("s", "lower"),
    "liouville.rows": ("count", "lower"),
    "liouville.nnz": ("count", "lower"),
    "liouville.solve_s": ("s", "lower"),
    "liouville.solve_calls": ("count", "lower"),
    "liouville.peak_rss_mb": ("MB", "lower"),
    "corner.block_solve_s": ("s", "lower"),
    "corner.merge_s": ("s", "lower"),
    "corner.merges": ("count", "lower"),
    "corner.project_s": ("s", "lower"),
    "corner.projections": ("count", "lower"),
    "corner.runs_per_point": ("count", "lower"),
    "corner.m_max": ("count", "higher"),
    "corner.superop_bytes": ("B", "lower"),
    "corner.peak_rss_mb": ("MB", "lower"),
    "observables.s": ("s", "lower"),
    "store.append_s": ("s", "lower"),
    "store.appends": ("count", "lower"),
    "store.load_s": ("s", "lower"),
    "store.csv_s": ("s", "lower"),
    "sweep.resume_s": ("s", "lower"),
    "sweep.point_s": ("s", "lower"),
    "analyze.s": ("s", "lower"),
    "scaling.crossing_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.missing": ("count", "lower"),
}


def layer_metrics(spans):
    """Per-layer values from the spans of the traced timed phase.

    "_s" metrics are self times summed over the layer's spans, except
    sweep.point_s (median duration of one solve_point), sweep.resume_s,
    analyze.s and scaling.crossing_s, which are whole durations.
    """
    selfs = self_times(spans)

    def named(*names):
        return [(s, t) for s, t in zip(spans, selfs) if s.name in names]

    def prefixed(*prefixes):
        return [(s, t) for s, t in zip(spans, selfs)
                if s.name.split(".")[0] in prefixes]

    def self_sum(pairs):
        return sum(t for _, t in pairs)

    def whole_sum(pairs):
        return sum(s.duration for s, _ in pairs)

    def count_sum(pairs, key):
        return sum(s.counts.get(key, 0) for s, _ in pairs)

    def count_max(pairs, key):
        return max((s.counts.get(key, 0) for s, _ in pairs), default=0)

    build = prefixed("fock", "lattice")
    build_entries = [(s, t) for s, t in build
                     if s.parent is None or spans[s.parent].name.split(".")[0]
                     not in ("fock", "lattice")]
    solves = named(*LIOUVILLE_SOLVES)
    blocks = named("corner.corner_steady_state")
    sweeps = named("corner.convergence_sweep")
    merges = named("corner.merge_spaces")
    points = named("sweep.solve_point")
    return {
        "lattice.build_s": self_sum(build),
        "lattice.build_calls": len(build_entries),
        "liouville.assemble_s": self_sum(named("liouville.vectorize_lindbladian")),
        "liouville.rows": count_sum(named("liouville.vectorize_lindbladian"), "rows"),
        "liouville.nnz": count_sum(named("liouville.vectorize_lindbladian"), "nnz"),
        "liouville.solve_s": self_sum(solves),
        "liouville.solve_calls": len(solves),
        "liouville.peak_rss_mb": count_max(solves, "maxrss_mb"),
        "corner.block_solve_s": self_sum(blocks),
        "corner.merge_s": self_sum(merges),
        "corner.merges": len(merges),
        "corner.project_s": self_sum(named("corner.project_pair",
                                           "corner.project_operator")),
        "corner.projections": len(named("corner.project_pair",
                                        "corner.project_operator")),
        "corner.runs_per_point": len(blocks) / len(sweeps) if sweeps else 0.0,
        "corner.m_max": count_max(merges, "m"),
        "corner.superop_bytes": sum(16 * s.counts.get("m", 0) ** 4
                                    for s, _ in merges),
        "corner.peak_rss_mb": count_max(blocks, "maxrss_mb"),
        "observables.s": self_sum(prefixed("observables")),
        "store.append_s": self_sum(named("store.SweepStore.append")),
        "store.appends": len(named("store.SweepStore.append")),
        "store.load_s": self_sum(named("store.SweepStore.__init__",
                                       "store.read_rows")),
        "store.csv_s": self_sum(named("store.SweepStore.to_csv")),
        "sweep.resume_s": whole_sum(named(RESUME_SPAN)),
        "sweep.point_s": (statistics.median(s.duration for s, _ in points)
                          if points else 0.0),
        "analyze.s": whole_sum(named("analyze.analyze_rows")),
        "scaling.crossing_s": whole_sum(named("scaling.find_crossing")),
    }
