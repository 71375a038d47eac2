"""Per-layer tracing of the wondermono package, applied from outside.

The tracer replaces chosen public functions and methods with timing wrappers.
A function is rebound in every wondermono module namespace that binds it
(monomials and verify both import is_standard_on_components by name, for
instance), and a method is replaced on its class.  Coarse entry points record
spans (name, start, end, parent span, query id) kept in memory; hot
predicates, called millions of times on verify-rank2, only accumulate calls
and time.  Self time is a call's duration minus the time of the wrapped calls
nested inside it; the wrappers' own cost (about a microsecond per call) is
charged to the caller, which is why trace.overhead_ratio is reported.  A
target that no longer exists is skipped and the metrics built on it are
reported as absent (null), never as a failure.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("rootsys", "weyl", "paths", "demazure", "orbits", "monomials", "verify", "cli")

# (stat name, module, attribute path, records spans)
TARGETS = (
    ("rootsys.from_name", "rootsys", "from_name", False),
    ("rootsys.build", "rootsys", "build", False),
    ("rootsys.dominant_below", "rootsys", "dominant_below", False),
    ("weyl.group_build", "weyl", "WeylGroup.__init__", True),
    ("weyl.bruhat_leq", "weyl", "WeylGroup.bruhat_leq", False),
    ("paths.generate_paths", "paths", "generate_paths", True),
    ("paths.generate_pairs", "paths", "generate_pairs", True),
    ("paths.root_lower", "paths", "root_lower", False),
    ("paths.initial_direction", "paths", "initial_direction", False),
    ("paths.endpoint", "paths", "LSPath.endpoint", False),
    ("demazure.demazure_character", "demazure", "demazure_character", True),
    ("demazure.weyl_dim", "demazure", "weyl_dim", False),
    ("orbits.build_poset", "orbits", "build_poset", True),
    ("orbits.cover_pairs", "orbits", "OrbitPoset.cover_pairs", True),
    ("orbits.meet_components", "orbits", "OrbitPoset.meet_components", True),
    # close to a million calls on verify-rank2, too many to keep as spans
    ("orbits.schubert_pairs", "orbits", "schubert_pairs", False),
    ("orbits.closure_leq", "orbits", "closure_leq", False),
    ("monomials.basis_indices", "monomials", "basis_indices", True),
    ("monomials.graded_counts", "monomials", "graded_counts", True),
    ("monomials.is_standard_on_components", "monomials", "is_standard_on_components", False),
    ("monomials.is_standard_on_closure", "monomials", "is_standard_on_closure", False),
    ("monomials.nonstandard_components", "monomials", "nonstandard_components", False),
    ("verify.run_suite", "verify", "run_suite", True),
    ("cli.main", "cli", "main", True),
)

STANDARD_TESTS = ("monomials.is_standard_on_components", "monomials.is_standard_on_closure")
CACHED = ("paths.generate_pairs", "orbits.schubert_pairs")


class Stat:
    __slots__ = ("name", "calls", "total_s", "self_s")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.posets: list = []
        self.query = None
        self._frames: list[float] = []  # time of wrapped calls nested in each open call
        self._open_spans: list[int] = []
        self._undo: list[tuple] = []
        self._cached: dict[str, object] = {}
        self._cache_start: dict[str, object] = {}
        self._cache_end: dict[str, object] = {}
        self._seen_paths: set = set()
        self._seen_models: set = set()
        self._seen_labels: set = set()
        self._hooks = {
            "paths.generate_paths": self._on_paths,
            "paths.root_lower": self._on_lower,
            "orbits.build_poset": self._on_poset,
            "orbits.cover_pairs": self._on_covers,
            "orbits.schubert_pairs": self._on_components,
            "monomials.basis_indices": self._on_indices,
            "monomials.is_standard_on_components": self._on_standard,
            "monomials.is_standard_on_closure": self._on_standard,
            "verify.run_suite": self._on_suite,
            "cli.main": self._on_cli,
        }

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        modules = {}
        for mod in LAYERS:
            try:
                modules[mod] = importlib.import_module(f"{package.__name__}.{mod}")
            except ImportError:
                pass
        prefix = package.__name__ + "."
        namespaces = [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
        for name, mod, attr, span in TARGETS:
            owner = modules.get(mod)
            if owner is None:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, leaf, None) if owner is not None else None
            if orig is None:
                continue
            stat = self.stats[name] = Stat(name)
            wrapper = self._wrap(orig, stat, span, self._hooks.get(name))
            if path:  # a method: the class attribute is the only binding
                self._rebind(owner, leaf, orig, wrapper)
            else:
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            self._rebind(ns, key, orig, wrapper)
            if name in CACHED and hasattr(orig, "cache_info"):
                self._cached[name] = orig
                self._cache_start[name] = orig.cache_info()

    def _rebind(self, ns, key, orig, wrapper) -> None:
        setattr(ns, key, wrapper)
        self._undo.append((ns, key, orig))

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._undo):
            setattr(ns, key, orig)
        self._undo.clear()
        for name, orig in self._cached.items():
            self._cache_end[name] = orig.cache_info()

    def _wrap(self, fn, stat: Stat, span: bool, hook):
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        clock = perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if span:
                sid = len(spans) + len(open_spans)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            frames.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frames.pop()
                if span:
                    open_spans.pop()
                    spans.append((sid, stat.name, start, end, parent, tracer.query))
                if frames:
                    frames[-1] += elapsed
            if hook is not None:
                hook(args, out)
                if frames:
                    # the hook is benchmark time, not the caller's
                    frames[-1] += clock() - end
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: counts measured where the work happens --------------------------

    def _on_paths(self, args, out) -> None:
        key = (args[0].name, tuple(args[1]))
        if key not in self._seen_models:
            self._seen_models.add(key)
            self.counts["paths_out"] += len(out)

    def _on_lower(self, args, out) -> None:
        if out is None:
            return
        self.counts["lowered"] += 1
        key = (args[0].name, out)
        if key not in self._seen_paths:
            self._seen_paths.add(key)
            self.counts["lowered_new"] += 1

    def _on_poset(self, args, out) -> None:
        self.posets.append(out)

    def _on_covers(self, args, out) -> None:
        self.counts["covers"] += len(out)

    def _on_components(self, args, out) -> None:
        if args[0] not in self._seen_labels:
            self._seen_labels.add(args[0])
            self.counts["components_out"] += len(out)

    def _on_indices(self, args, out) -> None:
        self.counts["indices_out"] += len(out)

    def _on_standard(self, args, out) -> None:
        self.counts["standard_tests"] += 1
        self.counts["standard_true"] += bool(out)

    def _on_suite(self, args, out) -> None:
        for r in out:
            self.counts[f"checks_{r.status}"] += 1

    def _on_cli(self, args, out) -> None:
        # the benchmark captures stdout in a fresh StringIO per command
        buf = sys.stdout
        if hasattr(buf, "getvalue"):
            self.counts["cli_bytes"] += len(buf.getvalue().encode())

    # -- queries and results ---------------------------------------------

    def begin_query(self, qid: str) -> None:
        self.query = qid
        self._open_spans.append(len(self.spans) + len(self._open_spans))
        self._query_start = perf_counter()

    def end_query(self) -> None:
        sid = self._open_spans.pop()
        self.spans.append((sid, "query", self._query_start, perf_counter(), None, self.query))
        self.query = None

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "query")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def metrics(self) -> dict[str, float | None]:
        """Every per-layer metric except trace.overhead_ratio, which needs an untraced run."""
        stats, counts = self.stats, self.counts

        def field(name, attr):
            stat = stats.get(name)
            return None if stat is None else getattr(stat, attr)

        def count(key, name):
            return counts[key] if name in stats else None

        def ratio(num, den, name):
            if name not in stats:
                return None
            return counts[num] / counts[den] if counts[den] else 0.0

        def hit_ratio(name):
            if name not in self._cache_end:
                return None
            before, after = self._cache_start[name], self._cache_end[name]
            hits, misses = after.hits - before.hits, after.misses - before.misses
            return hits / (hits + misses) if hits + misses else 0.0

        have_poset = "orbits.build_poset" in stats
        std_present = all(n in stats for n in STANDARD_TESTS)
        out = {
            "weyl.group_build_s": field("weyl.group_build", "total_s"),
            "weyl.bruhat_leq.calls": field("weyl.bruhat_leq", "calls"),
            "weyl.bruhat_leq.self_s": field("weyl.bruhat_leq", "self_s"),
            "rootsys.dominant_below.calls": field("rootsys.dominant_below", "calls"),
            "paths.generate_paths.calls": field("paths.generate_paths", "calls"),
            "paths.generate_paths.self_s": field("paths.generate_paths", "self_s"),
            "paths.paths_out": count("paths_out", "paths.generate_paths"),
            "paths.root_lower.calls": field("paths.root_lower", "calls"),
            "paths.root_lower.useful_ratio": ratio("lowered_new", "lowered", "paths.root_lower"),
            "paths.endpoint.self_s": field("paths.endpoint", "self_s"),
            "paths.initial_direction.calls": field("paths.initial_direction", "calls"),
            "paths.initial_direction.self_s": field("paths.initial_direction", "self_s"),
            "paths.generate_pairs.calls": field("paths.generate_pairs", "calls"),
            "paths.generate_pairs.hit_ratio": hit_ratio("paths.generate_pairs"),
            "demazure.demazure_character.calls": field("demazure.demazure_character", "calls"),
            "demazure.demazure_character.self_s": field("demazure.demazure_character", "self_s"),
            "demazure.weyl_dim.calls": field("demazure.weyl_dim", "calls"),
            "demazure.weyl_dim.self_s": field("demazure.weyl_dim", "self_s"),
            "orbits.build_poset.self_s": field("orbits.build_poset", "self_s"),
            "orbits.labels": sum(len(p) for p in self.posets) if have_poset else None,
            "orbits.relation_bits": (
                sum(m.bit_count() for p in self.posets for m in p.down_masks()) if have_poset else None
            ),
            "orbits.cover_pairs.self_s": field("orbits.cover_pairs", "self_s"),
            "orbits.covers": count("covers", "orbits.cover_pairs"),
            "orbits.meet_components.calls": field("orbits.meet_components", "calls"),
            "orbits.meet_components.self_s": field("orbits.meet_components", "self_s"),
            "orbits.schubert_pairs.calls": field("orbits.schubert_pairs", "calls"),
            "orbits.schubert_pairs.hit_ratio": hit_ratio("orbits.schubert_pairs"),
            "orbits.components_out": count("components_out", "orbits.schubert_pairs"),
            "orbits.closure_leq.calls": field("orbits.closure_leq", "calls"),
            "orbits.closure_leq.self_s": field("orbits.closure_leq", "self_s"),
            "monomials.basis_indices.calls": field("monomials.basis_indices", "calls"),
            "monomials.basis_indices.self_s": field("monomials.basis_indices", "self_s"),
            "monomials.indices_out": count("indices_out", "monomials.basis_indices"),
            "monomials.graded_counts.self_s": field("monomials.graded_counts", "self_s"),
            "monomials.standard_tests": counts["standard_tests"] if std_present else None,
            "monomials.standard_ratio": (
                ratio("standard_true", "standard_tests", STANDARD_TESTS[0]) if std_present else None
            ),
            "monomials.nonstandard_components.self_s": field("monomials.nonstandard_components", "self_s"),
            "verify.run_suite.self_s": field("verify.run_suite", "self_s"),
            "verify.checks_pass": count("checks_pass", "verify.run_suite"),
            "verify.checks_skip": count("checks_skip", "verify.run_suite"),
            "cli.main.self_s": field("cli.main", "self_s"),
            "cli.bytes_out": count("cli_bytes", "cli.main"),
        }
        total = sum(s.self_s for s in stats.values())
        for layer in LAYERS:
            own = [s.self_s for s in stats.values() if s.name.split(".")[0] == layer]
            out[f"{layer}.self_share"] = (sum(own) / total if total else 0.0) if own else None
        return out
