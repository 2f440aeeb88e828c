"""Tracing wreathsph from outside: wrap its public functions, count calls,
accumulate self time, and record coarse spans.

Every public function of every module, and a fixed set of methods, is
replaced by a counting wrapper at every place it is bound: each module
namespace of the package (a function imported into another module is a
second binding), module-level tuples such as the acceptance criteria
list, and class attributes that alias one another (CycNum.__radd__ is
CycNum.__add__).

Self time of a wrapped call is its duration minus the time spent in the
wrapped calls it made.  Only the coarse functions in SPANS also record a
span (name, start, end, parent span, job id); hot primitives keep just a
count and accumulated time, so a trace never holds millions of spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

MODULES = ("cyclo", "partitions", "symfunc", "groups", "wreath", "spherical",
           "acceptance", "cli")

# Methods wrapped besides the module-level public functions.
METHODS = {
    "cyclo": {"CycNum": ("__add__", "__mul__", "__neg__", "__sub__", "__rsub__",
                         "__pow__", "__truediv__", "inverse", "conjugate")},
    "partitions": {"Partition": ("__init__", "__hash__")},
    "symfunc": {"SymFuncElem": ("__add__", "__mul__", "scale", "change_alphabet")},
    "wreath": {"PairedChar": ("value",)},
    "spherical": {"SphericalContext": ("__init__", "brute", "brute_at_element")},
}

SPANS = frozenset({
    "spherical.SphericalContext.init", "spherical.build_table",
    "spherical.reconcile", "spherical.ch_image_product", "wreath.hg_elements",
    "wreath.wreath_table_json", "wreath.decompose_induced", "cli.main",
})

# Criteria and subcommands the workloads run, each reported with its time.
ACCEPTANCE_CRITERIA = (1, 2, 3, 6, 7, 9)
CLI_COMMANDS = ("spherical", "validate", "nu2", "decompose", "selftest")

# functools caches whose hit ratios are read with cache_info().
MEMOS = ("symfunc.sym_character", "symfunc.jack_p", "symfunc.schurq_p",
         "symfunc.schur_p", "wreath.hyperoct_perms")


def _stat_name(module: str, qualname: str) -> str:
    return module + "." + ".".join(p.strip("_") for p in qualname.split("."))


class Tracer:
    """Per-process call counters, self times and spans for wreathsph."""

    def __init__(self):
        # name -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        # derived counts filled in by the hooks below
        self.extra: dict[str, float] = {
            "cyclo.rational_pairs": 0, "wreath.k_elements": 0,
            "wreath.wreath_character.misses": 0, "spherical.brute_contexts": 0,
            "spherical.k_passes": 0.0, "spherical.k_useful": 0,
            "spherical.cache_hits": 0, "spherical.cache_store.bytes": 0,
        }
        self.coset_labels: set = set()
        self.spans: list[dict] = []
        self.job: str | None = None
        self.t0 = time.perf_counter()
        self._frames = [[0.0]]  # child time of each open wrapped call
        self._open_spans: list[list] = []  # [span id, child-span seconds]
        self._undo: list[tuple] = []
        self._memo_base: dict[str, tuple[int, int]] = {}
        self._memos: dict = {}

    # -- wrappers --------------------------------------------------------------

    def _plain(self, fn, stat):
        frames, clock = self._frames, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t
                frames.pop()
                frames[-1][0] += dt
                stat[0] += 1
                stat[1] += dt - frame[0]
                stat[2] += dt

        return wrapper

    def _cyc_binop(self, fn, stat):
        """CycNum + and *, also counting calls whose operands are both rational."""
        extra, plain = self.extra, self._plain(fn, stat)

        def wrapper(a, b):
            if a.conductor == 1 and getattr(b, "conductor", 1) == 1:
                extra["cyclo.rational_pairs"] += 1
            return plain(a, b)

        return wrapper

    def _spanned(self, fn, name, before=None, after=None, rename=None):
        """A timed wrapper that also records a span.  rename picks the
        counter from the arguments; the hooks see arguments and result."""
        timed = {}

        def wrapper(*args, **kwargs):
            key = rename(args, kwargs) if rename else name
            if key not in timed:
                timed[key] = self._plain(fn, self.stats.setdefault(key, [0, 0.0, 0.0]))
            state = before(args, kwargs) if before else None
            with self.span(key):
                result = timed[key](*args, **kwargs)
            if after:
                after(state, args, kwargs, result)
            return result

        return wrapper

    def _hooked(self, fn, stat, after):
        plain = self._plain(fn, stat)

        def wrapper(*args, **kwargs):
            result = plain(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def _make(self, fn, name):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        extra = self.extra
        if name in ("cyclo.CycNum.add", "cyclo.CycNum.mul"):
            return self._cyc_binop(fn, stat)
        if name == "wreath.hg_elements":
            def after(_state, _a, _k, result):
                extra["wreath.k_elements"] += len(result)
            return self._spanned(fn, name, after=after)
        if name in ("spherical.build_table", "spherical.reconcile"):
            return self._spanned(fn, name, *self._k_pass_hooks(name))
        if name == "cli.main":
            def subcommand(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                return f"cli.main.{argv[0] if argv else 'none'}"
            return self._spanned(fn, name, rename=subcommand)
        if name in SPANS:
            return self._spanned(fn, name)
        if name == "wreath.wreath_character":
            plain = self._plain(fn, stat)

            def wreath_character(table, lam, tau):
                size = len(table._wreath_cache)
                value = plain(table, lam, tau)
                if len(table._wreath_cache) > size:
                    extra["wreath.wreath_character.misses"] += 1
                return value

            return wreath_character
        if name == "spherical.coset_order":
            def coset_label(args, _result):
                ctx, rho = args
                self.coset_labels.add((ctx.group.name, ctx.xi, ctx.n, rho))
            return self._hooked(fn, stat, coset_label)
        if name == "spherical.cache_load":
            def cache_hit(_args, result):
                extra["spherical.cache_hits"] += result is not None
            return self._hooked(fn, stat, cache_hit)
        if name == "spherical.cache_store":
            def stored(args, _result):
                if args[0] is not None:
                    extra["spherical.cache_store.bytes"] += len(args[2].encode())
            return self._hooked(fn, stat, stored)
        return self._plain(fn, stat)

    def _k_pass_hooks(self, name):
        """Passes over K (class_type calls / |K|) made by one brute build or
        reconcile, and the passes it needed: one per column and one for the
        identity element."""
        class_type = self.stats.setdefault("wreath.class_type", [0, 0.0, 0.0])
        extra = self.extra

        def before(args, kwargs):
            if name == "spherical.build_table":
                engine = args[1] if len(args) > 1 else kwargs.get("engine", "brute")
                if engine != "brute":
                    return None
            return class_type[0]

        def after(start, args, _kwargs, _result):
            if start is None:
                return
            ctx = args[0]
            extra["spherical.brute_contexts"] += 1
            extra["spherical.k_passes"] += (class_type[0] - start) / ctx.hg_size
            extra["spherical.k_useful"] += len(ctx.cols) + 1

        def rename(args, kwargs):
            engine = args[1] if len(args) > 1 else kwargs.get("engine", "brute")
            return f"spherical.build_table.{engine}"

        if name == "spherical.reconcile":
            return before, after, None
        return before, after, rename

    # -- spans -----------------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span; its self time excludes the time its child spans cover."""
        parent = self._open_spans[-1][0] if self._open_spans else None
        entry = [len(self.spans), 0.0]
        record = {"name": name, "id": entry[0], "parent": parent, "job": self.job}
        self.spans.append(record)
        self._open_spans.append(entry)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open_spans.pop()
            if self._open_spans:
                self._open_spans[-1][1] += end - start
            record.update(start=start - self.t0, end=end - self.t0,
                          self=end - start - entry[1])

    @contextlib.contextmanager
    def job_span(self, job: str):
        """A span around one benchmark job; it records the calls made inside it."""
        before = {k: v[0] for k, v in self.stats.items()}
        self.job = job
        index = len(self.spans)
        try:
            with self.span("job"):
                yield
        finally:
            self.job = None
            self.spans[index]["calls"] = {
                k: v[0] - before.get(k, 0) for k, v in self.stats.items()
                if v[0] != before.get(k, 0)
            }

    # -- installing ------------------------------------------------------------------

    def install(self):
        """Wrap every public function and listed method at every binding."""
        mods = {m: importlib.import_module(f"wreathsph.{m}") for m in MODULES}
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._make(obj, name))
                    if name in MEMOS:
                        self._memos[name] = obj
                        info = obj.cache_info()
                        self._memo_base[name] = (info.hits, info.misses)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = vars(mod)[cls_name]
                for meth in methods:
                    fn = vars(cls)[meth]
                    name = _stat_name(short, f"{cls_name}.{meth}")
                    wrappers[id(fn)] = (fn, self._make(fn, name))

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit and hit[0] is value else None

        classes = set()
        for owner in (importlib.import_module("wreathsph"), *mods.values()):
            for attr, value in list(vars(owner).items()):
                new = swap(value)
                if new is None and isinstance(value, (tuple, list)):
                    items = [swap(v) or v for v in value]
                    if any(a is not b for a, b in zip(items, value)):
                        new = type(value)(items)
                if new is not None:
                    self._undo.append((owner, attr, value))
                    setattr(owner, attr, new)
                elif isinstance(value, type) and value.__module__.startswith("wreathsph"):
                    classes.add(value)
        for cls in classes:
            for attr, value in list(vars(cls).items()):
                new = swap(value)
                if new is not None:
                    self._undo.append((cls, attr, value))
                    setattr(cls, attr, new)
        return self

    def uninstall(self):
        """Put every original binding back."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading ----------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def module_self_s(self, module: str) -> float:
        return sum(v[1] for k, v in self.stats.items() if k.startswith(module + "."))

    def memo(self, name: str) -> tuple[int, int]:
        """Hits and lookups of a functools cache since install."""
        info = self._memos[name].cache_info()
        hits0, misses0 = self._memo_base[name]
        hits = info.hits - hits0
        return hits, hits + info.misses - misses0

    def write_jsonl(self, path):
        """Write the spans, then one record with every counter."""
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"name": "counters", "stats": self.stats,
                                 "extra": self.extra}) + "\n")

    # -- per-layer metrics --------------------------------------------------------------

    def per_layer(self, stdout_bytes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit).

        A ratio is 0 when its base count is 0; the base is reported beside it.
        """
        out: dict[str, tuple[float, str]] = {}

        def count(name, value):
            out[name] = (value, "count")

        def secs(name, value):
            out[name] = (value, "s")

        def ratio(name, part, base):
            out[name] = (part / base if base else 0.0, "ratio")

        c, s, x = self.calls, self.self_s, self.extra
        count("cyclo.canonicalize.calls", c("cyclo.canonicalize"))
        secs("cyclo.canonicalize.self_s", s("cyclo.canonicalize"))
        count("cyclo.mul.calls", c("cyclo.CycNum.mul"))
        count("cyclo.add.calls", c("cyclo.CycNum.add"))
        ratio("cyclo.rational_fastpath_ratio", x["cyclo.rational_pairs"],
              c("cyclo.CycNum.mul") + c("cyclo.CycNum.add"))
        secs("cyclo.self_s", self.module_self_s("cyclo"))

        count("partitions.Partition.init.calls", c("partitions.Partition.init"))
        count("partitions.Partition.hash.calls", c("partitions.Partition.hash"))
        count("partitions.multipartitions.calls", c("partitions.multipartitions"))
        secs("partitions.self_s", self.module_self_s("partitions"))

        for memo in MEMOS:
            hits, lookups = self.memo(memo)
            count(f"{memo}.calls", lookups)
            ratio(f"{memo}.hit_ratio", hits, lookups)
        count("symfunc.change_alphabet.calls", c("symfunc.SymFuncElem.change_alphabet"))
        secs("symfunc.change_alphabet.self_s", s("symfunc.SymFuncElem.change_alphabet"))
        count("symfunc.SymFuncElem.mul.calls", c("symfunc.SymFuncElem.mul"))
        secs("symfunc.SymFuncElem.mul.self_s", s("symfunc.SymFuncElem.mul"))
        secs("symfunc.self_s", self.module_self_s("symfunc"))

        for name in ("load_table", "fuse_classes"):
            count(f"groups.{name}.calls", c(f"groups.{name}"))
            secs(f"groups.{name}.self_s", s(f"groups.{name}"))
        count("groups.twisted_indicator.calls", c("groups.twisted_indicator"))

        count("wreath.hg_elements.calls", c("wreath.hg_elements"))
        count("wreath.k_elements", x["wreath.k_elements"])
        count("wreath.class_type.calls", c("wreath.class_type"))
        secs("wreath.class_type.self_s", s("wreath.class_type"))
        count("wreath.w_mul.calls", c("wreath.w_mul"))
        count("wreath.PairedChar.value.calls", c("wreath.PairedChar.value"))
        secs("wreath.PairedChar.value.self_s", s("wreath.PairedChar.value"))
        count("wreath.hyperoct_decompose.calls", c("wreath.hyperoct_decompose"))
        count("wreath.wreath_character.calls", c("wreath.wreath_character"))
        secs("wreath.wreath_character.self_s", s("wreath.wreath_character"))
        lookups = c("wreath.wreath_character")
        ratio("wreath.wreath_character.hit_ratio",
              lookups - x["wreath.wreath_character.misses"], lookups)
        secs("wreath.decompose_induced.self_s", s("wreath.decompose_induced"))
        secs("wreath.self_s", self.module_self_s("wreath"))

        secs("spherical.context.self_s", s("spherical.SphericalContext.init"))
        for engine in ("brute", "closed", "symfunc"):
            secs(f"spherical.build_table.{engine}.s",
                 self.total_s(f"spherical.build_table.{engine}"))
        secs("spherical.reconcile.s", self.total_s("spherical.reconcile"))
        count("spherical.brute_contexts", x["spherical.brute_contexts"])
        out["spherical.k_passes"] = (x["spherical.k_passes"], "count")
        ratio("spherical.k_pass_useful_ratio", x["spherical.k_useful"],
              x["spherical.k_passes"])
        count("spherical.coset_order.calls", c("spherical.coset_order"))
        ratio("spherical.coset_order.useful_ratio", len(self.coset_labels),
              c("spherical.coset_order"))
        count("spherical.ch_image_product.calls", c("spherical.ch_image_product"))
        secs("spherical.ch_image_product.self_s", s("spherical.ch_image_product"))
        count("spherical.classical_spherical.calls", c("spherical.classical_spherical"))
        count("spherical.cache_load.calls", c("spherical.cache_load"))
        ratio("spherical.cache_hit_ratio", x["spherical.cache_hits"],
              c("spherical.cache_load"))
        out["spherical.cache_store.bytes"] = (x["spherical.cache_store.bytes"], "bytes")
        secs("spherical.cache_store.self_s", s("spherical.cache_store"))
        secs("spherical.self_s", self.module_self_s("spherical"))

        for k in ACCEPTANCE_CRITERIA:
            secs(f"acceptance.criterion_{k}.s", self.total_s(f"acceptance.criterion_{k}"))
        for cmd in CLI_COMMANDS:
            secs(f"cli.main.{cmd}.s", self.total_s(f"cli.main.{cmd}"))
        out["cli.bytes_out"] = (stdout_bytes, "bytes")
        return out
