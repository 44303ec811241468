"""Span recording for the traced benchmark run.

Spans are recorded only from the benchmark's side: `install` swaps the public
functions of each prlab module for wrappers that open a span around the call.
The library calls its own helpers through module globals (for example
`good_coloring` looks up `solutions_by_max` at call time), so a wrapper
installed on a module attribute also sees the library's internal calls, and
nested spans show how a layer's time splits. Nothing under `src/` changes.

Spans live in flat arrays (name, start, end, parent, job) until the run
ends; `write_tsv` then writes them out.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) -> span name. Several functions may share one span name.
SPAN_TABLE = (
    ("prlab.search", "good_coloring", "search.backtrack"),
    ("prlab.search", "forcing_number", "search.forcing"),
    ("prlab.search", "solutions_by_max", "search.index"),
    ("prlab.search", "enumerate_solutions", "search.enumerate"),
    ("prlab.search", "mono_witness", "search.witness"),
    ("prlab.search", "vdw325_extract", "search.extract"),
    ("prlab.rado", "columns_condition", "rado.columns"),
    ("prlab.rado", "verify_columns_certificate", "rado.verify"),
    ("prlab.rado", "linear_pr", "rado.linear_pr"),
    ("prlab.rado", "blocking_prime", "rado.blocking_prime"),
    ("prlab.rado", "smod", "rado.smod"),
    ("prlab.rado", "parametric_solution", "rado.parametric"),
    ("prlab.folkman", "fs", "folkman.fs"),
    ("prlab.folkman", "folkman_matrix", "folkman.matrix"),
    ("prlab.folkman", "weakly_monochromatic", "folkman.weak_mono"),
    ("prlab.polyreg", "sufficient_ipr", "polyreg.check"),
    ("prlab.polyreg", "necessary_check", "polyreg.check"),
    ("prlab.polyreg", "reciprocal", "polyreg.reciprocal"),
    ("prlab.omega", "canonical", "omega.canonical"),
    ("prlab.omega", "term_eq", "omega.canonical"),
    ("prlab.omega", "verify_table_construction", "omega.verify"),
    ("prlab.embed", "fe_periodic", "embed.fe"),
    ("prlab.embed", "fe_shift", "embed.fe"),
    ("prlab.embed", "classify", "embed.classify"),
    ("prlab.embed", "bd", "embed.bd"),
    ("prlab.embed", "fmap_witness", "embed.fmap"),
    ("prlab.core.poly", "parse_poly", "core.parse"),
    ("prlab.core.matrix", "parse_matrix", "core.parse"),
    ("prlab.core.sets", "parse_finite", "core.parse"),
    ("prlab.core.sets", "parse_periodic", "core.parse"),
    ("prlab.cli", "main", "cli.main"),
)


class Tracer:
    """In-memory span store. A span is (name id, start, end, parent index,
    job id); parent is -1 for a span opened outside every other span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.job_id = -1
        self.counters: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> int:
        return self.name[self.stack[-1]] if self.stack else -1

    def __len__(self):
        return len(self.start)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, span: str, fn, on_exit=None):
        """A wrapper that records one span per outermost call; a recursive
        call made while the same span is open runs unwrapped."""
        nid = self.name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.name[self.stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self._close(idx)
                if on_exit is not None:
                    on_exit(self, result, exc)

        return traced

    # -- installing and removing the wrappers -----------------------------

    def install(self) -> None:
        """Wrap every function in SPAN_TABLE whose module is loaded,
        replacing each module-level binding of it in every loaded prlab
        module (this covers names bound by `from x import y`), plus
        `Poly.substitute`."""
        from prlab.core.poly import Poly

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "prlab" or n.startswith("prlab.")) and m is not None]
        for modname, attr, span in SPAN_TABLE:
            if modname not in sys.modules:  # e.g. prlab.cli outside cli_mix
                continue
            original = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(span, original, _ON_EXIT.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)
        original = Poly.substitute
        self._patched.append((Poly, "substitute", original))
        Poly.substitute = self.wrap("core.poly.substitute", original)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def summarize(self, lo: int, hi: int) -> dict:
        """Per span name over spans[lo:hi]: calls and self seconds (duration
        minus the time covered by direct children), plus the summed duration
        of top-level spans."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        top = 0.0
        for i in range(lo, hi):
            dur = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur - child[i - lo]
            if self.parent[i] < lo:
                top += dur
        return {"calls": dict(calls), "self_s": dict(self_s), "top_s": top}

    def write_tsv(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            names, start, end, parent, job = self.names, self.start, self.end, self.parent, self.job
            for i, nid in enumerate(self.name):
                fh.write(f"{names[nid]}\t{start[i]:.9f}\t{end[i]:.9f}\t{parent[i]}\t{job[i]}\n")


# -- counters recorded at the same boundaries as the spans --------------------

def _count_nodes(tr: Tracer, result, exc) -> None:
    if result is not None:
        tr.counters["search.backtrack.nodes"] += result.nodes
    elif exc is not None and hasattr(exc, "nodes"):
        tr.counters["search.backtrack.nodes"] += exc.nodes


def _count_index(tr: Tracer, result, exc) -> None:
    if result is not None:
        tr.counters["search.index.entries"] += sum(len(v) for v in result.values())


def _count_solutions(tr: Tracer, result, exc) -> None:
    if result is None:
        return
    tr.counters["search.enumerate.solutions"] += len(result)
    if tr.current() == tr.name_id("search.index"):
        tr.counters["search.index.solutions"] += len(result)


def _count_witness(tr: Tracer, result, exc) -> None:
    if exc is None:
        tr.counters["search.witness.found"] += result is not None


_ON_EXIT = {
    "search.backtrack": _count_nodes,
    "search.index": _count_index,
    "search.enumerate": _count_solutions,
    "search.witness": _count_witness,
}
