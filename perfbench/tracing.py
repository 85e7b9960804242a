"""In-memory span tracer wrapped around czgraph's layer functions.

`Tracer.install()` replaces each function in `TRACED` by a wrapper in every
czgraph module namespace that holds it by name (so calls inside the
defining module are traced too); `uninstall()` puts the originals back.
A span is (name, start, end, parent, op id), kept in flat arrays and
written out once at the end.  A generator function gets one span per
resumption, so spans always nest.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("polyring", "intlin", "graph", "extalg", "ceresa", "minors", "cli")

# (module, attribute); "Class.method" names a method or classmethod.
TRACED = [
    ("polyring", "parse_polynomial"),
    ("intlin", "solve_diophantine"),
    ("intlin", "lattice_membership"),
    ("intlin", "hnf_basis"),
    ("graph", "load_graph_file"),
    ("graph", "build_cycle_context"),
    ("graph", "contract_edge"),
    ("graph", "delete_edge"),
    ("graph", "is_bridge"),
    ("graph", "stabilize"),
    ("graph", "two_edge_connectivize"),
    ("graph", "blocks"),
    ("extalg", "image1_coeffs"),
    ("extalg", "image2_coeffs"),
    ("ceresa", "compute_w"),
    ("ceresa", "is_cz_trivial_graph"),
    ("ceresa", "is_cz_trivial_curve"),
    ("ceresa", "image_lattice"),
    ("ceresa", "specialize"),
    ("ceresa", "classify"),
    ("ceresa", "pushforward_subdivide"),
    ("ceresa", "k4_context"),
    ("ceresa", "l3_context"),
    ("ceresa", "CeresaCocycle.from_json_dict"),
    ("minors", "canonical_form"),
    ("minors", "has_minor"),
    ("minors", "has_k4_minor_fast"),
    ("minors", "is_hyperelliptic_type"),
    ("minors", "enumerate_graphs"),
    ("minors", "single_step_minors"),
    ("minors", "MinorWitness.verify"),
    ("cli", "run_command"),
    ("cli", "CommandReport.render"),
    ("cli", "verify_theorem"),
    ("cli", "_fixture_identities"),
]
GENERATORS = {"minors.enumerate_graphs", "minors.single_step_minors"}
OP = "op"
NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.yields = array("i")  # items a generator span produced (0 or 1)
        self.stack = [NO_PARENT]
        self.current_op = -1
        # solve_diophantine system shapes: (rows, cols, max entry bits)
        self.systems: list[tuple[int, int, int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op_id.append(self.current_op)
        self.end.append(0.0)
        self.yields.append(0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def begin_op(self) -> int:
        """Open the root span of the next op."""
        self.current_op += 1
        return self.begin(0)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        begin, finish = self.begin, self.finish

        if name in GENERATORS:
            yields = self.yields

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = begin(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        finish(i)
                        return
                    except BaseException:
                        finish(i)
                        raise
                    yields[i] = 1
                    finish(i)
                    yield item
            return traced_gen

        if name == "intlin.solve_diophantine":
            systems = self.systems

            def traced_solve(A, b, *args, **kwargs):
                biggest = max(max(map(abs, A.entries), default=0),
                              max(map(abs, b), default=0))
                systems.append((A.rows, A.cols, int(biggest).bit_length()))
                i = begin(nid)
                try:
                    return fn(A, b, *args, **kwargs)
                finally:
                    finish(i)
            return traced_solve

        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "czgraph" or key.startswith("czgraph.")]
        for module_name, attr in TRACED:
            module = sys.modules[f"czgraph.{module_name}"]
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON header line plus the raw arrays (native byte order)."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.name_id),
                      "arrays": ["name_id:i", "start:d", "end:d", "parent:i",
                                 "op_id:i"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.start, self.end, self.parent, self.op_id):
                arr.tofile(fh)

    def summary(self, n_ops: int, negative_cache_max: int) -> dict[str, float]:
        """Per-layer metrics, per op, over every recorded span."""
        n = len(self.name_id)
        names, nid, start, end, parent = (self.names, self.name_id, self.start,
                                          self.end, self.parent)
        calls = [0] * len(names)
        total = [0.0] * len(names)
        child = [0.0] * n
        covered = 0.0
        run_command = names.index("cli.run_command")
        layer_of = [name.split(".", 1)[0] for name in names]
        enum_id = names.index("minors.enumerate_graphs")
        canon_id = names.index("minors.canonical_form")
        canon_in_enum = 0
        for i in range(n):
            d = end[i] - start[i]
            k = nid[i]
            calls[k] += 1
            total[k] += d
            p = parent[i]
            if p != NO_PARENT:
                child[p] += d
                if nid[p] == enum_id and k == canon_id:
                    canon_in_enum += 1
                # time that spans of the other layers cover below the cli layer
                if layer_of[nid[p]] == "cli" and layer_of[k] != "cli":
                    covered += d
        self_time = [0.0] * len(names)
        for i in range(n):
            self_time[nid[i]] += end[i] - start[i] - child[i]
        out: dict[str, float] = {}
        for k, name in enumerate(names[1:], start=1):
            out[f"{name}.calls"] = calls[k] / n_ops
            out[f"{name}.self_s"] = self_time[k] / n_ops
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                self_time[k] for k in range(1, len(names)) if layer_of[k] == layer) / n_ops
        yielded = sum(1 for i in range(n) if nid[i] == enum_id and self.yields[i])
        out["minors.enumerate_graphs.kept_ratio"] = (yielded / canon_in_enum
                                                     if canon_in_enum else 0.0)
        if self.systems:
            rows, cols, bits = zip(*self.systems)
            out["intlin.solve_diophantine.rows"] = sum(rows) / len(rows)
            out["intlin.solve_diophantine.cols"] = sum(cols) / len(cols)
            out["intlin.solve_diophantine.max_entry_bits"] = max(bits)
        out["minors.negative_cache.size"] = negative_cache_max
        run_total = total[run_command]
        out["trace.coverage"] = covered / run_total if run_total else 0.0
        out["trace.spans"] = n / n_ops
        return out
