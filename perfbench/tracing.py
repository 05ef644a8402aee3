"""Spans and counters around arclab's named functions.

``Tracer.install`` replaces each named function with a wrapper in every
``arclab.*`` namespace that binds it (``from .groups import elem_cmp`` copies
the binding, so patching ``arclab.groups`` alone would miss callers in
``arclab.hahn``).  A wrapper records one span -- name, start, end, parent
span, unit-call id -- and forwards arguments, return value and exceptions
unchanged.  Spans stay in memory in flat arrays and are written once, by
``write``, when the pass is over.

Self time of a span is its duration minus the time covered by its child
spans and minus the pauses charged to it (child.py's reference slices run
inside whatever span is open); a layer's self time is the sum over its
spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# layer -> functions whose calls and self time the traced run reports
NAMED = {
    "formulas": (
        "eval_sampled",
        "eval_decidable",
        "eval_term",
        "match_phi_p",
        "match_psi_p",
        "match_stability_clause",
        "match_coset_clause",
    ),
    "hahn": (
        "sample_series",
        "series_of",
        "series_mul",
        "series_add",
        "series_pow",
        "pth_root",
        "root_exists",
    ),
    "groups": (
        "element",
        "unflatten",
        "elem_add",
        "scalar_mul",
        "elem_cmp",
        "elem_p_divisible",
        "sign_of_real",
    ),
    "primes": ("PartitionMap.from_pairs", "PartitionMap.combine", "PrimeSet.intersection"),
    "convex": ("cut_labels", "non_definability_certificate", "g_pn", "segment_exponent_map"),
    "valuations": (
        "differential_verify",
        "ring_member",
        "boundary_monomials",
        "classification_report",
    ),
    "cli": ("main",),
}
MATCHERS = ("match_phi_p", "match_psi_p", "match_stability_clause", "match_coset_clause")


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{layer}.{fn}" for layer, fns in NAMED.items() for fn in fns]
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.unit_id = -1
        self.paused: dict[int, float] = {}  # span -> pause charged to it
        self.sampled_vacuous = 0
        self.sampled_falsified = 0
        self.sampled_unknown = 0
        self.points_checked = 0
        self._coset_matcher = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, nid: int, fn, observe=None):
        name, parent, unit = self.name.append, self.parent.append, self.unit.append
        start, end, stack, clock = self.start.append, self.end, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(end)
            name(nid)
            parent(stack[-1])
            unit(tracer.unit_id)
            end.append(0.0)
            stack.append(idx)
            start(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return functools.update_wrapper(wrapper, fn)

    def pause(self, dt: float) -> None:
        """Charge dt seconds of work that is not arclab's to the open span."""
        top = self.stack[-1]
        if top >= 0:
            self.paused[top] = self.paused.get(top, 0.0) + dt

    def _observe_sampled(self, args, out) -> None:
        if self._coset_matcher(args[0]) is not None:
            self.sampled_vacuous += 1
        if out.status == "falsified_by":
            self.sampled_falsified += 1
        elif out.status == "unknown_on_sample":
            self.sampled_unknown += 1

    def _observe_differential(self, args, out) -> None:
        self.points_checked += out["checked"]

    def install(self) -> None:
        """Wrap every named function; ``uninstall`` restores them."""
        from arclab import formulas

        self._coset_matcher = formulas.match_coset_clause  # unwrapped: counts stay clean
        observers = {
            "formulas.eval_sampled": self._observe_sampled,
            "valuations.differential_verify": self._observe_differential,
        }
        modules = [m for k, m in sorted(sys.modules.items()) if k == "arclab" or k.startswith("arclab.")]
        for nid, full in enumerate(self.names):
            layer, _, attr = full.partition(".")
            home = sys.modules[f"arclab.{layer}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                w = self._wrap(nid, fn, observers.get(full))
                self._patch(cls, meth, staticmethod(w) if isinstance(raw, staticmethod) else w)
                continue
            fn = getattr(home, attr)
            w = self._wrap(nid, fn, observers.get(full))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, w)

    def _patch(self, owner, key: str, new) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the duration of its direct children and
        minus its pauses."""
        n = len(self.end)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        for i, dt in self.paused.items():
            covered[i] += dt
        return [dur[i] - covered[i] for i in range(n)]

    def metrics(self, wall: float, scale: float = 1.0) -> dict[str, float]:
        """Per-function calls and self time, per-layer self time, and the
        ratios.  ``wall`` is the time spent in unit calls; every time is
        multiplied by ``scale`` (see child.py on machine speed)."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, st in zip(self.name, self.self_times()):
            calls[nid] += 1
            self_s[nid] += st * scale
        out: dict[str, float] = {}
        layer_s = dict.fromkeys(NAMED, 0.0)
        for nid, full in enumerate(self.names):
            out[f"{full}.calls"] = calls[nid]
            out[f"{full}.self_s"] = self_s[nid]
            layer_s[full.partition(".")[0]] += self_s[nid]
        for layer, s in layer_s.items():
            out[f"{layer}.self_s"] = s
        # unit-call time no span covers: the layer times add up to ``wall``
        out["bench.self_s"] = wall * scale - sum(layer_s.values())

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        n_sampled = out["formulas.eval_sampled.calls"]
        out["valuations.points_checked"] = self.points_checked
        out["hahn.sample_series_per_point"] = ratio(
            out["hahn.sample_series.calls"], self.points_checked
        )
        out["formulas.match_per_decide"] = ratio(
            sum(out[f"formulas.{m}.calls"] for m in MATCHERS), out["formulas.eval_decidable.calls"]
        )
        out["groups.element_per_elem_op"] = ratio(
            out["groups.element.calls"],
            out["groups.elem_add.calls"] + out["groups.scalar_mul.calls"],
        )
        out["formulas.eval_sampled.vacuous_share"] = ratio(self.sampled_vacuous, n_sampled)
        out["formulas.eval_sampled.falsified"] = self.sampled_falsified
        out["formulas.eval_sampled.unknown_share"] = ratio(self.sampled_unknown, n_sampled)
        return out

    def write(self, path) -> None:
        """One JSON header line (names, span count, pauses by span), then
        the arrays name, parent, unit (int32) and start, end (float64,
        perf_counter seconds) as raw machine-order bytes; ``read_spans``
        loads the file."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.end),
                "paused": self.paused,
                "byteorder": sys.byteorder,
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.unit, self.start, self.end):
                arr.tofile(fh)


def read_spans(path) -> tuple[dict, dict[str, array]]:
    """Inverse of ``Tracer.write``: (header, {field: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        fields = {}
        for key, code in (("name", "i"), ("parent", "i"), ("unit", "i"), ("start", "d"), ("end", "d")):
            arr = array(code)
            arr.fromfile(fh, n)
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            fields[key] = arr
    return header, fields
