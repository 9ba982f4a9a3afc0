"""Per-layer tracing from outside the package.

Each traced function is replaced, for the duration of a traced run, at the
name its caller looks it up by (for example irredcert.certify.saturate,
which certify() calls as a module global).  The replacement records one span
per call: name, start, end, span id, parent span id, item id, and the error
type when the call raised.  Spans stay in memory and are written as JSONL
when the run ends.

A layer's self time is its span time minus the time of its child spans.
busy_s counts only the outermost span of a name, so recursion (certify
calling itself for a height-one descent, verify replaying certify) is not
counted twice.
"""

import json
import time
from collections import Counter, defaultdict

# (metric name, [(module, attribute), ...]): every site a caller looks the
# function up by.  Sites missing at this commit are skipped, so a later
# refactor that moves a function loses its numbers instead of the run.
TRACED = [
    ("cli.main", [("irredcert.cli", "main")]),
    ("reps.load_rep", [("irredcert.cli", "load_rep")]),
    ("certify.certify", [("irredcert.cli", "certify"),
                         ("irredcert.certify", "certify")]),
    ("certify.verify", [("irredcert.cli", "verify")]),
    ("lattices.saturate", [("irredcert.cli", "saturate"),
                           ("irredcert.certify", "saturate")]),
    ("lattices.reduce_rep", [("irredcert.cli", "reduce_rep"),
                             ("irredcert.certify", "reduce_rep")]),
    ("meataxe.is_irreducible", [("irredcert.cli", "is_irreducible"),
                                ("irredcert.certify", "is_irreducible"),
                                ("irredcert.cohomology", "is_irreducible")]),
    ("meataxe.spin", [("irredcert.meataxe", "spin")]),
    ("meataxe.endo_dim", [("irredcert.cohomology", "endo_dim")]),
    ("matrices.char_poly", [("irredcert.meataxe", "char_poly")]),
    ("matrices.kernel_basis", [("irredcert.meataxe", "kernel_basis")]),
    ("matrices.poly_at_matrix", [("irredcert.meataxe", "poly_at_matrix")]),
    ("polys.distinct_irreducible_factors",
     [("irredcert.polys", "distinct_irreducible_factors")]),
    ("polys.certify_irreducible_q",
     [("irredcert.polys", "certify_irreducible_q")]),
    ("polys.rational_roots", [("irredcert.polys", "rational_roots")]),
    ("cohomology.obstruction_report", [("irredcert.cli",
                                        "obstruction_report")]),
    ("cohomology.close_group", [("irredcert.cohomology", "close_group")]),
    ("cohomology.module_action", [("irredcert.cohomology", "module_action")]),
    ("cohomology.cohomology_dims", [("irredcert.cohomology",
                                     "cohomology_dims")]),
]

FIELDS = ("Fp", "Q", "Qt")

# counters filled from arguments, results and errors of traced calls
COUNTS = [
    ("certify.certificates", "count", "higher"),
    ("certify.steps_per_cert", "count", "lower"),
    ("certify.prime_yield", "ratio", "higher"),
    ("certify.direct_fallbacks", "count", "lower"),
    ("lattices.saturate.budget_exceeded", "count", "lower"),
    ("lattices.reduce_rep.bad_prime", "count", "lower"),
    ("meataxe.verdicts", "count", "higher"),
    ("meataxe.verdict.irreducible", "count", "higher"),
    ("meataxe.verdict.reducible", "count", "higher"),
    ("meataxe.verdict.inconclusive", "count", "lower"),
    ("meataxe.samples_per_verdict", "count", "lower"),
    ("meataxe.spins_per_verdict", "count", "lower"),
    ("meataxe.enumeration_verdicts", "count", "lower"),
    ("matrices.Matrix.apply.calls", "count", "lower"),
    ("cohomology.cells_assembled", "cells", "lower"),
    ("cohomology.size_bound", "count", "lower"),
]


def field_tag(ring):
    name = type(ring).__name__
    if name in ("PrimeField", "ExtensionField"):
        return "Fp"
    if name == "RationalFunctionField":
        return "Qt"
    return "Q"


def per_layer_names():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name, _ in TRACED:
        out += [(name + ".calls", "count", "lower"),
                (name + ".busy_s", "s", "lower"),
                (name + ".self_s", "s", "lower")]
        if name == "meataxe.is_irreducible":
            for f in FIELDS:
                out += [("%s.%s.calls" % (name, f), "count", "lower"),
                        ("%s.%s.busy_s" % (name, f), "s", "lower"),
                        ("%s.%s.self_s" % (name, f), "s", "lower")]
    return out + COUNTS


def _enumeration_decided(transcript):
    """True when the deciding factor was settled by exhaustive kernel
    enumeration (its events name an enumeration)."""
    dec = transcript.get("decision") or {}
    idx = dec.get("sample")
    samples = transcript.get("samples") or []
    if idx is None or idx >= len(samples):
        return False
    for rec in samples[idx].get("factors", []):
        if rec.get("poly") == dec.get("factor"):
            return any("enumeration" in e for e in rec.get("events", []))
    return False


class Tracer:
    """Span recorder; install() patches the call sites, uninstall() puts
    the originals back."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = Counter()
        self.item = None
        self.counts = Counter()
        self.samples = 0
        self._saved = []
        self._next_id = 0

    # -- patching ----------------------------------------------------------

    def install(self):
        import importlib
        for name, sites in TRACED:
            for modname, attr in sites:
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(name, orig))
        from irredcert.matrices import Matrix
        apply = Matrix.apply
        counts = self.counts

        def counted_apply(m, vec):
            counts["matrices.Matrix.apply.calls"] += 1
            return apply(m, vec)

        self._saved.append((Matrix, "apply", apply))
        Matrix.apply = counted_apply

    def uninstall(self):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    def _wrap(self, name, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        spans, stack, active = self.spans, self.stack, self.active

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            label = name
            if name == "meataxe.is_irreducible":
                label = "%s.%s" % (name, field_tag(args[0].ring))
            frame = [sid, 0.0]
            stack.append(frame)
            active[label] += 1
            err = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                if hook is not None:
                    hook(args, err, None)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                active[label] -= 1
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((label, t0, t1, sid, parent, self.item, err,
                              t1 - t0 - frame[1], active[label] == 0))
            if hook is not None:
                hook(args, None, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters read from arguments, results and errors ----------------

    def _on_lattices_saturate(self, args, err, result):
        if err == "BudgetExceeded":
            self.counts["lattices.saturate.budget_exceeded"] += 1

    def _on_lattices_reduce_rep(self, args, err, result):
        if err == "BadPrime":
            self.counts["lattices.reduce_rep.bad_prime"] += 1

    def _on_meataxe_is_irreducible(self, args, err, result):
        if result is None:
            return
        c = self.counts
        c["meataxe.verdicts"] += 1
        c["meataxe.verdict." + result.status] += 1
        t = result.transcript
        if t.get("delegated_to_Q"):
            t = t["inner"]
        self.samples += len(t.get("samples") or [])
        if _enumeration_decided(t):
            c["meataxe.enumeration_verdicts"] += 1

    def _on_cohomology_cohomology_dims(self, args, err, result):
        if err == "SizeBound":
            self.counts["cohomology.size_bound"] += 1
        table, module = args[0], args[1]
        degrees = args[2] if len(args) > 2 else 2
        n, m = table.order, module.dim
        import irredcert.cohomology as coh
        cap = getattr(coh, "MAX_CELLS", None)
        for q in range(degrees + 1):
            cells = n ** (q + 1) * m * n ** q * m
            if cap is not None and cells > cap:
                break
            self.counts["cohomology.cells_assembled"] += cells

    def note_certificate(self, cert):
        """Counts read from a top-level certificate the CLI printed."""
        c = self.counts
        c["certify.certificates"] += 1
        steps = cert.get("steps") or []
        c["certify.steps"] += len(steps)
        for s in steps:
            if s.get("prime") == "(0)":
                c["certify.direct_fallbacks"] += 1
            elif s.get("meataxe") is not None:
                c["certify.reductions"] += 1
                if s.get("verdict") == "irreducible":
                    c["certify.certifying_reductions"] += 1

    # -- results -----------------------------------------------------------

    def metrics(self):
        calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
        for label, t0, t1, _, _, _, _, own, outer in self.spans:
            names = [label]
            if label.startswith("meataxe.is_irreducible."):
                names.append("meataxe.is_irreducible")
            for nm in names:
                calls[nm] += 1
                self_s[nm] += own
            if outer:
                busy[label] += t1 - t0
        # the per-field is_irreducible spans never nest across fields, so
        # the outermost-span busy time of the total is the sum over fields
        busy["meataxe.is_irreducible"] = sum(
            busy["meataxe.is_irreducible." + f] for f in FIELDS)
        out = {}
        for name, unit, _ in per_layer_names():
            if name.endswith(".calls") and name != "matrices.Matrix.apply.calls":
                out[name] = calls[name[:-len(".calls")]]
            elif name.endswith(".busy_s"):
                out[name] = busy[name[:-len(".busy_s")]]
            elif name.endswith(".self_s"):
                out[name] = self_s[name[:-len(".self_s")]]
        c = self.counts
        verdicts = c["meataxe.verdicts"]
        certs = c["certify.certificates"]
        out.update({k: c[k] for k, _, _ in COUNTS})
        out["certify.steps_per_cert"] = c["certify.steps"] / certs if certs else 0
        out["certify.prime_yield"] = (c["certify.certifying_reductions"]
                                      / c["certify.reductions"]
                                      if c["certify.reductions"] else 0)
        out["meataxe.samples_per_verdict"] = (self.samples / verdicts
                                              if verdicts else 0)
        out["meataxe.spins_per_verdict"] = (calls["meataxe.spin"] / verdicts
                                            if verdicts else 0)
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for label, t0, t1, sid, parent, item, err, own, _ in self.spans:
                fh.write(json.dumps({"name": label, "start": t0, "end": t1,
                                     "id": sid, "parent": parent,
                                     "item": item, "error": err,
                                     "self_s": own}) + "\n")
