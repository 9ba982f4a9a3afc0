"""The four workloads: their items, how an item runs, and how it is checked.

An item is one user-level task on one generated input file, run through
irredcert.cli.main the way a user's command would run:

  certify      `certify REP` (the primary operation), then `verify` on the
               certificate it printed
  meataxe      `meataxe REP`
  obstruction  `reduce REP --prime (p)`, then `obstruction` on the reduced
               rep; the pair is the primary operation

Every item carries the answer known by construction (its expected class),
and check() compares the outputs against it after the timed part is over.
"""

import contextlib
import io
import json
import os
import time

import gen

WORKLOADS = ("certify-irreducible", "certify-undecided", "meataxe-fp",
             "obstruction")

# expected classes
IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"
NO_MODEL = "no-model"
KNOWN_INCONCLUSIVE = "known-inconclusive"
DECIDED = "decided"           # meataxe on a random rep: any decided verdict

CORPUS_IRREDUCIBLE = ("s3", "s3_scaled", "d4", "s4", "s3_qt")


class Item:
    """One task: its id is also the stem of its input file."""

    __slots__ = ("id", "kind", "expect", "prime", "group_order", "fails")

    def __init__(self, id, kind, expect, prime=None, group_order=None,
                 fails=None):
        self.id = id
        self.kind = kind
        self.expect = expect
        self.prime = prime
        self.group_order = group_order
        # the error class the item is known to end with at this commit
        self.fails = fails


def _load_corpus(corpus_dir, name):
    with open(os.path.join(corpus_dir, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# item lists.  Each list is one pass of at least 100 items, so that ten
# latency samples lie beyond the 90th percentile.  Its composition is fixed;
# only the random disguises (and random generators) change with the seed, so
# the cost of a pass barely moves from seed to seed.  The first item of each
# list is a cheap one, used to warm up and to time set-up.


class _Pass:
    def __init__(self, seed, kind):
        self.seed = seed
        self.kind = kind
        self.docs = {}
        self.items = []

    def rng(self, *tags):
        return gen.make_rng(self.seed, self.kind, len(self.items), *tags)

    def add(self, doc, tag, expect, **kw):
        name = "%03d-%s" % (len(self.items), tag)
        self.docs[name] = doc
        self.items.append(Item(name, self.kind, expect, **kw))


def _certify_irreducible(seed, corpus_dir):
    out = _Pass(seed, "certify")
    for name in CORPUS_IRREDUCIBLE:
        out.add(_load_corpus(corpus_dir, name), name, IRREDUCIBLE)

    def sn(n, density=0.15):
        out.add(gen.rep_doc_q(gen.disguise_q(out.rng(), gen.std_sn(n),
                                             density), "S%d standard" % n),
                "S%d" % n, IRREDUCIBLE)

    def bn(n):
        out.add(gen.rep_doc_q(gen.disguise_q(out.rng(), gen.signed_perm_bn(n)),
                              "B%d signed permutations" % n),
                "B%d" % n, IRREDUCIBLE)

    for copy in range(6):
        for n in range(3, 10):
            sn(n)
        for n in range(2, 9):
            bn(n)
        if copy % 3:
            continue
        for n in (3, 4, 5):
            out.add(gen.rep_doc_qt(gen.disguise_qt(out.rng(), gen.std_sn(n)),
                                   "S%d standard over Q(t)" % n),
                    "S%dt" % n, IRREDUCIBLE)
        for n in (2, 3, 4):
            out.add(gen.rep_doc_qt(gen.disguise_qt(out.rng(),
                                                   gen.signed_perm_bn(n)),
                                   "B%d over Q(t)" % n), "B%dt" % n,
                    IRREDUCIBLE)
    # larger d; S9 above certifies mod 2 by exhaustive enumeration of a
    # kernel of nullity 7, and at d=24 the time is mostly saturation
    sn(10)
    bn(9)
    sn(16)
    bn(16)
    sn(25, density=0.05)
    return out.docs, out.items


def _certify_undecided(seed, corpus_dir):
    out = _Pass(seed, "certify")

    def q(gens, label, tag, expect=REDUCIBLE):
        out.add(gen.rep_doc_q(gen.disguise_q(out.rng(), gens), label), tag,
                expect)

    def nonunit(d):
        out.add(gen.rep_doc_q(gen.random_integral_nonunit(out.rng(), d),
                              "random integral, non-unit det, d=%d" % d),
                "nonunit%d" % d, NO_MODEL)

    # S4 + S5 is the most common item above the median, so that the 90th
    # percentile falls among copies of one family
    for copy in range(20):
        if copy % 3 == 0:
            for n in range(3, 7):
                q(gen.direct_sum(gen.std_sn(n), gen.sign_sn(n)),
                  "S%d standard + sign" % n, "S%d+sgn" % n)
            for _ in range(2):
                q(gen.direct_sum(gen.std_sn(3), gen.std_sn(4)),
                  "S3 + S4 standard", "S3+S4")
            for n, m in ((2, 2), (2, 3), (3, 3), (2, 4)):
                q(gen.direct_sum(gen.signed_perm_bn(n),
                                 gen.signed_perm_bn(m)),
                  "B%d + B%d" % (n, m), "B%d+B%d" % (n, m))
            nonunit(2)
        q(gen.direct_sum(gen.std_sn(4), gen.std_sn(5)), "S4 + S5 standard",
          "S4+S5")
        if copy % 5 == 0:
            nonunit(3 if copy < 10 else 4)
    out.add(_load_corpus(corpus_dir, "q8"), "q8", KNOWN_INCONCLUSIVE)
    return out.docs, out.items


def _meataxe_fp(seed, corpus_dir):
    out = _Pass(seed, "meataxe")

    def rand(p, d):
        gens = [gen.random_invertible_mod_p(out.rng(), d, p) for _ in range(2)]
        out.add(gen.rep_doc_fp(gens, p, "random 2-generator rep over F_%d" % p),
                "rand-p%d-d%d" % (p, d), DECIDED)

    def sn(p, n):
        out.add(gen.rep_doc_fp(gen.disguise_fp(out.rng(), gen.std_sn(n), p), p,
                               "S%d standard mod %d" % (n, p)),
                "S%d-p%d" % (n, p), IRREDUCIBLE if n % p else REDUCIBLE)

    def bn(p, n):
        out.add(gen.rep_doc_fp(gen.disguise_fp(out.rng(), gen.signed_perm_bn(n),
                                               p),
                               p, "B%d signed permutations mod %d" % (n, p)),
                "B%d-p%d" % (n, p), IRREDUCIBLE)

    def block(p, d, k):
        rng = out.rng()
        gens = gen.disguise_fp(rng, gen.block_triangular_mod_p(rng, d, k, p), p)
        out.add(gen.rep_doc_fp(gens, p, "block triangular over F_%d" % p),
                "block-p%d-d%d" % (p, d), REDUCIBLE)

    # B32 mod 101 is the most common item above the median, so that the
    # 90th percentile falls among copies of one family
    for copy in range(6):
        for p, d in ((101, 24), (3, 24), (2, 24), (2, 32), (3, 32)):
            rand(p, d)
        if copy % 2 == 0:
            rand(101, 32)
        for p, n in ((3, 25), (101, 25), (3, 33), (3, 27)):
            sn(p, n)
        for p, n in ((3, 24), (101, 24), (3, 32), (101, 32), (101, 32)):
            bn(p, n)
        for p, d, k in ((2, 24, 8), (3, 24, 12)):
            block(p, d, k)
        if copy % 3 == 0:
            block(101, 32, 10)
    sn(2, 25)
    sn(2, 33)
    rand(101, 48)
    rand(101, 64)
    return out.docs, out.items


def _d4():
    return [[[0, -1], [1, 0]], [[1, 0], [0, -1]]]


def _q8():
    i = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    return [i, j]


# (tag, generators, |G|, primes, copies, disguised): primes dividing |G|
# and primes that do not.  C5 is
# the most common item above the median, so that the 90th percentile falls
# among its copies.  The costly groups keep their standard basis: the time
# of the modular rank of the bar differential depends on the density of the
# reduced generators, by up to 4x between disguises of Q8 and B3.
OBSTRUCTION_GROUPS = [
    ("C2", lambda: [[[-1]]], 2, (2, 3), 5, True),
    ("C3", lambda: [gen.cyclic_companion([1, 1])], 3, (3, 2, 5), 5, True),
    ("C4", lambda: [gen.cyclic_companion([1, 0])], 4, (2, 3, 5), 5, True),
    ("C6", lambda: [gen.cyclic_companion([1, -1])], 6, (2, 3, 5, 7), 5, True),
    ("S3", lambda: gen.std_sn(3), 6, (2, 3, 5, 7), 5, True),
    ("D4", _d4, 8, (2, 3, 5), 5, True),
    ("C5", lambda: [gen.cyclic_companion([1, 1, 1, 1])], 5, (5, 2, 3), 5,
     False),
    ("Q8", _q8, 8, (3,), 1, False),
    ("S4", lambda: gen.std_sn(4), 24, (3, 5), 1, False),
    ("B3", lambda: gen.signed_perm_bn(3), 48, (3,), 1, False),
]

# (tag, p) -> error: these hit the SizeBound cap of the bar complex at this
# commit.  They stay in the mix and count as failed; any other error fails
# the run's correctness check.
OBSTRUCTION_KNOWN_FAILURES = {
    ("S4", 3): "SizeBound",
    ("S4", 5): "SizeBound",
    ("B3", 3): "SizeBound",
}


def _obstruction(seed, corpus_dir):
    out = _Pass(seed, "obstruction")
    for copy in range(5):
        for tag, make, order, primes, copies, disguised in OBSTRUCTION_GROUPS:
            if copy >= copies:
                continue
            for p in primes:
                gens = make()
                if disguised:
                    gens = gen.disguise_q(out.rng(), gens)
                out.add(gen.rep_doc_q(gens, "%s residual" % tag),
                        "%s-p%d" % (tag, p), "report", prime=p,
                        group_order=order,
                        fails=OBSTRUCTION_KNOWN_FAILURES.get((tag, p)))
    return out.docs, out.items


BUILDERS = {
    "certify-irreducible": _certify_irreducible,
    "certify-undecided": _certify_undecided,
    "meataxe-fp": _meataxe_fp,
    "obstruction": _obstruction,
}


def build(workload, seed, corpus_dir):
    """(docs, items): rep documents by file stem, and one pass of items."""
    return BUILDERS[workload](seed, corpus_dir)


# ---------------------------------------------------------------------------
# running an item


class Outcome:
    """What one item did: latencies, exit codes and the text it printed."""

    __slots__ = ("op_s", "verify_s", "codes", "texts", "errors", "raised")

    def __init__(self):
        self.op_s = 0.0
        self.verify_s = None
        self.codes = []
        self.texts = []
        self.errors = []
        self.raised = None

    def outputs(self):
        """The JSON documents the commands printed (None for no output)."""
        return [json.loads(t) if t.strip() else None for t in self.texts]


def wall_timer(fn):
    """Call fn(); return (its result, seconds of wall time)."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _call(cli, argv, outcome, timer):
    """Run one CLI command in-process; returns (seconds, stdout text)."""
    out, err = io.StringIO(), io.StringIO()

    def invoke():
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                return cli.main(argv)
        except Exception as exc:  # a traceback fails the item, not the run
            outcome.raised = "%s: %s" % (type(exc).__name__, exc)
            return None

    code, seconds = timer(invoke)
    outcome.codes.append(code)
    text = out.getvalue()
    outcome.texts.append(text)
    outcome.errors.append(err.getvalue())
    return seconds, text


def run_item(cli, item, workdir, timer=wall_timer):
    """Run one item; timer(fn) calls fn and returns (result, seconds)."""
    outcome = Outcome()
    rep = os.path.join(workdir, item.id + ".json")
    if item.kind == "certify":
        outcome.op_s, text = _call(cli, ["certify", rep], outcome, timer)
        if outcome.codes[-1] in (0, 2):
            cert = os.path.join(workdir, item.id + ".cert.json")
            with open(cert, "w", encoding="utf-8") as fh:
                fh.write(text)
            outcome.verify_s, _ = _call(cli, ["verify", cert, rep], outcome,
                                        timer)
    elif item.kind == "meataxe":
        outcome.op_s, _ = _call(cli, ["meataxe", rep], outcome, timer)
    else:
        red = os.path.join(workdir, item.id + ".red.json")
        t, text = _call(cli, ["reduce", rep, "--prime", "(%d)" % item.prime],
                        outcome, timer)
        outcome.op_s = t
        if outcome.codes[-1] == 0:
            with open(red, "w", encoding="utf-8") as fh:
                fh.write(text)
            t, _ = _call(cli, ["obstruction", red], outcome, timer)
            outcome.op_s += t
    return outcome


# ---------------------------------------------------------------------------
# correctness checks (untimed)


def _witness_invariant(rep, rows):
    """The witness rows span a proper nonzero subspace that every generator
    of rep maps into itself."""
    from irredcert.meataxe import _echelon_rows, subspace_is_invariant
    K = rep.ring
    if not rows or len(rows) >= rep.dim:
        return False
    vecs = [tuple(K.parse(a) for a in row) for row in rows]
    if any(len(v) != rep.dim for v in vecs):
        return False
    ech = _echelon_rows(K, vecs)
    if not 0 < len(ech) < rep.dim:
        return False
    return subspace_is_invariant(K, list(rep.generators), ech)


def _field_rep(rep):
    from irredcert.reps import Representation
    K = rep.ring
    if K.is_field:
        return rep
    F = K.fraction_field()
    return Representation(F, [g.to_fraction_field() for g in rep.generators])


def _error_class(stderr):
    """The error class cli.main reported on stderr, or None."""
    try:
        return json.loads(stderr).get("error")
    except (ValueError, AttributeError):
        return None


def check(item, outcome, workdir):
    """None when the item succeeded, else a one-line reason.  The first
    word of a reason is 'known' when the item ended with the error it is
    known to end with (item.fails), and 'wrong' otherwise: an output
    contradicts the known answer, the program crashed, or it exited with an
    error not expected of the item.  An item with item.fails that succeeds
    is checked like any other."""
    if outcome.raised:
        return "wrong: raised %s" % outcome.raised
    outputs = outcome.outputs()
    if item.kind == "certify" and outcome.codes[1:] == [1] and \
            outputs[1] and outputs[1].get("verified") is False:
        return "wrong: certificate did not verify"
    if any(c not in (0, 2) for c in outcome.codes):
        last = outcome.errors[-1]
        if item.fails and outcome.codes[-1] == 1 and \
                all(c in (0, 2) for c in outcome.codes[:-1]) and \
                _error_class(last) == item.fails:
            return "known: %s" % item.fails
        detail = " ".join(e.strip() for e in outcome.errors if e.strip())
        return "wrong: exit %s %s" % (outcome.codes, detail[:200])
    from irredcert.reps import load_rep
    rep = load_rep(os.path.join(workdir, item.id + ".json"))
    if item.kind == "certify":
        cert, ver = outputs
        concl = cert.get("conclusion")
        if not (ver and ver.get("verified") is True):
            return "wrong: certificate did not verify"
        if item.expect == IRREDUCIBLE and concl != "IrreducibleCertified":
            return "wrong: %s on an irreducible input" % concl
        if item.expect in (REDUCIBLE, NO_MODEL) and \
                concl == "IrreducibleCertified":
            return "wrong: certified a %s input" % item.expect
        if item.expect == KNOWN_INCONCLUSIVE and \
                concl == "ReducibleWithWitness":
            return "wrong: reducibility witness for an irreducible input"
        if concl == "ReducibleWithWitness" and \
                not _witness_invariant(_field_rep(rep), cert.get("witness")):
            return "wrong: witness is not invariant"
        return None
    if item.kind == "meataxe":
        doc = outputs[0]
        status = doc.get("status")
        if item.expect in (IRREDUCIBLE, REDUCIBLE) and status != item.expect:
            return "wrong: %s, expected %s" % (status, item.expect)
        if item.expect == DECIDED and status not in (IRREDUCIBLE, REDUCIBLE):
            return "wrong: %s on a rep the engine decides" % status
        if status == REDUCIBLE and not _witness_invariant(rep,
                                                          doc.get("witness")):
            return "wrong: witness is not invariant"
        return None
    red, report = outputs
    if red["ring"] != {"ring": "Fp", "p": item.prime} or \
            red["dim"] != rep.dim:
        return "wrong: reduction is not over F_%d in dim %d" % (item.prime,
                                                                rep.dim)
    # reduction is injective on a finite group for odd p (Minkowski), and
    # the image is a quotient of G for p = 2
    order = report["group_order"]
    if item.group_order % order or (item.prime > 2
                                    and order != item.group_order):
        return "wrong: image of order %s, |G| = %d" % (order,
                                                        item.group_order)
    if report["d0"] != report["schur_dim"]:
        return "wrong: d0 %s differs from schur_dim %s" % (
            report["d0"], report["schur_dim"])
    # Maschke: no cohomology in positive degree when p does not divide |G|
    if order % item.prime and (report["d1"] or report["d2"]):
        return "wrong: (d1, d2) = (%s, %s) with p not dividing |G|" % (
            report["d1"], report["d2"])
    return None
