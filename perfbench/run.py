"""irredcert benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload certify-irreducible --seed 1 \
        --seconds 15 --trace 0

Run from the repository root.  The inputs are generated from --seed (see
workloads.py), written as rep JSON files under .perfbench/, and every item
runs in this process through irredcert.cli.main, one item after the other
(one client, closed loop).  Outputs are checked against the answers known by
construction after the timed part.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and reports the per-layer metrics (see tracer.py).  The last
line of stdout is the JSON result; lines before it are for people.
"""

import os

# one thread everywhere: the measurement machine has two CPUs, and numpy
# must not start a BLAS pool behind the benchmark's back
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "data")
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import tracer  # noqa: E402
import workloads  # noqa: E402

# fresh interpreters timed for setup_s, spread over the first pass so that
# they see the same phases of the machine as the items; the median is
# reported
SETUP_REPEATS = 9

# On a shared 2-CPU virtual machine the speed of pure-Python code moves by
# 30-60% over seconds to minutes, and raw times of one seed spread that
# much.  A fixed pure-Python calibration loop runs after every command, and
# each command's time is scaled by CAL_REF_S / (median calibration time of
# the calibrations up to `window` on either side of it): times read as on a
# machine where the loop takes CAL_REF_S.  The window median follows drift
# over a few seconds without adding the noise of single calibrations.
CAL_REF_S = 0.0015
CAL_WINDOW = 8

# The metrics each workload reports calibrated; the others are raw wall
# time.  In obstruction the total and the 90th percentile are the numpy bar
# complex of the larger groups, which does not follow the loop, and scaling
# them widened their spread; its median item is a small group, whose time
# is Python.  Each run prints both sets of figures.
CALIBRATED = {
    "certify-irreducible": ("setup_s", "items_per_s", "op_p50_ms",
                            "op_p90_ms"),
    "certify-undecided": ("setup_s", "items_per_s", "op_p50_ms",
                          "op_p90_ms"),
    "meataxe-fp": ("setup_s", "items_per_s", "op_p50_ms", "op_p90_ms"),
    "obstruction": ("setup_s", "op_p50_ms"),
}

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# set-up as a user pays it: a fresh interpreter starts and imports the
# package and the CLI.  The warm-up item runs afterwards, untimed, in the
# benchmark's own process.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import irredcert, irredcert.cli
"""


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def p50(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _calibration_loop():
    """A fixed mix of Fraction, int, list and dict work, the kinds of work
    the package spends its time on."""
    acc = Fraction(0)
    rows = []
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
        rows.append([j * i % 97 for j in range(40)])
    index = {}
    for r in rows:
        index[tuple(r[:5])] = sum(r)


def calibrate():
    """Median seconds of three runs of the calibration loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class CalibratedTimer:
    """Timer for workloads.run_item: records the wall time of every call
    and a calibration after it; scales() turns them into per-call factors."""

    def __init__(self, window=CAL_WINDOW):
        self.window = window
        self.times = []
        self.cals = [calibrate()]

    def __call__(self, fn):
        t0 = time.perf_counter()
        result = fn()
        t = time.perf_counter() - t0
        self.times.append(t)
        self.cals.append(calibrate())
        return result, t

    def scales(self):
        """CAL_REF_S over the median calibration around each call."""
        out = []
        for k in range(len(self.times)):
            near = self.cals[max(0, k + 1 - self.window):k + 1 + self.window]
            out.append(CAL_REF_S / statistics.median(near))
        return out


def canonical(text):
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


class SetupSampler:
    """Times SETUP_REPEATS fresh interpreters, spread evenly over a pass of
    n items: call before(i) before item i.  Each is scaled by the
    calibrations right before and after it."""

    def __init__(self, n):
        self.at = [j * n // SETUP_REPEATS for j in range(SETUP_REPEATS)]
        self.timer = CalibratedTimer(window=1)

    def before(self, i):
        for _ in range(self.at.count(i)):
            proc, _ = self.timer(lambda: subprocess.run(
                [sys.executable, "-c", SETUP_CODE, SRC],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=150))
            if proc.returncode != 0:
                fail("set-up failed: %s" % proc.stderr.decode()[-500:])

    def median_s(self):
        """{calibrated: median set-up seconds}, for both settings."""
        t = self.timer
        return {False: statistics.median(t.times),
                True: statistics.median(x * k for x, k in zip(t.times,
                                                              t.scales()))}


class Pass:
    """One run of every item, in order.  wall_s is the time spent in the
    commands and scaled_s the same scaled by the calibration; op_ms and
    verify_ms map calibrated (True or False) to per-item latencies.  Only
    a pass made with keep_texts keeps what the commands printed; every pass
    keeps a digest of it per item."""

    def __init__(self, items, keep_texts=True):
        self.items = items
        self.keep_texts = keep_texts
        self.outcomes = []
        self.digests = []
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.op_ms = {False: [], True: []}
        self.verify_ms = {False: [], True: []}

    def run(self, cli, workdir, trace=None, setup=None):
        timer = CalibratedTimer()
        for i, item in enumerate(self.items):
            if setup is not None:
                setup.before(i)
            if trace is not None:
                trace.item = item.id
            o = workloads.run_item(cli, item, workdir, timer)
            self.digests.append(
                hashlib.sha256("\0".join(o.texts).encode()).hexdigest())
            if not self.keep_texts:
                o.texts = o.errors = None
            self.outcomes.append(o)
        raw = [1e3 * t for t in timer.times]
        scaled = [x * k for x, k in zip(raw, timer.scales())]
        self.wall_s = sum(raw) / 1e3
        self.scaled_s = sum(scaled) / 1e3
        # the calls of an item are consecutive; verify is the last, if any
        for calibrated, times in ((False, raw), (True, scaled)):
            calls = iter(times)
            for o in self.outcomes:
                mine = [next(calls) for _ in o.codes]
                if o.verify_s is not None:
                    self.verify_ms[calibrated].append(mine.pop())
                self.op_ms[calibrated].append(sum(mine))
        return self

    def cert_sha256(self):
        """sha256 over the canonical JSON of every certificate and report
        the pass printed, in item order."""
        h = hashlib.sha256()
        for item, o in zip(self.items, self.outcomes):
            h.update(item.id.encode())
            for text in o.texts:
                h.update(b"\0")
                if text.strip():
                    h.update(canonical(text).encode())
        return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=0,
                    help="run only the first N items of a pass (smoke tests)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "irredcert", "cli.py")):
        fail("no irredcert sources under %s; run from a full checkout" % SRC)
    if not os.path.isdir(CORPUS):
        fail("no corpus directory %s" % CORPUS)
    sys.path.insert(0, SRC)
    import irredcert.cli as cli

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return run(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, cli, workdir):
    t0 = time.perf_counter()
    docs, items = workloads.build(args.workload, args.seed, CORPUS)
    if args.limit > 0:
        items = items[:args.limit]
    for name, doc in docs.items():
        with open(os.path.join(workdir, name + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    del docs
    gen_s = time.perf_counter() - t0
    print("workload %s seed %d: %d items per pass, inputs made in %.2f s"
          % (args.workload, args.seed, len(items), gen_s))

    # warm this process up before timing anything
    Pass(items[:1]).run(cli, workdir)

    sampler = None if args.trace else SetupSampler(len(items))
    first = Pass(items).run(cli, workdir, setup=sampler)
    setup = None if sampler is None else sampler.median_s()
    passes = [first]
    if args.trace:
        trace = tracer.Tracer()
        trace.install()
        try:
            traced = Pass(items).run(cli, workdir, trace)
        finally:
            trace.uninstall()
        for item, o in zip(items, traced.outcomes):
            if item.kind == "certify" and o.texts[0].strip():
                trace.note_certificate(json.loads(o.texts[0]))
    else:
        # whole passes only, so every run measures the same mix; counted in
        # calibrated time, so a fast spell of the machine does not change
        # how many passes (and how much memory) a run uses
        n = max(1, round(args.seconds / first.scaled_s))
        for _ in range(n - 1):
            passes.append(Pass(items, keep_texts=False).run(cli, workdir))

    # untimed: check the first pass against the known answers; later
    # passes must print byte-identical outputs
    reasons = [workloads.check(it, o, workdir)
               for it, o in zip(items, first.outcomes)]
    correct = all(r is None or r.startswith("known") for r in reasons)
    cert_sha = first.cert_sha256()
    for p in passes[1:]:
        if p.digests != first.digests:
            correct = False
            print("outputs differ between passes")
    if args.trace:
        if traced.cert_sha256() != cert_sha or \
                traced.digests != first.digests:
            correct = False
            print("traced outputs differ from untraced outputs")

    for item, r in zip(items, reasons):
        if r is not None:
            print("item %s failed: %s" % (item.id, r))
    failed_per_pass = sum(r is not None for r in reasons)
    attempted = len(items) * len(passes)
    failed = failed_per_pass * len(passes)
    print("cert_sha256 %s" % cert_sha)
    print("failed_ratio %.4f (%d of %d)" % (failed / attempted, failed,
                                             attempted))

    def figures(calibrated):
        op = [x for p in passes for x in p.op_ms[calibrated]]
        busy = sum(p.scaled_s if calibrated else p.wall_s for p in passes)
        out = {"items_per_s": (attempted - failed) / busy,
               "op_p50_ms": p50(op), "op_p90_ms": p90(op)}
        if setup is not None:
            out["setup_s"] = setup[calibrated]
        return out

    scaled = CALIBRATED[args.workload]
    both = {c: figures(c) for c in (True, False)}
    for c in (True, False):
        print("%s: %s" % ("calibrated" if c else "raw", " ".join(
            "%s %.4f" % kv for kv in sorted(both[c].items()))))
    print("reported calibrated: %s" % " ".join(scaled))
    ver = [x for p in passes for x in p.verify_ms["op_p50_ms" in scaled]]
    if ver:
        print("verify_p50_ms %.3f verify_p90_ms %.3f" % (p50(ver), p90(ver)))
    if args.trace:
        layer = trace.metrics()
        ok = len(items) - failed_per_pass
        busy = (lambda p: p.scaled_s) if "items_per_s" in scaled else \
            (lambda p: p.wall_s)
        rate_u, rate_t = ok / busy(first), ok / busy(traced)
        layer["trace.overhead"] = 1 - rate_t / rate_u if rate_u else 0.0
        layer["certify.verify.p50_ms"] = p50(ver) if ver else 0
        layer["certify.verify.p90_ms"] = p90(ver) if ver else 0
        os.makedirs(OUT, exist_ok=True)
        trace.write_jsonl(os.path.join(
            OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed)))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in per_layer_names()}
    else:
        values = {name: both[name in scaled][name] for name in both[True]}
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer_names():
    """Every per-layer metric as (name, unit, better)."""
    return tracer.per_layer_names() + [
        ("certify.verify.p50_ms", "ms", "lower"),
        ("certify.verify.p90_ms", "ms", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]


if __name__ == "__main__":
    sys.exit(main())
