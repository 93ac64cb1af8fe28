"""Spans around the package's public names, and the import-time profile.

The package is not edited: the traced run replaces the module attributes the
modules call each other through by wrappers that record a span, and puts
the originals back when it ends.  Spans are kept in memory as
``(name, start, end, parent, op, failed)`` and written out when the run
ends; ``parent`` is the index of the span open when this one began.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import statistics
import subprocess
import sys
from time import perf_counter

from thzpair import cli, correlations, dynamics, heff, model

_MODULES = {"model": model, "dynamics": dynamics, "correlations": correlations,
            "heff": heff, "cli": cli}

LAYERS = tuple(_MODULES)


# (module, attribute, span name, tally).  The span name carries the layer
# that owns the code: correlations imports propagate_dual by name, so the
# dynamics function is wrapped where correlations looks it up.  A tally
# (count name, f(result)) adds f(result) to a count per call.
SPANS = (
    ("model", "from_physical", "model.from_physical", None),
    ("model", "with_rabi", "model.with_rabi", None),
    ("dynamics", "build_adjoint_generator", "dynamics.build_adjoint_generator", None),
    ("dynamics", "steady_state", "dynamics.steady_state", None),
    ("correlations", "propagate_dual", "dynamics.propagate_dual", None),
    ("correlations", "cauchy_schwarz", "correlations.cauchy_schwarz", None),
    ("correlations", "g2_tau", "correlations.g2_tau", ("correlations.g2_tau.delays", len)),
    ("heff", "verify_derivation", "heff.verify_derivation", None),
    ("heff", "build_lab_hamiltonian", "heff.build_lab_hamiltonian", None),
    ("heff", "rotate_frame", "heff.rotate_frame", None),
    ("heff", "second_order_average", "heff.second_order_average", None),
    ("heff", "compare_to_target", "heff.compare_to_target", None),
    ("cli", "run_sweep", "cli.run_sweep",
     ("cli.rows_failed", lambda rows: sum(r.failed for r in rows))),
    ("cli", "sweep_csv", "cli.sweep_csv", ("cli.csv_bytes", lambda text: len(text.encode()))),
)
# Counted without a span: the time stays with the caller's layer.
COUNTS = (("dynamics", "expm", "dynamics.expm.calls"),)


class Tracer:
    """In-memory span recorder; the caller numbers operations through ``op``.

    A span is stored as a tuple when it closes (a slot is reserved when it
    opens, so a parent precedes its children); tuples of plain values drop
    out of the garbage collector's tracking, which keeps the recorder's own
    cost from growing with the number of spans.
    """

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = -1
        self._open = []

    def call(self, name, fn, /, *args, **kwargs):
        """Call fn inside a span of the given name."""
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(idx)
        failed = True
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            self.spans[idx] = (name, t0, perf_counter(), parent, self.op, failed)
            self._open.pop()

    def wrap(self, name, fn, tally):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if tally is not None:
                self.counts[tally[0]] += tally[1](result)
            return result

        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's names for the duration; a missing name is skipped
        and so reads as zero calls."""
        saved = []
        try:
            for mod, attr, name, tally in SPANS:
                m = _MODULES[mod]
                if hasattr(m, attr):
                    saved.append((m, attr, getattr(m, attr)))
                    setattr(m, attr, self.wrap(name, getattr(m, attr), tally))
            for mod, attr, name in COUNTS:
                m = _MODULES[mod]
                if hasattr(m, attr):
                    saved.append((m, attr, getattr(m, attr)))
                    setattr(m, attr, self.counter(name, getattr(m, attr)))
            yield self
        finally:
            for m, attr, fn in reversed(saved):
                setattr(m, attr, fn)

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(tracer, ops):
    """Per-layer metrics: ``.calls`` and counts per op, ``.us`` median per call,
    ``<layer>.self_pct`` as a share of the summed op spans."""
    by_name = collections.defaultdict(list)
    failed = collections.Counter()
    for s in tracer.spans:
        by_name[s[0]].append((s[2] - s[1]) * 1e6)
        failed[s[0]] += s[5]
    out = {}
    for _, _, name, _ in SPANS:
        durations = by_name.get(name, [])
        out[name + ".calls"] = len(durations) / ops
        out[name + ".us"] = statistics.median(durations) if durations else 0.0
        out[name + ".failed"] = failed[name] / ops
    for name in [t[0] for *_, t in SPANS if t] + [name for *_, name in COUNTS]:
        out[name] = tracer.counts[name] / ops
    own = tracer.self_times()
    total = sum(s[2] - s[1] for s in tracer.spans if s[0] == "op")
    share = collections.Counter()
    for s, t in zip(tracer.spans, own):
        share[s[0].split(".")[0]] += t
    for layer in LAYERS:
        out[layer + ".self_pct"] = 100.0 * share[layer] / total
    # the benchmark's own code inside the op spans
    out["trace.unattributed_pct"] = 100.0 * share["op"] / total
    return out


def _import_lines(stderr):
    """(depth, name, cumulative_us) per line of ``-X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        name = field.lstrip()
        rows.append(((len(field) - len(name) - 1) // 2, name, int(cumulative)))
    return rows


def import_ms(stderr, packages):
    """Cumulative import ms per package.

    The first package is the one imported; each of the others is charged
    with its modules that the first package's own modules import, so that
    numpy modules pulled in by scipy count once, as scipy's.
    """
    rows = _import_lines(stderr)

    def owner(name):
        return next((p for p in packages if name == p or name.startswith(p + ".")), None)

    # The output lists a module after the modules it imports: walk it
    # backwards to find each module's importer.
    importer = {}
    stack = []
    for k in range(len(rows) - 1, -1, -1):
        while stack and rows[stack[-1]][0] >= rows[k][0]:
            stack.pop()
        importer[k] = stack[-1] if stack else None
        stack.append(k)

    out = dict.fromkeys(packages, 0.0)
    for k, (_, name, us) in enumerate(rows):
        by = importer[k]
        while by is not None and owner(rows[by][1]) is None:
            by = importer[by]
        outer = None if by is None else owner(rows[by][1])
        pkg = owner(name)
        if pkg is not None and outer in (None, packages[0]) and outer != pkg:
            out[pkg] += us / 1e3
    return out


def import_profile(env, cwd, runs, packages=("thzpair", "scipy", "numpy")):
    """Median of ``runs`` cold ``python -X importtime -c 'import thzpair'``."""
    samples = collections.defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import thzpair"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
        )
        for pkg, ms in import_ms(proc.stderr, packages).items():
            samples[pkg].append(ms)
    return {pkg: statistics.median(v) for pkg, v in samples.items()}
