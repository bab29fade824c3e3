"""Spans around the public functions of each nomalink module.

The benchmark traces the program from outside: it replaces a function
at every binding its callers use (the defining module and each module
that imported it by name, or the class for methods) with a wrapper that
records a span.  A span is (name, start, end, parent); spans stay in
flat in-memory arrays and are written out once, when the run ends.
Scalar helpers called ~1e5 times per pass are only counted.
"""

import functools
import time
from array import array

import numpy as np

# module -> public functions wrapped in spans ("Class.method" for methods)
SPANS = {
    "cli": ["main"],
    "config": ["load_config"],
    "rng": ["stream_rng"],
    "quant": ["quantize", "dequantize"],
    "nn": ["Mlp.forward", "Mlp.backward", "Mlp.sgd_step"],
    "modem": ["train_modem", "pair_forward", "pair_backward", "tx_symbols",
              "demodulate", "save_model", "load_model"],
    "channel": ["realize", "transmit", "equalize"],
    "qam": ["qam_modulate", "nearest_point", "sic_detect"],
    "link": ["run_link", "sample_features"],
    "srate": ["fit_logistic", "load_accuracy_csv"],
    "regions": ["noma_rate_region", "oma_rate_region", "noma_power_region",
                "oma_power_region"],
}

# (calling module, defining module, function): counted at that caller only
COUNTED = [("regions", "srate", "gamma_required"),
           ("regions", "srate", "xi_eval")]


def _matrix_bytes(args, kwargs, out):
    """Bytes of the complex (N, 2^m) distance matrix nearest_point(y, points)
    builds; every caller passes both positionally."""
    y, points = args
    return np.atleast_1d(y).size * len(points) * 16


# span name -> (quantity name, value computed from one call)
QUANTITIES = {
    "qam.nearest_point": ("qam.nearest_point.matrix_bytes", _matrix_bytes),
    "srate.fit_logistic": ("srate.fit_logistic.iterations",
                           lambda a, k, out: out.iterations),
    **{f"regions.{fn}": (f"regions.{fn}.points",
                         lambda a, k, out: len(out.points))
       for fn in SPANS["regions"]},
}


class Tracer:
    """In-memory span store plus per-name counters and summed quantities."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.quantities = {}
        self._stack = [-1]
        self._patched = []

    def span(self, name, fn, quantity=None):
        """Wrap fn so that each call records one span named name."""
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        if quantity is not None:
            qname, measure = quantity
            self.quantities.setdefault(qname, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if quantity is not None:
                self.quantities[qname] += measure(args, kwargs, out)
            return out
        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each call only bumps a counter."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package):
        """Patch every binding of the traced functions in package's modules."""
        modules = {name: getattr(package, name) for name in SPANS}
        for mod_name, funcs in SPANS.items():
            mod = modules[mod_name]
            for qual in funcs:
                name = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[meth]
                    self._patch(owner, meth, self.span(name, orig, QUANTITIES.get(name)))
                    continue
                orig = getattr(mod, qual)
                wrapped = self.span(name, orig, QUANTITIES.get(name))
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            self._patch(other, attr, wrapped)
        for caller, mod_name, func in COUNTED:
            owner = modules[caller]
            self._patch(owner, func,
                        self.counter(f"{mod_name}.{func}", getattr(owner, func)))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def mark(self):
        """Snapshot used to split spans and counters into passes."""
        return (len(self.start),
                {k: c[0] for k, c in self.counts.items()},
                dict(self.quantities))

    def arrays(self):
        """Copies of the spans as numpy arrays: name id, parent, start, end."""
        return (np.array(self.name_of, dtype=np.int32),
                np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def save(self, path):
        name_of, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name_of, parent=parent,
                 start=start, end=end)


def pass_stats(tracer, before, after):
    """Per-name calls, total and self seconds, span durations of one pass.

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested because the program is single
    threaded, so the children never overlap.
    """
    (i0, counts0, qty0), (i1, counts1, qty1) = before, after
    name_of, parent, start, end = (a[i0:i1] for a in tracer.arrays())
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= i0
    np.add.at(child, parent[has_parent] - i0, dur[has_parent])
    self_s = dur - child
    stats = {}
    for nid, name in enumerate(tracer.names):
        sel = name_of == nid
        stats[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                       "self_s": float(self_s[sel].sum()), "durations": dur[sel]}
    counts = {k: counts1[k] - counts0.get(k, 0) for k in counts1}
    quantities = {k: qty1[k] - qty0.get(k, 0) for k in qty1}
    return stats, counts, quantities


ALL = ("calls", "s", "self_s")
# per-layer metrics of a traced run: span name -> reported stats
LAYER_STATS = {
    "cli.main": ALL,
    "config.load_config": ("s",),
    "rng.stream_rng": ("calls", "s"),
    "quant.quantize": ALL,
    "quant.dequantize": ALL,
    "nn.Mlp.forward": ALL,
    "nn.Mlp.backward": ALL,
    "nn.Mlp.sgd_step": ALL,
    "modem.train_modem": ("s", "self_s"),
    "modem.pair_forward": ALL,
    "modem.pair_backward": ALL,
    "modem.tx_symbols": ALL,
    "modem.demodulate": ALL,
    "modem.save_model": ("s",),
    "modem.load_model": ("s",),
    "channel.realize": ALL,
    "channel.transmit": ALL,
    "channel.equalize": ALL,
    "qam.qam_modulate": ALL,
    "qam.nearest_point": ("calls", "s"),
    "qam.sic_detect": ALL,
    "link.run_link": (*ALL, "p50_ms", "p95_ms"),
    "link.sample_features": ALL,
    "srate.fit_logistic": ("calls", "s"),
    "srate.load_accuracy_csv": ("s",),
    **{f"regions.{fn}": ("s",) for fn in SPANS["regions"]},
}
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_ms": "ms", "p95_ms": "ms"}
# counted helpers, summed quantities and benchmark-level figures: name -> unit
EXTRA_UNITS = {
    **{f"{mod}.{fn}.calls": "count" for _, mod, fn in COUNTED},
    "qam.nearest_point.matrix_bytes": "B_computed",
    "srate.fit_logistic.iterations": "count",
    **{f"regions.{fn}.points": "count" for fn in SPANS["regions"]},
    "cli.output_bytes": "B",
    "bench.work": "count",
    "bench.traced_wall_s": "s",
}
# units of figures that must repeat exactly between passes and runs
EXACT_UNITS = ("count", "B", "B_computed")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{stat}": STAT_UNITS[stat]
             for span, stats in LAYER_STATS.items() for stat in stats}
    units.update(EXTRA_UNITS)
    return units


def layer_metrics(stats, counts, quantities):
    """Per-layer figures of one pass, from pass_stats' output."""
    out = {}
    for span, wanted in LAYER_STATS.items():
        st = stats[span]
        for stat in wanted:
            if stat in ("p50_ms", "p95_ms"):
                q = 50 if stat == "p50_ms" else 95
                d = st["durations"]
                out[f"{span}.{stat}"] = float(np.percentile(d, q)) * 1e3 if len(d) else 0.0
            else:
                out[f"{span}.{stat}"] = st[stat]
    for name, value in counts.items():
        out[f"{name}.calls"] = value
    out.update(quantities)
    return out
