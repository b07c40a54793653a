"""Spans and counters recorded around robrsvd's public callables.

Tracing lives entirely in the benchmark: each hook replaces one callable at
the name its caller looks it up (``robrsvd.decompose.select_lambda`` is the
name the IRLS loop calls, ``robrsvd.cli.load`` the one the CLI calls), and
restores the original when the traced command ends. A hook whose target no
longer exists is reported as absent instead of failing the run, so a later
refactor that moves a callable shows up as missing per-layer numbers.

Spans (id, name, start, end, parent, run) are kept in memory and turned
into per-command layer metrics at the end: busy time (sum of span
durations, summed across threads), self time (duration minus the part its
direct child spans cover) and counts.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from typing import Callable, NamedTuple

import numpy as np


class Hook(NamedTuple):
    module: str
    attr: str  # attribute path inside the module, e.g. "RobustLossSpec.weights"
    span: str  # "<layer>.<operation>"
    on_call: Callable = None  # (tracer, args, kwargs) -> (args, kwargs)
    on_result: Callable = None  # (result, args, kwargs) -> {counter: increment}


def _wrap_score(tracer, args, kwargs):
    # select_lambda(grid, score): each call of ``score`` is one GCV candidate
    if len(args) >= 2:
        args = (args[0], tracer.wrap(args[1], "selection.candidate"), *args[2:])
    elif "score" in kwargs:
        kwargs = dict(kwargs, score=tracer.wrap(kwargs["score"], "selection.candidate"))
    return args, kwargs


def _rank_one_counts(pair, args, kwargs):
    return {"decompose.irls_iterations": pair.iterations,
            "decompose.nonconverged": int(not pair.converged)}


def _imputation_counts(result, args, kwargs):
    _, state = result
    return {"imputation.rounds": state.rounds,
            "imputation.nonconverged": int(not state.converged)}


def _bytes_saved(result, args, kwargs):
    file = args[1] if len(args) > 1 else kwargs["file"]
    return {"dataio.bytes_written": os.path.getsize(file.path)}


def _simulate_failures(result, args, kwargs):
    return {"simulate.failures": len(result.failures)}


HOOKS = (
    Hook("robrsvd.cli", "main", "cli.main"),
    Hook("robrsvd.cli", "load", "dataio.load"),
    Hook("robrsvd.cli", "save", "dataio.save", on_result=_bytes_saved),
    Hook("robrsvd.cli", "fit", "decompose.fit"),
    Hook("robrsvd.cli", "interpolate", "splines.interpolate"),
    Hook("robrsvd.splines", "SplineFunction.export_csv", "splines.export"),
    Hook("robrsvd.cli", "run_benchmark", "simulate.run", on_result=_simulate_failures),
    Hook("robrsvd.simulate", "generate", "simulate.generate"),
    Hook("robrsvd.simulate", "fit", "simulate.fit"),
    Hook("robrsvd.decompose", "rank_one_fit", "decompose.rank_one", on_result=_rank_one_counts),
    Hook("robrsvd.imputation", "fit_with_missing", "imputation.fit", on_result=_imputation_counts),
    Hook("robrsvd.decompose", "select_lambda", "selection.sweep", on_call=_wrap_score),
    Hook("robrsvd.decompose", "update_v_given_u", "updates.solve"),
    Hook("robrsvd.decompose", "update_u_given_v", "updates.solve"),
    Hook("robrsvd.decompose", "build_roughness_penalty", "penalties.build"),
    Hook("robrsvd.penalties", "TwoWayPenaltySpec.__post_init__", "penalties.spec"),
    Hook("robrsvd.robust", "RobustLossSpec.weights", "robust.weights"),
)

# per-layer metric -> (statistic, span name / layer / counter, unit); every
# value is per traced command
LAYER_METRICS = {
    "cli.command_s": ("busy", "cli.main", "s"),
    "cli.self_s": ("self", "cli", "s"),
    "selection.sweeps": ("count", "selection.sweep", "count"),
    "selection.sweep_s": ("busy", "selection.sweep", "s"),
    "selection.candidates": ("count", "selection.candidate", "count"),
    "selection.candidate_s": ("busy", "selection.candidate", "s"),
    "selection.self_s": ("self", "selection", "s"),
    "updates.solves": ("count", "updates.solve", "count"),
    "updates.solve_s": ("busy", "updates.solve", "s"),
    "updates.self_s": ("self", "updates", "s"),
    "penalties.spec_builds": ("count", "penalties.spec", "count"),
    "penalties.spec_s": ("busy", "penalties.spec", "s"),
    "penalties.builds": ("count", "penalties.build", "count"),
    "penalties.build_s": ("busy", "penalties.build", "s"),
    "penalties.self_s": ("self", "penalties", "s"),
    "imputation.fits": ("count", "imputation.fit", "count"),
    "imputation.rounds": ("counter", "imputation.rounds", "count"),
    "imputation.fit_s": ("busy", "imputation.fit", "s"),
    "imputation.nonconverged": ("counter", "imputation.nonconverged", "count"),
    "imputation.self_s": ("self", "imputation", "s"),
    "decompose.fit_s": ("busy", "decompose.fit", "s"),
    "decompose.rank_one_fits": ("count", "decompose.rank_one", "count"),
    "decompose.rank_one_s": ("busy", "decompose.rank_one", "s"),
    "decompose.irls_iterations": ("counter", "decompose.irls_iterations", "count"),
    "decompose.nonconverged": ("counter", "decompose.nonconverged", "count"),
    "decompose.self_s": ("self", "decompose", "s"),
    "robust.weights_calls": ("count", "robust.weights", "count"),
    "robust.weights_s": ("busy", "robust.weights", "s"),
    "robust.self_s": ("self", "robust", "s"),
    "dataio.loads": ("count", "dataio.load", "count"),
    "dataio.load_s": ("busy", "dataio.load", "s"),
    "dataio.saves": ("count", "dataio.save", "count"),
    "dataio.save_s": ("busy", "dataio.save", "s"),
    "dataio.bytes_written": ("counter", "dataio.bytes_written", "B"),
    "dataio.self_s": ("self", "dataio", "s"),
    "splines.interpolations": ("count", "splines.interpolate", "count"),
    "splines.interpolate_s": ("busy", "splines.interpolate", "s"),
    "splines.export_s": ("busy", "splines.export", "s"),
    "splines.self_s": ("self", "splines", "s"),
    "simulate.run_s": ("busy", "simulate.run", "s"),
    "simulate.generates": ("count", "simulate.generate", "count"),
    "simulate.generate_s": ("busy", "simulate.generate", "s"),
    "simulate.fit_calls": ("count", "simulate.fit", "count"),
    "simulate.fit_s": ("busy", "simulate.fit", "s"),
    "simulate.failures": ("counter", "simulate.failures", "count"),
    "simulate.self_s": ("self", "simulate", "s"),
    "trace.spans": ("spans", None, "count"),
    "trace.hooks_absent": ("absent", None, "count"),
}


def _resolve(hook: Hook):
    """(owner, name, current value) of a hook target; None when it is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except AttributeError:
        return None


def active_hooks(hooks=HOOKS) -> int:
    """How many hook targets are currently replaced by a tracing wrapper."""
    found = (_resolve(h) for h in hooks)
    return sum(1 for f in found if f is not None and getattr(f[2], "__perfbench_span__", None))


class Tracer:
    """Installs the hooks around one command at a time and keeps the spans."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.absent = []       # "module:attr" of hooks whose target is gone
        self.broken = set()    # span names whose result no longer has the counted fields
        self.commands = 0
        self._names = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rows = []        # (id, name index, start, end, parent id, run id)
        self._chunks = []      # the same rows as arrays, one chunk per command
        self._counters = {}
        self._installed = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, span: str, hook: Hook = None):
        name = self._names.setdefault(span, len(self._names))
        ids, local, rows, clock = self._ids, self._local, self._rows, time.perf_counter
        run = self.commands

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None and hook.on_call is not None:
                args, kwargs = hook.on_call(self, args, kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.append((sid, name, start, end, parent, run))
            if hook is not None and hook.on_result is not None:
                self._count(hook, result, args, kwargs)
            return result

        traced.__perfbench_span__ = span
        return traced

    def _count(self, hook: Hook, result, args, kwargs) -> None:
        try:
            increments = hook.on_result(result, args, kwargs)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError):
            self.broken.add(hook.span)
            return
        with self._lock:
            for key, value in increments.items():
                self._counters[key] = self._counters.get(key, 0) + value

    # -- hooks ---------------------------------------------------------------

    def __enter__(self):
        """Install every hook for one traced command."""
        self.absent = []
        for hook in self.hooks:
            found = _resolve(hook)
            if found is None:
                self.absent.append(f"{hook.module}:{hook.attr}")
                continue
            owner, name, original = found
            owned = name in vars(owner)
            self._installed.append((owner, name, original, owned))
            setattr(owner, name, self.wrap(original, hook.span, hook))
        return self

    def __exit__(self, *exc):
        for owner, name, original, owned in reversed(self._installed):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._installed.clear()
        self._chunks.append(np.array(self._rows, dtype=float).reshape(-1, 6))
        self._rows.clear()
        self.commands += 1
        return False

    # -- results -------------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All recorded spans as rows (id, name index, start, end, parent id, run id)."""
        return np.concatenate(self._chunks) if self._chunks else np.zeros((0, 6))

    @property
    def span_names(self) -> list:
        return sorted(self._names, key=self._names.get)

    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS entry as {"value", "unit"}, per traced command."""
        rows = self.spans()
        names = self.span_names
        ids, name_idx = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
        dur = rows[:, 3] - rows[:, 2]
        order = np.argsort(ids)
        parent = rows[:, 4].astype(np.int64)
        has_parent = parent >= 0
        parent_pos = order[np.searchsorted(ids[order], parent[has_parent])]
        child_time = np.bincount(parent_pos, weights=dur[has_parent], minlength=len(ids))
        self_time = dur - child_time

        count = np.bincount(name_idx, minlength=len(names))
        busy = np.bincount(name_idx, weights=dur, minlength=len(names))
        own = np.bincount(name_idx, weights=self_time, minlength=len(names))
        per_name = {n: (int(count[i]), float(busy[i]), float(own[i])) for i, n in enumerate(names)}

        commands = max(self.commands, 1)
        out = {}
        for metric, (stat, key, unit) in LAYER_METRICS.items():
            if stat == "count":
                value = per_name.get(key, (0, 0.0, 0.0))[0]
            elif stat == "busy":
                value = per_name.get(key, (0, 0.0, 0.0))[1]
            elif stat == "self":
                value = sum(v[2] for n, v in per_name.items() if n.split(".")[0] == key)
            elif stat == "counter":
                value = self._counters.get(key, 0)
            elif stat == "spans":
                value = len(ids)
            else:  # hooks, not commands: reported whole
                out[metric] = {"value": len(self.absent) + len(self.broken), "unit": unit}
                continue
            out[metric] = {"value": value / commands, "unit": unit}
        return out

    def save(self, path) -> None:
        """Write the spans to a compressed ``.npz`` (names, rows)."""
        np.savez_compressed(path, names=np.array(self.span_names), rows=self.spans())
