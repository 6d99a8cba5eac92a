"""Span tracer for the benchmark's traced pass.

The traced pass wraps the layer boundary functions of ``repro`` from
the benchmark's own files; the program is not edited. A function is
wrapped at every binding site: the module that defines it and every
loaded module that imported it by name (``batchpath``, ``multipath``
and ``fastlane`` bind ``compute_schedule``, ``jitter_releases`` and
``simulate_qbone_session`` that way). A method is wrapped on its class
and on every subclass that overrides it (``BatchVqmTool._calibrate``).
A site left unwrapped would make its span read zero without error.

Each call records one span ``[name, start, end, parent, request,
value]``: ``parent`` is the index of the enclosing span (-1 at the
root), ``request`` the request id the client set, and ``value`` an
optional count the boundary reports (events run, points batched, ...).
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

def _engine_events(args, _result, _token):
    # Events the engine has scheduled so far, read from its sequence
    # counter without advancing it (``repr`` of itertools.count).
    return int(repr(args[0]._seq)[len("count(") : -1])


def _batch_points(args, _result, _token):
    return len(args[0])


def _calibration_failed(_args, result, _token):
    return 0 if result.succeeded else 1


def _runner_counts(args, _kwargs):
    stats = args[0].stats
    return stats.submitted, stats.cache_hits


def _campaign_units(args, _result, token):
    stats = args[0].stats
    return stats.submitted - token[0], stats.cache_hits - token[1]


def _flow_count(args, _result, _token):
    return args[0].n_flows


def boundaries():
    """``(span, owner, attribute, observe, pre)`` for every boundary.

    ``span`` names the self-time metric (seconds) the boundary feeds;
    ``owner`` is a module (functions) or a class (methods).
    """
    from repro.client.playout import PlayoutClient
    from repro.client.renderer import RendererEmulation
    from repro.core import netmetrics, resultstore
    from repro.core.campaign import scheduler
    from repro.detect import detector, estimator
    from repro.flows import admission, measure, multipath
    from repro.sim import batchpath, engine, fastpath
    from repro.video import clips
    from repro.vqm.tool import VqmTool

    store, lease = resultstore.ResultStore, resultstore.Lease
    return [
        ("video.encode_s", clips, "encode_clip", None, None),
        ("video.features_s", clips, "clip_features", None, None),
        ("fastpath.schedule_s", fastpath, "compute_schedule", None, None),
        ("fastpath.jitter_s", fastpath, "jitter_releases", None, None),
        ("fastpath.scan_s", fastpath, "simulate_qbone_session", None, None),
        ("fastpath.backbone_s", fastpath, "build_session", None, None),
        ("batchpath.scan_s", batchpath, "run_batch_specs", _batch_points, None),
        ("engine.run_s", engine.Engine, "run", _engine_events, None),
        ("client.finalize_s", PlayoutClient, "finalize", None, None),
        ("client.render_s", RendererEmulation, "replay", None, None),
        ("vqm.calibrate_s", VqmTool, "_calibrate", _calibration_failed, None),
        ("vqm.score_s", VqmTool, "assess", None, None),
        ("netmetrics.summary_s", netmetrics, "summarize_path", None, None),
        (
            "netmetrics.summary_s",
            fastpath.FastPathSession,
            "network_summary",
            None,
            None,
        ),
        (
            "campaign.self_s",
            scheduler,
            "run_stream_through_scheduler",
            _campaign_units,
            _runner_counts,
        ),
        ("store.get_s", store, "get", None, None),
        ("store.put_s", store, "put", None, None),
        ("store.put_s", store, "acquire_lease", None, None),
        ("store.put_s", lease, "release", None, None),
        ("flows.multipath_s", multipath, "run_multipath", _flow_count, None),
        ("flows.measure_s", measure, "measure_aggregate", None, None),
        ("flows.admission_s", admission, "admission_frontier", None, None),
        ("detect.detect_s", detector, "detect_policing", None, None),
        ("detect.estimate_s", estimator, "estimate_token_bucket", None, None),
    ]


def import_all_modules() -> None:
    """Load every ``repro`` module so every by-name binding exists."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # it runs the CLI
            importlib.import_module(info.name)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []
        self.request = "setup"
        self._stack: list = []
        self._undo: list = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record one span around a block; yields the span record."""
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable],
        pre: Optional[Callable],
    ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if observe is not None:
                record[5] = observe(args, result, token)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary at every binding site."""
        import_all_modules()
        for name, owner, attr, observe, pre in boundaries():
            if isinstance(owner, type):
                self._install_method(name, owner, attr, observe, pre)
            else:
                self._install_function(name, getattr(owner, attr), observe, pre)

    def _install_function(self, name, fn, observe, pre) -> None:
        wrapper = self._wrap(name, fn, observe, pre)
        sites = 0
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, fn))
                    sites += 1
        if not sites:
            raise RuntimeError(f"boundary {name}: no binding site found")

    def _install_method(self, name, cls, attr, observe, pre) -> None:
        pending = [cls]
        while pending:
            klass = pending.pop()
            pending.extend(klass.__subclasses__())
            fn = klass.__dict__.get(attr)
            if fn is None:
                continue
            setattr(klass, attr, self._wrap(name, fn, observe, pre))
            self._undo.append((klass, attr, fn))

    def uninstall(self) -> None:
        """Restore every wrapped binding."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_times(self) -> list:
        """Per-span self time: duration minus its children's durations.

        Calls nest strictly (one thread, synchronous boundaries), so
        children never overlap and their durations simply add.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [
            (span[2] - span[1]) - child[i] for i, span in enumerate(self.spans)
        ]

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for span in self.spans:
                name, start, end, parent, request, value = span
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "value": value,
                        }
                    )
                    + "\n"
                )
