"""Spans recorded around carcino's public functions, from outside the package.

A traced run replaces module attributes of the imported ``carcino``
package with wrappers. Each call of a wrapped function records one span:
its name, start, end, parent span and request id (the video or the
benchmark operation it serves). Spans stay in memory until the run ends.

A name bound by ``from ... import`` is a second reference to the same
function object, so ``install`` rebinds every attribute of every carcino
module that holds a target, not only the one in its defining module.
``uninstall`` puts every original back.

Self time is a span's duration minus the part of it its child spans
cover; over one tree the self times add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LAYERS = ("cli", "cohort", "pipeline", "maskio", "metrics", "synth")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: str
    start: float
    end: float = 0.0
    count: float = 0.0  # work done, as the target's counter defines it

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """In-memory span store for one process and one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._opaque = 0

    @property
    def paused(self) -> bool:
        """True inside an opaque operation, where nothing is recorded."""
        return self._opaque > 0

    def open(self, name: str, request: str | None = None, count: float = 0.0) -> Span | None:
        if self.paused:
            return None
        parent = self._stack[-1] if self._stack else None
        if request is None:
            request = parent.request if parent is not None else ""
        span = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent is not None else None,
            request=request,
            start=0.0,
            count=count,
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def operation(self, name: str, request: str, count: float = 0.0, opaque: bool = False):
        """One benchmark operation, recorded as a root span.

        An opaque operation records only its own span: calls made inside
        it run unrecorded, as they would in a pool worker."""
        span = self.open(name, request, count)
        self._opaque += opaque
        try:
            yield span
        finally:
            self._opaque -= opaque
            self.close(span)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to its parent."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


# --- targets -----------------------------------------------------------------


def _raster_bytes(args, kwargs, result) -> float:
    record, base = args[0], Path(args[1])
    names = (record.organ_conf, record.pc_conf, record.gt_labels, record.gt_pc)
    return float(sum(os.stat(base / name).st_size for name in names if name is not None))


def _frames_of_spec(args, kwargs, result) -> float:
    spec = args[0]
    return float(spec.n_videos * (spec.frames_per_video + spec.nonroi_frames_per_video))


@dataclass(frozen=True)
class Target:
    module: str  # carcino submodule defining the function
    name: str
    request_of: Callable | None = None  # (args, kwargs) -> request id
    count_of: Callable | None = None  # (args, kwargs, result) -> work done

    @property
    def span_name(self) -> str:
        return f"{self.module}.{self.name}"


_METRICS = (
    "dice",
    "station_confusions",
    "fs_rmse",
    "normalized_rmse",
    "its_confusions",
    "precision_recall_f1",
    "balanced_accuracy",
    "summarize_runs",
    "macro_average",
)

TARGETS = (
    Target("cli", "main"),
    Target("cohort", "load_cohort"),
    Target("cohort", "stratified_kfold"),
    Target("cohort", "evaluate_cohort"),
    # per-video boundary of evaluate_cohort; its self time counts as cohort's
    Target("cohort", "_assess_video", request_of=lambda a, k: Path(a[0]).parent.name),
    Target("pipeline", "score_video", request_of=lambda a, k: a[0].video_id),
    Target("pipeline", "classify_frame"),
    Target("pipeline", "threshold_organ_masks"),
    Target("pipeline", "threshold_pc_mask"),
    Target("pipeline", "connected_components"),
    Target("pipeline", "assign_nodules", count_of=lambda a, k, r: float(len(a[0]))),
    Target("maskio", "load_manifest", request_of=lambda a, k: Path(a[0]).parent.name),
    Target("maskio", "load_frame", count_of=_raster_bytes),
    Target("maskio", "write_raster", count_of=lambda a, k, r: float(r)),
    Target("maskio", "save_manifest"),
    *(Target("metrics", name) for name in _METRICS),
    Target("synth", "generate_cohort", count_of=_frames_of_spec),
    Target("synth", "monte_carlo_sweep"),
)

_MARK = "__perfbench_wrapper__"


def _wrap(recorder: Recorder, target: Target, func: Callable) -> Callable:
    name = target.span_name
    request_of, count_of = target.request_of, target.count_of

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if recorder.paused:
            return func(*args, **kwargs)
        span = recorder.open(name, request_of(args, kwargs) if request_of else None)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span)
        if count_of is not None:
            span.count = count_of(args, kwargs, result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def carcino_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "carcino" or name.startswith("carcino."))
    ]


def install(recorder: Recorder) -> list[tuple[object, str, Callable]]:
    """Wrap every target wherever a carcino module binds it; returns what
    ``uninstall`` needs to undo it. Undoes its own work if it fails."""
    modules = carcino_modules()
    by_name = {m.__name__: m for m in modules}
    patched = []
    try:
        for target in TARGETS:
            original = getattr(by_name[f"carcino.{target.module}"], target.name)
            if getattr(original, _MARK, False):
                raise RuntimeError(f"{target.span_name} is already wrapped")
            wrapper = _wrap(recorder, target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
    except BaseException:
        uninstall(patched)
        raise
    return patched


def uninstall(patched: list[tuple[object, str, Callable]]) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
    leftover = wrapped_attributes()
    if leftover:
        raise RuntimeError(f"wrappers left installed: {leftover}")


def wrapped_attributes() -> list[str]:
    """Names of carcino module attributes that still hold a wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in carcino_modules()
        for attr, value in vars(module).items()
        if getattr(value, _MARK, False) is True
    ]
