"""Outside-in spans around the public functions of the ``sdze`` modules.

The tracer replaces a function at the place its callers look it up: a name
imported with ``from .x import y`` is wrapped in the importing module, a
method on its class.  Each call becomes one span (name, start, end, parent,
unit id); spans stay in memory until the run ends.  A name that a later
version of the program deleted or renamed is recorded as absent instead of
failing, so the benchmark keeps running unchanged across such refactors.
"""

from __future__ import annotations

import gzip
import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute path, span name).  A span name is "<layer>.<part>".
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sdze.optimizer", "sdze_step", "optimizer.step"),
    ("sdze.optimizer", "sdze_step_naive", "optimizer.step"),
    ("sdze.optimizer", "directional_delta", "optimizer.delta"),
    ("sdze.verify", "directional_delta", "optimizer.delta"),
    ("sdze.optimizer", "stochastic_loss", "spatial.loss"),
    ("sdze.optimizer", "apply_rank_r_update", "subspace.update"),
    ("sdze.optimizer", "maybe_refresh", "subspace.maybe_refresh"),
    ("sdze.optimizer", "sample_core", "subspace.core"),
    ("sdze.verify", "sample_core", "subspace.core"),
    ("sdze.optimizer", "relative_l2", "spatial.eval"),
    ("sdze", "relative_l2", "spatial.eval"),
    ("sdze.net", "perturb_product", "subspace.perturb"),
    ("sdze.net", "delta_rows", "subspace.delta_rows"),
    ("sdze.net", "forward", "net.forward"),
    ("sdze.net", "PerturbView.jet_eval", "net.jet"),
    ("sdze.spatial", "rhs_eval", "spatial.rhs"),
    ("sdze.spatial", "SpatialSample.points", "spatial.points"),
    ("sdze.spatial", "SpatialSample.set1", "spatial.sets"),
    ("sdze.spatial", "SpatialSample.set2", "spatial.sets"),
    ("sdze.subspace", "refresh_bases", "subspace.refresh"),
    ("sdze.rng", "RngStream.normals", "rng.normals"),
    ("sdze.rng", "RngStream.uniforms", "rng.uniforms"),
)


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _bits_lost(lp: float, lm: float) -> float:
    """log2(|l+| / |l+ - l-|): leading bits the symmetric difference cancels."""
    diff = abs(lp - lm)
    if diff == 0.0 or lp == 0.0:
        return 53.0 if lp != 0.0 else 0.0
    return max(0.0, math.log2(abs(lp) / diff))


@dataclass
class Counters:
    """Counts taken at the wrapped boundaries, where the work happens."""

    jet_dirs: int = 0
    perturb_rows: int = 0
    normals_drawn: int = 0
    uniforms_drawn: int = 0
    points_keys: set = field(default_factory=set)
    bits_lost: list = field(default_factory=list)
    nonfinite: int = 0

    def observe(self, span: str, args, kwargs, result) -> None:
        if span == "net.jet":
            self.jet_dirs += len(_arg(args, kwargs, 2, "dims"))
        elif span == "subspace.perturb":
            H = _arg(args, kwargs, 0, "H")
            self.perturb_rows += H.size // H.shape[-1]
        elif span == "rng.normals":
            self.normals_drawn += _arg(args, kwargs, 1, "n")
        elif span == "rng.uniforms":
            self.uniforms_drawn += _arg(args, kwargs, 1, "n")
        elif span == "spatial.points":
            s = args[0]
            at = s.step if s.collocation_step is None else s.collocation_step
            self.points_keys.add((s.master, at, s.B, s.d))
        elif span == "optimizer.delta":
            delta, lp, lm = result
            if all(math.isfinite(x) for x in (delta, lp, lm)):
                self.bits_lost.append(_bits_lost(lp, lm))
            else:
                self.nonfinite += 1


class Tracer:
    """Installs wrappers on enter, restores the originals on exit.

    ``unit`` names the span that counts as one unit of work (an optimizer
    step or one directional estimate); every span carries the index of the
    unit it ran in, 0 for set-up before the first unit.  ``hooks`` maps a
    span name to a callback run with ``True`` on entry and ``False`` on exit.
    """

    def __init__(self, unit: str, targets=TARGETS, *, hooks=None):
        self.unit = unit
        self.targets = targets
        self.hooks = hooks or {}
        self.spans: list[list] = []  # [name, start, end, parent, unit_id]
        self.absent: list[str] = []
        self.counters = Counters()
        self.units = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, path, span in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            saved = vars(owner).get(attr, original) if isinstance(owner, type) else original
            self._restore.append((owner, attr, saved))
            setattr(owner, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, saved in reversed(self._restore):
            setattr(owner, attr, saved)
        self._restore.clear()

    def _wrap(self, fn, span: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        is_unit = span == self.unit
        hook = self.hooks.get(span)

        def traced(*args, **kwargs):
            if is_unit and not stack:
                self.units += 1
            if hook is not None:
                hook(True)
            rec = [span, clock(), 0.0, stack[-1] if stack else -1, self.units]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(False)
            counters.observe(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds.

        Self time is a span's duration minus the part its direct children
        cover; calls are synchronous, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[k]
        return dict(out)

    def write(self, path) -> None:
        """Dump spans as gzipped CSV, times in microseconds from the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_us,end_us,parent,unit\n")
            for k, (name, t0, t1, parent, unit) in enumerate(self.spans):
                fh.write(
                    f"{k},{name},{(t0 - base) * 1e6:.1f},{(t1 - base) * 1e6:.1f},"
                    f"{parent},{unit}\n"
                )
