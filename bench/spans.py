"""Span tracing for the benchmark's traced run.

A :class:`Tracer` rebinds public names in the modules that call them to
wrappers that record one span per call: name, start, end and the enclosing
span. Nothing inside ``htp`` changes; the original objects are put back when
the ``installed`` context exits. A name that no longer exists is reported as
not observed instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

# (module whose global is rebound, attribute, span name). Each name is
# rebound where its caller looks it up, so a function imported by name into
# another module is listed once per importing module.
BINDINGS = (
    ("htp.cli", "load_config", "config.load_config"),
    ("htp.config", "load_config", "config.load_config"),
    ("htp.io", "read_pose_csv", "io.read_pose_csv"),
    ("htp.io", "write_pose_csv", "io.write_pose_csv"),
    ("htp.cli", "init_params", "denoiser.init_params"),
    ("htp.denoiser", "init_params", "denoiser.init_params"),
    ("htp.cli", "denoise_forward", "denoiser.forward"),
    ("htp.denoiser", "denoise_forward", "denoiser.forward"),
    ("htp.cli", "ddim_step", "diffusion.ddim_step"),
    ("htp.cli", "jpma_aggregate", "diffusion.jpma_aggregate"),
    ("htp.denoiser", "pose_embed", "denoiser.pose_embed"),
    ("htp.denoiser", "spatial_gcn", "denoiser.spatial_gcn"),
    ("htp.denoiser", "spatial_mhsa", "denoiser.spatial_mhsa"),
    ("htp.denoiser", "timestep_embedding", "denoiser.timestep_embedding"),
    ("htp.denoiser", "to_additive_mask", "attention.to_additive_mask"),
    ("htp.denoiser", "attention_block", "attention.attention_block"),
    ("htp.denoiser", "cross_mhsa", "attention.cross_mhsa"),
    ("htp.denoiser", "tcep_refine", "tcep.tcep_refine"),
    ("htp.denoiser", "prune_frames", "mgptp.prune_frames"),
    ("htp.denoiser", "select_topk_mask", "tcep.select_topk_mask"),
    ("htp.denoiser", "frame_similarity", "tcep.frame_similarity"),
    ("htp.denoiser", "linear", "core.linear"),
    ("htp.denoiser", "gelu", "core.gelu"),
    ("htp.attention", "sft_mhsa", "attention.sft_mhsa"),
    ("htp.attention", "ffn_block", "attention.ffn_block"),
    ("htp.attention", "linear", "core.linear"),
    ("htp.attention", "gelu", "core.gelu"),
    ("htp.attention", "layer_norm", "core.layer_norm"),
    ("htp.attention", "softmax_rows", "core.softmax_rows"),
    ("htp.tcep", "select_topk_mask", "tcep.select_topk_mask"),
    ("htp.tcep", "frame_similarity", "tcep.frame_similarity"),
    ("htp.tcep", "softmax_rows", "core.softmax_rows"),
    ("htp.tcep", "gelu", "core.gelu"),
)

# Span that closes each stage of macs.profile_model, as a direct child of a
# denoiser.forward span. Everything between two closing spans (residual adds,
# mask conversion, per-block mask refresh) is charged to the later stage, so
# the stages partition the forward pass.
STAGE_CLOSERS = {
    "pose_embed": "denoiser.pose_embed",
    "spatial_gcn": "denoiser.spatial_gcn",
    "entry_spatial": "denoiser.spatial_mhsa",
    "tcep": "tcep.tcep_refine",
    "timestep_mlp": "denoiser.timestep_embedding",
    "mgptp": "mgptp.prune_frames",
    "cross_mhsa": "attention.cross_mhsa",
    "head": "core.linear",
}
BLOCK_CLOSER = "attention.attention_block"


def stage_closer(stage: str) -> str:
    if stage.startswith("block") and stage.endswith(("_full", "_pruned")):
        return BLOCK_CLOSER
    return STAGE_CLOSERS[stage]


def _linear_macs(x, w, b=None) -> int:
    x, w = np.shape(x), np.shape(w)
    return int(np.prod(x[:-1], dtype=np.int64)) * w[0] * w[1]


def _mask_pairs(tokens, add_mask, w) -> tuple[int, int]:
    """(admitted, computed) score pairs of one masked attention call."""
    if add_mask is None:
        return (0, 0)
    return (int(np.count_nonzero(add_mask == 0.0)), int(np.size(add_mask)))


# Measurements taken from a call's arguments, kept on its span.
MEASURE = {"core.linear": _linear_macs, "attention.sft_mhsa": _mask_pairs}


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    not_observed: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        idx = len(self.spans)
        rec = Span(name, self._stack[-1] if self._stack else -1, info=info)
        self.spans.append(rec)
        self._stack.append(idx)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        measure = MEASURE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if measure:
                try:
                    info = measure(*args, **kwargs)
                except (TypeError, IndexError):  # a changed signature: time the call, skip the measurement
                    pass
            with self.span(name, info):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self, bindings=None):
        """Rebind every listed name (default BINDINGS) for the duration of the block."""
        bindings = BINDINGS if bindings is None else bindings
        saved = []
        try:
            for module_name, attr, name in bindings:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.not_observed.append(f"{module_name}.{attr} (missing)")
                    continue
                setattr(module, attr, self.wrap(name, original))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        seen = {s.name for s in self.spans}
        for name in sorted({b[2] for b in bindings} - seen):
            self.not_observed.append(f"{name} (no calls)")

    # -- analysis ---------------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_seconds(self, idx: int, kids: list[list[int]]) -> float:
        return self.spans[idx].seconds - sum(self.spans[k].seconds for k in kids[idx])

    def within(self, root_name: str) -> dict[int, list[int]]:
        """Map each span named root_name to the indices of all its descendants."""
        out: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            p = s.parent
            while p >= 0:
                if self.spans[p].name == root_name:
                    out.setdefault(p, []).append(i)
                    break
                p = self.spans[p].parent
        for i, s in enumerate(self.spans):
            if s.name == root_name:
                out.setdefault(i, [])
        return out

    def stage_seconds(self, forward_idx: int, stages: list[str], kids: list[list[int]]) -> dict[str, float]:
        """Partition one forward span into the given stages by call order.

        A stage whose closing span is not found is left out of the result,
        and so is the next stage found, whose time would include it.
        """
        fwd = self.spans[forward_idx]
        direct = kids[forward_idx]
        boundary, pos, out, gap = fwd.start, 0, {}, False
        for stage in stages:
            closer = stage_closer(stage)
            for k in range(pos, len(direct)):
                if self.spans[direct[k]].name == closer:
                    end = self.spans[direct[k]].end
                    if not gap:
                        out[stage] = end - boundary
                    boundary, pos, gap = end, k + 1, False
                    break
            else:
                gap = True
        return out


def per_root_totals(tracer: Tracer, root_name: str, kids, self_time: bool = False) -> dict[str, list[float]]:
    """For every span named root_name: summed seconds per descendant span name.

    Returns name -> one total per root span (0.0 where a root saw none).
    """
    groups = tracer.within(root_name)
    names = {tracer.spans[i].name for members in groups.values() for i in members}
    totals = {n: [] for n in names}
    for root, members in groups.items():
        acc = dict.fromkeys(names, 0.0)
        for i in members:
            acc[tracer.spans[i].name] += tracer.self_seconds(i, kids) if self_time else tracer.spans[i].seconds
        for n in names:
            totals[n].append(acc[n])
    return totals


def per_root_counts(tracer: Tracer, root_name: str, name: str) -> list[int]:
    groups = tracer.within(root_name)
    return [sum(1 for i in members if tracer.spans[i].name == name) for members in groups.values()]


def med(values) -> float | None:
    values = list(values)
    return median(values) if values else None
