"""Operations, checks and metrics of one benchmark run.

Imported only after the BLAS thread cap is set, because it loads numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import numpy as np

import htp.cli
import htp.config
import htp.denoiser
import htp.io
import spans as S
import workloads as W
from htp.macs import profile_model

END_TO_END = (
    ("infer_s", "s"),
    ("forward_s", "s"),
    ("forward_s_tail", "s"),
    ("hyp_steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Stage groups reported on every workload. blocks_full and blocks_pruned sum
# the block{i}_full and block{i}_pruned stages, whose count differs between
# workloads; each block is listed on its own in the table and result file.
STAGE_GROUPS = (
    "pose_embed", "spatial_gcn", "entry_spatial", "tcep", "timestep_mlp",
    "blocks_full", "mgptp", "blocks_pruned", "cross_mhsa", "head",
)

PER_LAYER = tuple(
    (f"denoiser.stage.{g}.{m}", u)
    for g in STAGE_GROUPS
    for m, u in (("s", "s"), ("gmacs", "GMAC"), ("roofline_frac", "ratio"))
) + (
    ("core.linear.calls", "count"),
    ("core.linear.s", "s"),
    ("core.linear.gmacs", "GMAC"),
    ("core.gelu.s", "s"),
    ("core.softmax_rows.s", "s"),
    ("core.layer_norm.s", "s"),
    ("roofline.gemm_gmacs", "GMAC/s"),
    ("tcep.select_topk_mask.calls", "count"),
    ("tcep.select_topk_mask.s", "s"),
    ("tcep.tcep_refine.self_s", "s"),
    ("attention.mask_density", "ratio"),
    ("attention.sft_mhsa.self_s", "s"),
    ("attention.ffn_block.self_s", "s"),
    ("attention.cross_mhsa.self_s", "s"),
    ("mgptp.prune_frames.s", "s"),
    ("denoiser.forward.calls", "count"),
    ("diffusion.ddim_step.s", "s"),
    ("diffusion.jpma_aggregate.s", "s"),
    ("denoiser.init_params.s", "s"),
    ("config.load_config.s", "s"),
    ("io.read_pose_csv.s", "s"),
    ("io.write_pose_csv.s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("failed_ratio", "ratio"),
)

SAMPLING_RE = re.compile(r"infer: (\d+(?:\.\d+)?)s sampling")


def tail(samples: list[float]) -> tuple[float, str]:
    """p90 when there are at least ten samples, else the maximum."""
    if len(samples) >= 10:
        return quantiles(samples, n=10)[-1], "p90"
    return max(samples), "max"


@dataclass
class Ledger:
    """Counts operations and records why any failed; never raises."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def timed(self, label: str, fn, check):
        """Time fn(); return (result, seconds), or (None, None) when it raised
        or check(result) reported problems."""
        self.attempted += 1
        try:
            start = perf_counter()
            result = fn()
            seconds = perf_counter() - start
            problems = check(result)
        except Exception as exc:  # every failure is counted, none aborts the run
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, None
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            return None, None
        return result, seconds


class Bench:
    """One workload in one process: cases, operations and their checks."""

    def __init__(self, wl: W.Workload, seed: int, workdir: Path, reference: dict | None):
        self.wl = wl
        self.workdir = workdir
        self.reference = reference
        self.ledger = Ledger()
        self.cases = [W.make_case(wl, W.REFERENCE_SEED, workdir / "ref"), W.make_case(wl, seed, workdir / "seed")]
        self.den_cfg = htp.config.load_config(self.cases[0].config_path).denoiser_config()
        self.first_outputs: dict = {}
        self.params = None
        self.infer_count = 0

    # -- checks -----------------------------------------------------------

    def check_output(self, kind: str, case, pose, retained) -> list[str]:
        cfg = self.den_cfg
        problems = W.check_pose(pose, (cfg.joints, cfg.frames, 3)) + W.check_retained(
            retained, cfg.frames, cfg.keep_frames
        )
        if problems:
            return problems
        if case.seed == W.REFERENCE_SEED and self.reference is not None:
            problems += W.compare_pose(pose, self.reference[f"{kind}_pose"])
            problems += W.compare_retained(retained, self.reference[f"{kind}_retained"])
        key = (kind, case.seed)
        if key in self.first_outputs:
            pose0, retained0 = self.first_outputs[key]
            if not (np.array_equal(pose, pose0) and np.array_equal(retained, retained0)):
                problems.append(f"{kind} output is not bitwise equal to an earlier call on the same input")
        else:
            self.first_outputs[key] = (np.array(pose), np.array(retained))
        return problems

    # -- operations (module attributes are looked up per call, so the traced
    # run sees every call) -------------------------------------------------

    def setup(self, rep: int):
        """What `infer` does before its first forward pass; keeps the weights."""
        case = self.cases[rep % 2]
        self.params = None

        def op():
            cfg = htp.config.load_config(case.config_path)
            keypoints = htp.io.read_pose_csv(case.obs_path)
            params = htp.denoiser.init_params(cfg.denoiser_config(), self.cases[0].weight_seed)
            return keypoints, params

        def check(result):
            keypoints, params = result
            problems = [] if np.array_equal(keypoints, case.keypoints) else ["2-D input read back differs"]
            if len(params.blocks) != self.den_cfg.blocks:
                problems.append(f"{len(params.blocks)} blocks initialised, expected {self.den_cfg.blocks}")
            return problems

        result, seconds = self.ledger.timed(f"setup[{rep}] seed={case.seed}", op, check)
        if result is not None:
            self.params = result[1]
        return seconds

    def infer(self, rep: int):
        """One in-process `htp infer`; returns (wall seconds, sampling seconds)."""
        case = self.cases[rep % 2]
        self.infer_count += 1
        outdir = self.workdir / f"infer{self.infer_count}"
        outdir.mkdir()
        out, retained = outdir / "out.csv", outdir / "retained.json"
        argv = ["infer", "--config", str(case.config_path), "--in-2d", str(case.obs_path),
                "--out", str(out), "--emit-retained", str(retained), "--time"]
        text = io.StringIO()

        def op():
            with contextlib.redirect_stdout(text):
                return htp.cli.main(argv)

        def check(code):
            if code != 0:
                return [f"exit code {code}"]
            if not SAMPLING_RE.search(text.getvalue()):
                return ["`infer --time` printed no sampling time"]
            pose = W.read_csv_pose(out, 3)
            return self.check_output("infer", case, pose, np.asarray(json.loads(retained.read_text())))

        code, seconds = self.ledger.timed(f"infer[{rep}] seed={case.seed}", op, check)
        shutil.rmtree(outdir)
        if code is None:
            return None, None
        return seconds, float(SAMPLING_RE.search(text.getvalue()).group(1))

    def forward(self, rep: int):
        """One single-hypothesis denoise_forward at t = T."""
        case = self.cases[rep % 2]
        diagnostics: dict = {}

        def op():
            if self.params is None:
                raise RuntimeError("no parameters: every setup failed")
            return htp.denoiser.denoise_forward(
                case.noisy, case.keypoints, W.TIMESTEPS, self.den_cfg, self.params, diagnostics=diagnostics
            )

        def check(pose):
            return self.check_output("forward", case, pose, diagnostics.get("retained_indices"))

        _, seconds = self.ledger.timed(f"forward[{rep}] seed={case.seed}", op, check)
        return seconds


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Rounds of one infer and then units of (set-ups, one forward).

    The host's speed drifts over seconds, so the operations are interleaved
    and every metric's samples spread over the whole run. Each round owns an
    equal share of `seconds`; after its minimum units it adds one more only
    while the median unit is expected to end within that share.
    """
    wl = bench.wl
    infers, setups, forwards, unit_s = [], [], [], []

    def unit():
        start = perf_counter()
        setups.extend(bench.setup(len(setups)) for _ in range(wl.setups_per_forward))
        forwards.append(bench.forward(len(forwards)))
        unit_s.append(perf_counter() - start)

    started = perf_counter()
    for r in range(wl.rounds):
        round_end = started + (r + 1) * seconds / wl.rounds
        bench.params = None  # infer's weights and the set-up's are never alive together
        infers.append(bench.infer(r))
        for _ in range(wl.min_forwards_per_round):
            unit()
        while perf_counter() + median(unit_s) < round_end:
            unit()
    bench.params = None

    infer_s = [s for s, _ in infers if s is not None]
    steps = wl.config["hypotheses"] * wl.config["iterations"]
    done = [(s, sampling) for s, sampling in infers if s is not None]
    rates = [steps / sampling for _, sampling in done]
    forward_s = [s for s in forwards if s is not None]
    setup_s = [s for s in setups if s is not None]
    tail_s, tail_kind = tail(forward_s) if forward_s else (None, "")
    metrics = {
        "infer_s": median(infer_s) if infer_s else None,
        "forward_s": median(forward_s) if forward_s else None,
        "forward_s_tail": tail_s,
        "hyp_steps_per_s": median(rates) if rates else None,
        "setup_s": median(setup_s) if setup_s else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "infer_s": f"median of n={len(infer_s)}, H={wl.config['hypotheses']} K={wl.config['iterations']}",
        "forward_s": f"median of n={len(forward_s)}",
        "forward_s_tail": f"{tail_kind} of n={len(forward_s)}",
        "hyp_steps_per_s": f"median of n={len(rates)}, {steps} hypothesis-steps / sampling seconds",
        "setup_s": f"median of n={len(setup_s)}: load_config + read_pose_csv + init_params",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    samples = {"infer_s": infer_s, "sampling_s": [s for _, s in done], "forward_s": forward_s, "setup_s": setup_s}
    return metrics, {"notes": notes, "samples": samples}


def gemm_roofline(rows: int, dim: int, hidden: int, budget_s: float = 0.4) -> dict[str, float]:
    """Achieved float64 GEMM rate (GMAC/s) at the workload's linear shapes."""
    rng = np.random.default_rng(0)
    rates = {}
    for cols in (dim, hidden):
        a = rng.standard_normal((rows, dim))
        b = rng.standard_normal((dim, cols))
        a @ b  # warm-up
        times = []
        deadline = perf_counter() + budget_s
        while len(times) < 3 or perf_counter() < deadline:
            start = perf_counter()
            a @ b
            times.append(perf_counter() - start)
        rates[f"{rows}x{dim}x{cols}"] = rows * dim * cols / median(times) / 1e9
    return rates


def measure_traced(bench: Bench) -> tuple[dict, dict]:
    wl, cfg = bench.wl, bench.den_cfg
    n = wl.traced_forwards
    # Untraced pass: the baseline for the overhead and the outputs the traced
    # pass must reproduce bit for bit (check_output compares repeats).
    bench.infer(0)
    bench.setup(0)
    untraced = [bench.forward(i) for i in range(n)]
    bench.params = None

    tracer = S.Tracer()
    with tracer.installed():
        with tracer.span("cli.infer"):
            bench.infer(0)
        bench.setup(0)
        traced = [bench.forward(i) for i in range(n)]
        bench.params = None

    roof = gemm_roofline(cfg.joints * cfg.frames, cfg.embed_dim, cfg.mlp_hidden)
    roof_gmacs = max(roof.values())

    spans, kids = tracer.spans, tracer.children()
    macs = dict(profile_model(cfg, 1, 1).stages)
    stages = list(macs)
    forwards = [i for i, s in enumerate(spans) if s.name == "denoiser.forward"]
    per_forward = [tracer.stage_seconds(i, stages, kids) for i in forwards]

    def stage_entry(names: list[str]) -> dict:
        sums = [sum(d[s] for s in names) for d in per_forward if all(s in d for s in names)]
        gmacs = sum(macs[s] for s in names) / 1e9
        sec = median(sums) if sums else None
        return {"s": sec, "gmacs": gmacs, "roofline_frac": gmacs / sec / roof_gmacs if sec else None}

    stage_table = {s: stage_entry([s]) for s in stages}
    groups = {g: [g] for g in STAGE_GROUPS if g in macs}
    groups["blocks_full"] = [s for s in stages if s.endswith("_full")]
    groups["blocks_pruned"] = [s for s in stages if s.endswith("_pruned")]

    totals = S.per_root_totals(tracer, "denoiser.forward", kids)
    self_totals = S.per_root_totals(tracer, "denoiser.forward", kids, self_time=True)
    per_infer = S.per_root_totals(tracer, "cli.infer", kids)
    fwd_groups = tracer.within("denoiser.forward")
    masked = [spans[i].info for members in fwd_groups.values() for i in members
              if spans[i].name == "attention.sft_mhsa" and spans[i].info and spans[i].info[1]]
    linear_gmacs = [sum(spans[i].info or 0 for i in m if spans[i].name == "core.linear") / 1e9
                    for m in fwd_groups.values()]

    observed = {s.name for s in spans}

    def call_median(name):
        return S.med(s.seconds for s in spans if s.name == name)

    def counts(root, name):
        return S.med(S.per_root_counts(tracer, root, name)) if name in observed else None

    metrics = {}
    for g in STAGE_GROUPS:
        entry = stage_entry(groups[g]) if groups.get(g) else {"s": None, "gmacs": None, "roofline_frac": None}
        for m in ("s", "gmacs", "roofline_frac"):
            metrics[f"denoiser.stage.{g}.{m}"] = entry[m]
    metrics.update({
        "core.linear.calls": counts("denoiser.forward", "core.linear"),
        "core.linear.s": S.med(totals.get("core.linear", [])),
        "core.linear.gmacs": S.med(linear_gmacs) if "core.linear" in observed else None,
        "core.gelu.s": S.med(totals.get("core.gelu", [])),
        "core.softmax_rows.s": S.med(totals.get("core.softmax_rows", [])),
        "core.layer_norm.s": S.med(totals.get("core.layer_norm", [])),
        "roofline.gemm_gmacs": roof_gmacs,
        "tcep.select_topk_mask.calls": counts("denoiser.forward", "tcep.select_topk_mask"),
        "tcep.select_topk_mask.s": S.med(totals.get("tcep.select_topk_mask", [])),
        "tcep.tcep_refine.self_s": S.med(self_totals.get("tcep.tcep_refine", [])),
        "attention.mask_density": sum(a for a, _ in masked) / sum(c for _, c in masked) if masked else None,
        "attention.sft_mhsa.self_s": S.med(self_totals.get("attention.sft_mhsa", [])),
        "attention.ffn_block.self_s": S.med(self_totals.get("attention.ffn_block", [])),
        "attention.cross_mhsa.self_s": S.med(self_totals.get("attention.cross_mhsa", [])),
        "mgptp.prune_frames.s": S.med(totals.get("mgptp.prune_frames", [])),
        "denoiser.forward.calls": counts("cli.infer", "denoiser.forward"),
        "diffusion.ddim_step.s": S.med(per_infer.get("diffusion.ddim_step", [])),
        "diffusion.jpma_aggregate.s": S.med(per_infer.get("diffusion.jpma_aggregate", [])),
        "denoiser.init_params.s": call_median("denoiser.init_params"),
        "config.load_config.s": call_median("config.load_config"),
        "io.read_pose_csv.s": call_median("io.read_pose_csv"),
        "io.write_pose_csv.s": call_median("io.write_pose_csv"),
    })
    base = [s for s in untraced if s is not None]
    with_trace = [s for s in traced if s is not None]
    metrics["trace.overhead_frac"] = median(with_trace) / median(base) - 1.0 if base and with_trace else None
    extra = {
        "stages": stage_table,
        "stage_samples": per_forward,
        "roofline": roof,
        "not_observed": tracer.not_observed,
        "samples": {"forward_s_untraced": base, "forward_s_traced": with_trace},
    }
    return metrics, extra
