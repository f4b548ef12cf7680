"""What the benchmark runs and reports: workloads, end-to-end metrics, per-layer metrics.

This module is the single source of ``BENCHMARK.json``; ``run.py --write-spec``
regenerates that file from the tables below.
"""

from __future__ import annotations

from dataclasses import dataclass

from synth import FusionShape, VideoShape

HEIGHT, WIDTH = 480, 854  # DAVIS frame size (Perazzi et al., CVPR 2016)
RUN_SECONDS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    video: VideoShape
    fusion: FusionShape | None  # None: combine fuses the video's own tis0 and refine masks
    jobs: int
    j_floor: float              # eval's mean J over the final masks must exceed this


# Every workload runs all four subcommands, so that every end-to-end metric has
# a value on every workload. A subcommand that is not the workload's subject
# runs on a small or derived input: fuse-eval segments a 6-frame clip, and the
# video workloads fuse their own tis0 and refine masks and score the refine masks.
WORKLOADS = (
    Workload(
        name="video-refine",
        why="480x854, 12 frames, ~1.1k 20-px svx, 5% object, jobs 1: full per-pixel tis0+refine "
            "path, memory grows with frames, cheap consensus; the single-threaded baseline",
        video=VideoShape(frames=12, tile=20, object_share=0.05),
        fusion=None,
        jobs=1,
        j_floor=0.85,
    ),
    Workload(
        name="svx-dense",
        why="480x854, 6 frames, ~6.6k 8-px svx, 5% object, jobs 1: the O(n^2) build_consensus "
            "loop dominates refine; little per-pixel and memory work",
        video=VideoShape(frames=6, tile=8, object_share=0.05),
        fusion=None,
        jobs=1,
        j_floor=0.9,
    ),
    Workload(
        name="fuse-eval",
        why="4 seqs x 20 frames at 480x854, 6 methods (1-2 outliers on 30% of frames), "
            "1% object, jobs 2: mask I/O, fusion, contour_f on small objects, thread fan-out; "
            "6-frame tis0 clip",
        video=VideoShape(frames=6, tile=20, object_share=0.01),
        fusion=FusionShape(sequences=4, frames=20, methods=6, object_share=0.01),
        jobs=2,
        j_floor=0.9,
    ),
)

# Tiny shapes for the smoke mode: same code paths, seconds instead of minutes.
SMOKE_SIZE = (48, 64)
SMOKE_VIDEO = VideoShape(frames=3, tile=8, object_share=0.05)
SMOKE_FUSION = FusionShape(sequences=2, frames=3, methods=4, object_share=0.05)
SMOKE_J_FLOOR = 0.5  # on 48x64 frames one pixel of boundary error is a large share of J

SUBCOMMANDS = ("tis0", "refine", "combine", "eval")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening, as a share of the median


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    *(Metric(f"{cmd}_fps", "frames/s", "higher", 0.25) for cmd in SUBCOMMANDS),
    # Peak RSS repeats to 0.5% at --jobs 1; at --jobs 2 it depends on how the threads
    # interleave, and varied by 4% over ten seeds on a shared 2-core machine.
    *(Metric(f"{cmd}_peak_rss_mb", "MB", "lower", 0.15) for cmd in SUBCOMMANDS),
    Metric("j_mean", "ratio", "higher", 0.02),
    Metric("f_mean", "ratio", "higher", 0.02),
)
# fail_ratio (failed / attempted invocations) is printed with the metrics above
# and carried by the result line's "failed" and "attempted" fields. It is 0 on
# a correct run, so it is not an end-to-end metric with a relative bound.


@dataclass(frozen=True)
class Timed:
    """A per-layer timing taken from the spans of one wrapped function.

    ``parent_layer`` keeps only calls made from that layer, for a function
    that several layers call; ``self_time`` subtracts the time covered by
    child spans. ``moves`` names the end-to-end metrics a change here should
    move, ``on`` the workload that exercises it and, after a colon, those
    where it does little of the work, on which such a change should move
    nothing.
    """

    name: str
    span: str
    moves: str
    on: str
    parent_layer: str | None = None
    self_time: bool = False

    @property
    def tail(self) -> str:
        return self.name.removesuffix("_s") + "_tail_s"

    @property
    def calls(self) -> str:
        return self.name.removesuffix("_s").removesuffix("_self") + ".calls"


@dataclass(frozen=True)
class Computed:
    """A per-layer count or ratio computed from the spans (see ``spans.computed_metrics``)."""

    name: str
    unit: str
    better: str
    moves: str
    on: str


_TIS = "tis0_fps, refine_fps"
_MASK_IO = "combine_fps, eval_fps"
TIMED = (
    Timed("io.open_sequence_s", "io.open_sequence", "setup_s", "all"),
    Timed("io.read_flo_s", "io.read_flo", _TIS, "video-refine : fuse-eval"),
    Timed("io.read_ppm_s", "io.read_ppm", _TIS, "video-refine : fuse-eval"),
    Timed("io.read_saliency_pgm_s", "io.read_saliency_pgm", _TIS, "video-refine : fuse-eval"),
    Timed("io.read_pgm16_s", "io.read_pgm16", _TIS, "video-refine : fuse-eval"),
    Timed("io.read_mask_pgm_s", "io.read_mask_pgm", _MASK_IO, "fuse-eval : svx-dense"),
    Timed("io.write_mask_pgm_s", "io.write_mask_pgm", _MASK_IO, "fuse-eval : svx-dense"),
    Timed("io.read_mask_dir_s", "io.read_mask_dir", _MASK_IO, "fuse-eval : svx-dense"),
    Timed("stats.quartiles_s", "stats.quartiles", _TIS, "video-refine : fuse-eval", "segment"),
    Timed("stats.outlier_set_s", "stats.outlier_set", _TIS, "video-refine : fuse-eval", "segment"),
    Timed("stats.outlier_scale_s", "stats.outlier_scale", _TIS, "video-refine : fuse-eval",
          "segment"),
    Timed("stats.mask_outlier_scales_s", "stats.mask_outlier_scales", "combine_fps", "fuse-eval"),
    Timed("segment.flow_measures_s", "segment.flow_measures", "tis0_fps, tis0_peak_rss_mb",
          "video-refine : svx-dense"),
    Timed("segment.frame_foregroundness_self_s", "segment.frame_foregroundness",
          "tis0_fps, tis0_peak_rss_mb", "video-refine : svx-dense", self_time=True),
    Timed("segment.threshold_mask_s", "segment.threshold_mask", "tis0_fps, tis0_peak_rss_mb",
          "video-refine : svx-dense"),
    Timed("segment.select_top_segments_s", "segment.select_top_segments",
          "tis0_fps, tis0_peak_rss_mb", "video-refine : svx-dense", "segment"),
    Timed("segment.segment_sequence_s", "segment.segment_sequence", "tis0_fps, tis0_peak_rss_mb",
          "video-refine : svx-dense"),
    Timed("refine.rgb_to_lab_s", "refine.rgb_to_lab", "refine_fps, refine_peak_rss_mb",
          "video-refine : svx-dense"),
    Timed("refine.normalize_lab_s", "refine.normalize_lab", "refine_fps, refine_peak_rss_mb",
          "video-refine : svx-dense"),
    Timed("refine.supervoxel_stats_s", "refine.supervoxel_stats", "refine_fps, refine_peak_rss_mb",
          "video-refine : svx-dense"),
    Timed("refine.build_consensus_s", "refine.build_consensus", "refine_fps",
          "svx-dense : video-refine"),
    Timed("refine.adjusted_foregroundness_s", "refine.adjusted_foregroundness", "refine_fps",
          "video-refine"),
    Timed("refine.select_top_segments_s", "segment.select_top_segments", "refine_fps",
          "video-refine", "refine"),
    Timed("fusion.fuse_sequence_s", "fusion.fuse_sequence", "combine_fps", "fuse-eval"),
    Timed("fusion.fuse_frame_s", "fusion.fuse_frame", "combine_fps", "fuse-eval"),
    Timed("metrics.jaccard_s", "metrics.jaccard", "eval_fps", "fuse-eval"),
    Timed("metrics.contour_f_s", "metrics.contour_f", "eval_fps", "fuse-eval"),
    Timed("metrics.mask_boundary_s", "metrics.mask_boundary", "eval_fps", "fuse-eval"),
    Timed("metrics.evaluate_dataset_s", "metrics.evaluate_dataset", "eval_fps", "fuse-eval"),
    Timed("parallel.parallel_map_s", "parallel.parallel_map", _MASK_IO,
          "fuse-eval : video-refine"),
    Timed("cli.main_self_s", "cli.main", "every *_fps", "all", self_time=True),
)

COMPUTED = (
    Computed("io.files_validated", "count", "lower", "setup_s", "all"),
    Computed("io.decode_mb", "MB", "lower", _TIS, "video-refine : fuse-eval"),
    Computed("io.decodes_per_file", "ratio", "lower", _TIS, "video-refine : fuse-eval"),
    Computed("stats.finite_scans_per_measure", "ratio", "lower", _TIS, "video-refine : fuse-eval"),
    Computed("segment.fore_mb_held", "MB", "lower", "tis0_peak_rss_mb", "video-refine : svx-dense"),
    Computed("refine.lab_mb_held", "MB", "lower", "refine_peak_rss_mb", "video-refine : svx-dense"),
    Computed("refine.n_supervoxels", "count", "lower", "refine_fps", "svx-dense : video-refine"),
    Computed("refine.n_neighbors", "count", "lower", "refine_fps", "svx-dense : video-refine"),
    Computed("fusion.foreground_counts_per_frame", "ratio", "lower", "combine_fps", "fuse-eval"),
    Computed("fusion.zero_weight_share", "ratio", "lower", "combine_fps", "fuse-eval"),
    Computed("parallel.items", "count", "lower", _MASK_IO, "fuse-eval"),
    Computed("parallel.utilization", "ratio", "higher", _MASK_IO,
             "fuse-eval : video-refine"),
    Computed("cli.output_mb", "MB", "lower", "every *_fps", "all"),
    Computed("trace.overhead_s", "s", "lower", "none", "all"),
)

LAYERS = ("io", "stats", "segment", "refine", "fusion", "metrics", "parallel", "cli")


def per_layer_metrics() -> list[Metric]:
    """Every per-layer metric, in report order."""
    metrics = []
    for t in TIMED:
        metrics += [
            Metric(t.name, "s", "lower"),
            Metric(t.tail, "s", "lower"),
            Metric(t.calls, "count", "lower"),
        ]
    metrics += [Metric(c.name, c.unit, c.better) for c in COMPUTED]
    metrics += [Metric(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    return metrics


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer_metrics()
        ],
    }
