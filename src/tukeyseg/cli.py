"""Command-line interface: segment, refine, combine, and evaluate.

Subcommands mirror the pipeline stages. All numeric defaults are the
pipeline's standard values and every one of them can be overridden for
ablation runs. Set ``TIS_LOG=debug|info|warning`` for logging verbosity.
All outputs are computed before anything is written. An output directory
ends up holding exactly the files of one run: they are written to a hidden
staging directory inside it and renamed into place once all are written,
and the earlier outputs are removed. A directory that holds anything these
subcommands do not write, or that the run reads rasters from, is refused
before any input is read, and never written to. ``eval --output`` replaces
its one table file the same way, in any directory but a sequence directory
that the run reads masks from, and refuses a path that is a directory. A non-zero exit leaves the previous
outputs as they were and removes any directory the run created.

Importing this module loads ``tukeyseg.io``, numpy and the standard
library only. Each subcommand imports its own stage when it runs: ``tis0``
``tukeyseg.segment``, ``refine`` ``tukeyseg.refine``, ``combine``
``tukeyseg.fusion`` and ``eval`` ``tukeyseg.metrics``, each with what that
module imports, so no invocation pays to load the stages it does not run.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

from tukeyseg.io import _check_same_extent, open_sequence, read_mask_dir, write_mask_pgm

log = logging.getLogger(__name__)

# The names of tukeyseg.fusion.STRATEGIES, spelled out so that building the
# parser does not load the fusion stage; a test keeps the two equal.
_STRATEGIES = ("tism", "mean", "median")


def _exponent_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad exponent list '{text}'") from exc
    if not all(0 < k < math.inf for k in values):
        raise argparse.ArgumentTypeError(f"exponents must be finite and positive, not {text}")
    return values


def _parsed(kind, text: str):
    try:
        return kind(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a valid {kind.__name__}: '{text}'") from exc


def _jobs(text: str) -> int:
    value = _parsed(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _finite_float(text: str) -> float:
    value = _parsed(float, text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text}")
    return value


def _non_negative(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, not {text}")
    return value


def _unit_interval(text: str) -> float:
    value = _parsed(float, text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], not {text}")
    return value


def _add_segmenter_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k-fences", type=_non_negative, default=1.5,
                        help="outlier fence multiple of the IQR (default 1.5)")
    parser.add_argument("--min-flow-scale", type=_unit_interval, default=0.5,
                        help="minimum outlier scale for flow measures (default 0.5)")
    parser.add_argument("--vs-exponents", type=_exponent_list, default=(1.0, 0.5, 1.0 / 3.0),
                        metavar="K1,K2,...",
                        help="comma-separated saliency exponents (default 1,0.5,0.333...)")
    parser.add_argument("--connectivity", type=int, choices=(4, 8), default=8,
                        help="segment connectivity (default 8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tukeyseg",
        description="Video object segmentation from robust outlier statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tis0 = sub.add_parser("tis0", help="segment a video from flow and saliency outliers")
    tis0.add_argument("--input", required=True, help="video directory (frames/flow/saliency layout)")
    tis0.add_argument("--output", required=True, help="directory for %%05d.pgm masks and diagnostics")
    _add_segmenter_args(tis0)
    tis0.add_argument("--jobs", type=_jobs, default=1, help="worker threads for per-frame stages")

    refine = sub.add_parser("refine", help="segment, then refine boundaries with supervoxel consensus")
    refine.add_argument("--input", required=True,
                        help="video directory (frames/flow/saliency/svx layout)")
    refine.add_argument("--output", required=True, help="directory for refined %%05d.pgm masks")
    _add_segmenter_args(refine)
    refine.add_argument("--mode", choices=("local", "nonlocal"), default="nonlocal",
                        help="consensus mode (default nonlocal)")
    refine.add_argument("--w0", type=_finite_float, default=None,
                        help="override the local-consensus weight (default 1 local, 1/3 nonlocal)")
    refine.add_argument("--jobs", type=_jobs, default=1)

    combine = sub.add_parser("combine", help="fuse the masks of several methods")
    combine.add_argument("--input", required=True,
                         help="directory whose subdirectories each hold one method's %%05d.pgm masks")
    combine.add_argument("--output", required=True, help="directory for fused masks and the weight report")
    combine.add_argument("--strategy", choices=_STRATEGIES, default="tism",
                         help="fusion rule (default tism)")
    combine.add_argument("--k-fences", type=_non_negative, default=1.5)
    combine.add_argument("--jobs", type=_jobs, default=1)

    evaluate = sub.add_parser("eval", help="score predicted masks against ground truth")
    evaluate.add_argument("--input", required=True, help="prediction root (one directory per sequence)")
    evaluate.add_argument("--ground-truth", required=True, help="ground-truth root")
    evaluate.add_argument("--output", default=None, help="also write the CSV table to this file")
    evaluate.add_argument("--tolerance", type=_non_negative, default=None,
                          help="contour tolerance in pixels (default: 0.0075 * image diagonal)")
    evaluate.add_argument("--jobs", type=_jobs, default=1)

    return parser


# the raster directories of a video that tis0 and refine read
_VIDEO_RASTERS = ("frames", "flow", "saliency", "svx")
_OUTPUT_NAME = re.compile(r"[0-9]{5,}\.pgm|flow_alphas\.csv|mask_alphas\.csv")
_STAGING_PREFIX = ".tukeyseg-"
_STAGING_NAME = re.compile(r"\.tukeyseg-[a-z0-9_]+")


def _output_names(directory: Path) -> list[str]:
    """Names of the entries in ``directory`` that a run replaces.

    An existing ``directory`` is used only if it holds nothing but files these
    subcommands write, plus staging directories a killed run left behind;
    anything else raises ``ValueError``.
    """
    if directory.exists() and not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")
    names = []
    if directory.is_dir():
        for entry in directory.iterdir():
            if not (entry.is_file() and _OUTPUT_NAME.fullmatch(entry.name)
                    or entry.is_dir() and _STAGING_NAME.fullmatch(entry.name)):
                raise ValueError(f"{entry}: not an output of this program, "
                                 f"so {directory} is not written to")
            names.append(entry.name)
    return names


def _check_output(directory: Path, inputs, replaced=None) -> None:
    """Refuse an output ``directory`` that resolves to one of the run's ``inputs``, or is foreign.

    ``replaced`` is as for :func:`_write_outputs`: given, it names what the run
    replaces, and the directory's other entries are not looked at.
    """
    target = directory.resolve()
    if any(d.resolve() == target for d in inputs):
        raise ValueError(f"{directory}: the run reads input rasters from it, "
                         "so it is not written to")
    if replaced is None:
        _output_names(directory)


def _write_outputs(directory: Path, files: dict[str, bytes], replaced=None) -> None:
    """Make ``directory`` hold ``files`` instead of ``replaced``; a failure changes nothing.

    ``replaced`` defaults to :func:`_output_names`, so that ``directory`` ends
    up holding exactly ``files``. The files are written to a hidden staging
    directory inside ``directory`` and renamed into place once all of them
    are written; the ``replaced`` entries are first moved into the staging
    directory, and every rename is undone if one fails. On failure every
    directory this call created is removed too.
    """
    if replaced is None:
        replaced = _output_names(directory)
    created = [d for d in (directory, *directory.parents) if not d.exists()]
    staging = None
    renamed = []
    try:
        directory.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=_STAGING_PREFIX, dir=directory))
        previous = staging / "previous"
        previous.mkdir()
        for name, data in files.items():
            (staging / name).write_bytes(data)
        moves = [(directory / name, previous / name) for name in replaced]
        moves += [(staging / name, directory / name) for name in files]
        for source, target in moves:
            os.replace(source, target)
            renamed.append((source, target))
    except BaseException:
        for source, target in reversed(renamed):
            os.replace(target, source)
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        for d in created:
            try:
                d.rmdir()
            except OSError:
                break
        raise
    shutil.rmtree(staging, ignore_errors=True)


def _mask_files(masks) -> dict[str, bytes]:
    return {f"{i:05d}.pgm": write_mask_pgm(mask) for i, mask in enumerate(masks)}


def _flow_scale_csv(flow_scales) -> bytes:
    lines = ["frame,component,alpha"]
    for index, scales in enumerate(flow_scales):
        for component, alpha in scales.items():
            lines.append(f"{index},{component},{alpha:.12g}")
    return ("\n".join(lines) + "\n").encode()


def _fusion_report_csv(records) -> bytes:
    lines = ["frame,method,count,alpha"]
    for record in records:
        lines.append(f"{record.frame},{record.method},{record.count},{record.alpha:.12g}")
    return ("\n".join(lines) + "\n").encode()


def _segmenter_config(args):
    from tukeyseg.segment import SegmenterConfig

    return SegmenterConfig(
        k_fences=args.k_fences,
        vs_exponents=args.vs_exponents,
        min_flow_scale=args.min_flow_scale,
        connectivity=args.connectivity,
    )


def _cmd_tis0(args) -> int:
    from tukeyseg.segment import segment_sequence

    _check_output(Path(args.output), [Path(args.input) / d for d in _VIDEO_RASTERS])
    seq = open_sequence(args.input)
    result = segment_sequence(seq, _segmenter_config(args), jobs=args.jobs)
    files = _mask_files(result.masks)
    files["flow_alphas.csv"] = _flow_scale_csv(result.flow_scales)
    _write_outputs(Path(args.output), files)
    log.info("wrote %d masks to %s", len(result.masks), args.output)
    return 0


def _cmd_refine(args) -> int:
    from tukeyseg.refine import RefineConfig, refine_sequence

    _check_output(Path(args.output), [Path(args.input) / d for d in _VIDEO_RASTERS])
    seq = open_sequence(args.input)
    ref_cfg = RefineConfig(mode=args.mode, w0=args.w0)
    result = refine_sequence(seq, _segmenter_config(args), ref_cfg, jobs=args.jobs)
    _write_outputs(Path(args.output), _mask_files(result.masks))
    log.info("wrote %d refined masks to %s", len(result.masks), args.output)
    return 0


def _cmd_combine(args) -> int:
    from tukeyseg.fusion import fuse_sequence

    root = Path(args.input)
    if not root.is_dir():
        raise ValueError(f"not a directory: {root}")
    method_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not method_dirs:
        raise ValueError(f"{root}: no method directories")
    _check_output(Path(args.output), method_dirs)
    per_method = [read_mask_dir(d) for d in method_dirs]
    _check_same_extent(per_method)
    # one frame's masks are decoded when the pool is ready for that frame
    frames = zip(*per_method)
    fused, records = fuse_sequence(
        frames,
        method_names=[d.name for d in method_dirs],
        strategy=args.strategy,
        k_fences=args.k_fences,
        jobs=args.jobs,
    )
    files = _mask_files(fused)
    files["mask_alphas.csv"] = _fusion_report_csv(records)
    _write_outputs(Path(args.output), files)
    log.info("fused %d methods over %d frames", len(method_dirs), len(per_method[0]))
    return 0


def _cmd_eval(args) -> int:
    from tukeyseg.metrics import evaluate_dataset, rows_to_csv

    if args.output:
        out, truth = Path(args.output), Path(args.ground_truth)
        if out.is_dir():
            raise ValueError(f"{out}: is a directory, so it is not written to")
        names = [d.name for d in truth.iterdir() if d.is_dir()] if truth.is_dir() else []
        read = [root / name for root in (Path(args.input), truth) for name in names]
        _check_output(out.parent, read, replaced=())
    rows = evaluate_dataset(args.input, args.ground_truth, tolerance=args.tolerance, jobs=args.jobs)
    csv = rows_to_csv(rows)
    sys.stdout.write(csv)
    if args.output:
        _write_outputs(out.parent, {out.name: csv.encode()}, replaced=())
    return 0


_COMMANDS = {
    "tis0": _cmd_tis0,
    "refine": _cmd_refine,
    "combine": _cmd_combine,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    level = os.environ.get("TIS_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
