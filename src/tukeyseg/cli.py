"""Command-line interface: segment, refine, combine, and evaluate.

Subcommands mirror the pipeline stages. All numeric defaults are the
pipeline's standard values and every one of them can be overridden for
ablation runs. Set ``TIS_LOG`` to ``debug``, ``info`` or ``warning``, in any
case, for logging verbosity; unset or empty means ``warning``, and any other
value is refused with exit status 2 before any input is read. The level is
set on the ``tukeyseg`` logger by every call of :func:`main`.
An output directory ends up holding exactly the files of one run: each is
written to a hidden staging directory inside it as soon as it is encoded,
and all are renamed into place once the last one is written,
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
from dataclasses import astuple, fields
from itertools import chain
from pathlib import Path

from tukeyseg.io import (_VIDEO_RASTERS, _check_same_extent, _indexed_name, _mask_dirs,
                         _name_index, open_sequence, read_mask_dir, write_mask_pgm)

log = logging.getLogger(__name__)

# The values of TIS_LOG, lower-cased, and their logging levels.
_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING}

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


def _number(kind=float, low=-math.inf, high=math.inf):
    """An argparse type: a finite ``kind`` in [low, high], else exit status 2 naming the flag."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not a valid {kind.__name__}: '{text}'") from exc
        if not (low <= value <= high and abs(value) < math.inf):  # an int may not fit a float
            raise argparse.ArgumentTypeError(f"must be finite and in [{low:g}, {high:g}], not {text}")
        return value

    return parse


_JOBS = _number(int, low=1)
_NON_NEGATIVE = _number(low=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tukeyseg",
        description="Video object segmentation from robust outlier statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several subcommands, each declared once in a parent parser
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_JOBS, default=1,
                      help="worker threads (default 1); outputs do not depend on it")
    k_fences = argparse.ArgumentParser(add_help=False)
    k_fences.add_argument("--k-fences", type=_NON_NEGATIVE, default=1.5,
                          help="outlier fence multiple of the IQR (default 1.5)")
    segmenter = argparse.ArgumentParser(add_help=False, parents=[k_fences])
    segmenter.add_argument("--min-flow-scale", type=_number(low=0.0, high=1.0), default=0.5,
                           help="minimum outlier scale for flow measures (default 0.5)")
    segmenter.add_argument("--vs-exponents", type=_exponent_list, default=(1.0, 0.5, 1.0 / 3.0),
                           metavar="K1,K2,...",
                           help="comma-separated saliency exponents (default 1,0.5,0.333...)")
    segmenter.add_argument("--connectivity", type=int, choices=(4, 8), default=8,
                           help="segment connectivity (default 8)")

    tis0 = sub.add_parser("tis0", parents=[segmenter, jobs],
                          help="segment a video from flow and saliency outliers")
    tis0.set_defaults(handler=_cmd_tis0)
    tis0.add_argument("--input", required=True, help="video directory (frames/flow/saliency layout)")
    tis0.add_argument("--output", required=True, help="directory for %%05d.pgm masks and diagnostics")

    refine = sub.add_parser("refine", parents=[segmenter, jobs],
                            help="segment, then refine boundaries with supervoxel consensus")
    refine.set_defaults(handler=_cmd_refine)
    refine.add_argument("--input", required=True,
                        help="video directory (frames/flow/saliency/svx layout)")
    refine.add_argument("--output", required=True, help="directory for refined %%05d.pgm masks")
    refine.add_argument("--mode", choices=("local", "nonlocal"), default="nonlocal",
                        help="consensus mode (default nonlocal)")
    refine.add_argument("--w0", type=_number(), default=None,
                        help="override the local-consensus weight (default 1 local, 1/3 nonlocal)")

    combine = sub.add_parser("combine", parents=[k_fences, jobs],
                             help="fuse the masks of several methods")
    combine.set_defaults(handler=_cmd_combine)
    combine.add_argument("--input", required=True,
                         help="directory whose subdirectories each hold one method's %%05d.pgm masks")
    combine.add_argument("--output", required=True, help="directory for fused masks and the weight report")
    combine.add_argument("--strategy", choices=_STRATEGIES, default="tism",
                         help="fusion rule (default tism)")

    evaluate = sub.add_parser("eval", parents=[jobs], help="score predicted masks against ground truth")
    evaluate.set_defaults(handler=_cmd_eval)
    evaluate.add_argument("--input", required=True, help="prediction root (one directory per sequence)")
    evaluate.add_argument("--ground-truth", required=True, help="ground-truth root")
    evaluate.add_argument("--output", default=None, help="also write the CSV table to this file")
    evaluate.add_argument("--tolerance", type=_NON_NEGATIVE, default=None,
                          help="contour tolerance in pixels (default: 0.0075 * image diagonal)")
    return parser


_REPORT_NAMES = ("flow_alphas.csv", "mask_alphas.csv")
_STAGING_PREFIX = ".tukeyseg-"
_STAGING_NAME = re.compile(re.escape(_STAGING_PREFIX) + "[a-z0-9_]+")


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
            is_output = entry.name in _REPORT_NAMES or _name_index(entry.name, "pgm") is not None
            if not (entry.is_file() and is_output
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


def _write_outputs(directory: Path, files, replaced=None) -> None:
    """Make ``directory`` hold ``files``, an iterable of (name, bytes), instead of ``replaced``.

    ``replaced`` defaults to :func:`_output_names`, so that ``directory`` ends
    up holding exactly ``files``. Each file is written to a hidden staging
    directory inside ``directory`` as it arrives, and all are renamed into
    place once the last one is written; the ``replaced`` entries are first
    moved into the staging directory, and every rename is undone if one
    fails. A failure changes nothing, also one raised while ``files`` is
    iterated, and every directory this call created is removed too.
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
        names = []
        for name, data in files:
            (staging / name).write_bytes(data)
            names.append(name)
        moves = [(directory / name, previous / name) for name in replaced]
        moves += [(staging / name, directory / name) for name in names]
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


def _mask_files(masks):
    """(name, PGM bytes) of each mask in turn, encoded as the writer asks for it."""
    return ((_indexed_name(i, "pgm"), write_mask_pgm(mask)) for i, mask in enumerate(masks))


def _csv(header: str, rows) -> bytes:
    """A CSV table: ``header``, then one line per row of values written with ``str``.

    Callers format their floats: the alphas to 12 significant digits, the
    evaluation scores to 6 decimals.
    """
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    return ("\n".join(lines) + "\n").encode()


def _config(cls, args):
    """A stage's config dataclass ``cls``, each field set from the flag of its name."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _cmd_tis0(args) -> int:
    from tukeyseg.segment import SegmenterConfig, segment_sequence

    _check_output(Path(args.output), [Path(args.input) / d for d in _VIDEO_RASTERS])
    seq = open_sequence(args.input)
    result = segment_sequence(seq, _config(SegmenterConfig, args), jobs=args.jobs)
    alphas = _csv("frame,component,alpha", (
        (i, name, f"{alpha:.12g}")
        for i, scales in enumerate(result.flow_scales) for name, alpha in scales.items()))
    _write_outputs(Path(args.output),
                   chain(_mask_files(result.masks), [("flow_alphas.csv", alphas)]))
    log.info("wrote %d masks to %s", len(result.masks), args.output)
    return 0


def _cmd_refine(args) -> int:
    from tukeyseg.refine import RefineConfig, refine_sequence
    from tukeyseg.segment import SegmenterConfig

    _check_output(Path(args.output), [Path(args.input) / d for d in _VIDEO_RASTERS])
    seq = open_sequence(args.input)
    result = refine_sequence(seq, _config(SegmenterConfig, args), _config(RefineConfig, args),
                             jobs=args.jobs)
    _write_outputs(Path(args.output), _mask_files(result.masks))
    log.info("wrote %d refined masks to %s", len(result.masks), args.output)
    return 0


def _cmd_combine(args) -> int:
    from tukeyseg.fusion import fuse_sequence

    method_dirs = _mask_dirs(args.input, "method directories")
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
    alphas = _csv("frame,method,count,alpha", (
        (r.frame, r.method, r.count, f"{r.alpha:.12g}") for r in records))
    _write_outputs(Path(args.output), chain(_mask_files(fused), [("mask_alphas.csv", alphas)]))
    log.info("fused %d methods over %d frames", len(method_dirs), len(per_method[0]))
    return 0


def _cmd_eval(args) -> int:
    from tukeyseg.metrics import _SEQUENCES, DatasetRow, evaluate_dataset

    if args.output:
        out = Path(args.output)
        if out.is_dir():
            raise ValueError(f"{out}: is a directory, so it is not written to")
        truth = _mask_dirs(args.ground_truth, _SEQUENCES)
        read = [*truth, *(Path(args.input) / d.name for d in truth)]
        _check_output(out.parent, read, replaced=())
    rows = evaluate_dataset(args.input, args.ground_truth, tolerance=args.tolerance, jobs=args.jobs)
    sequence, *summaries = (f.name for f in fields(DatasetRow))
    table = _csv(",".join([sequence, *(s.capitalize() for s in summaries)]), (
        (r.sequence, *(f"{v:.6f}" for v in astuple(r)[1:])) for r in rows))
    sys.stdout.write(table.decode())
    if args.output:
        _write_outputs(out.parent, [(out.name, table)], replaced=())
    return 0


def main(argv=None) -> int:
    name = os.environ.get("TIS_LOG") or "warning"
    level = _LOG_LEVELS.get(name.lower())
    if level is None:
        print(f"error: TIS_LOG must be one of {', '.join(_LOG_LEVELS)}, not {name!r}",
              file=sys.stderr)
        return 2
    # basicConfig adds the handler once per process; the level is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("tukeyseg").setLevel(level)
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
