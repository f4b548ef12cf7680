"""Mutation check: does each listed source edit make the tests that guard it fail?

Run by hand from anywhere; it is not collected as a test module:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [NAME]  # only the named ones

Each mutant is one exact text edit of a file under ``src/``, paired with the
test modules that should kill it. For each one the repository's ``src/``,
``tests/`` and ``pyproject.toml`` are copied to a temporary directory, the
edit is applied to the copy, and the paired modules run there with
``pytest -x``. Before any mutant, those modules run once on an unedited copy,
which must pass. A mutant is killed when its tests fail and survives when
they pass; an edit whose text is not found exactly once is stale, which
``tests/test_mutants.py`` checks with the tier-1 tests. The exit status is 0
only if every mutant run was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str    # relative to the repository root
    old: str     # text that occurs exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("outlier-set-le", "src/tukeyseg/stats.py",
           "(d < np.float64(f.o1))", "(d <= np.float64(f.o1))", ("tests/test_stats.py",)),
    Mutant("threshold-no-half-discount", "src/tukeyseg/segment.py",
           "np.where(prev, f > 0.5 * beta, f > beta)", "np.where(prev, f > beta, f > beta)",
           ("tests/test_segment.py",)),
    Mutant("tally-bincount", "src/tukeyseg/refine.py",
           "np.add.at(lab_sums[channel], ids, values)",
           "lab_sums[channel] += np.bincount(ids, values, minlength=size)",
           ("tests/test_refine.py",)),
    Mutant("tally-band-edge", "src/tukeyseg/refine.py",
           "rows = slice(start, start + band)\n        ids",
           "rows = slice(start, start + band + 1)\n        ids", ("tests/test_refine.py",)),
    Mutant("consensus-tie-flipped", "src/tukeyseg/refine.py",
           "np.lexsort((ids[cols], dist[row]))", "np.lexsort((-ids[cols], dist[row]))",
           ("tests/test_refine.py",)),
    Mutant("same-extent-skipped", "src/tukeyseg/io.py",
           "    first = sequences[0]\n", "    return\n", ("tests/test_io.py",)),
    Mutant("pnm-maxval-unchecked", "src/tukeyseg/io.py",
           "if not (maxval == 255 if", "if False and not (maxval == 255 if",
           ("tests/test_io.py",)),
    Mutant("pnm-magic-unchecked", "src/tukeyseg/io.py",
           "if data[:2] != magic:", "if False:", ("tests/test_io.py",)),
    Mutant("pnm-comment-refused", "src/tukeyseg/io.py",
           r"|#[^\r\n]*[\r\n])+(", ")+(", ("tests/test_io.py",)),
    Mutant("pnm-separator-optional", "src/tukeyseg/io.py",
           r"[\r\n])+([0-9]+)", r"[\r\n])*([0-9]+)", ("tests/test_io.py",)),
    Mutant("flowfield-shape-transposed", "src/tukeyseg/io.py",
           "        return self.u.shape\n", "        return self.u.shape[::-1]\n",
           ("tests/test_io.py",)),
    Mutant("pnm-truncation-admitted", "src/tukeyseg/io.py",
           "if len(data) - offset < expected:", "if False:", ("tests/test_io.py",)),
    Mutant("pnm-excess-payload-admitted", "src/tukeyseg/io.py",
           "if len(data) - offset > expected:", "if False:", ("tests/test_io.py",)),
    Mutant("saliency-scale", "src/tukeyseg/io.py",
           'return _pnm_payload(data, b"P5") / 255.0', 'return _pnm_payload(data, b"P5") / 256.0',
           ("tests/test_io.py",)),
    Mutant("staging-skipped", "src/tukeyseg/cli.py",
           "            (staging / name).write_bytes(data)\n"
           "            names.append(name)\n"
           "        moves = [(directory / name, previous / name) for name in replaced]\n"
           "        moves += [(staging / name, directory / name) for name in names]\n",
           "            (directory / name).write_bytes(data)\n"
           "            names.append(name)\n"
           "        moves = [(directory / name, previous / name) for name in replaced\n"
           "                 if name not in names]\n",
           ("tests/test_cli.py",)),
    Mutant("staged-name-not-renamed", "src/tukeyseg/cli.py",
           "directory / name) for name in names]", "directory / name) for name in names[1:]]",
           ("tests/test_cli.py",)),
    Mutant("sample-check-skipped", "src/tukeyseg/stats.py",
           '    if not np.all(np.isfinite(d)):\n        raise ValueError("non-finite input")\n',
           "", ("tests/test_stats.py",)),
    Mutant("iqr-sign", "src/tukeyseg/stats.py",
           "return self.q3 - self.q1", "return self.q1 - self.q3", ("tests/test_stats.py",)),
    Mutant("flag-bound-inverted", "src/tukeyseg/cli.py",
           "_NON_NEGATIVE = _number(low=0.0)", "_NON_NEGATIVE = _number(high=0.0)",
           ("tests/test_cli.py",)),
    Mutant("id-check-admits-bool", "src/tukeyseg/refine.py",
           'labels.dtype.kind not in "ui"', 'labels.dtype.kind not in "uib"',
           ("tests/test_refine.py",)),
    Mutant("index-name-width", "src/tukeyseg/io.py",
           "([0-9]{5}|[1-9][0-9]{5,})", "([0-9]{5})", ("tests/test_io.py",)),
    Mutant("magnitude-libm-hypot", "src/tukeyseg/segment.py",
           "np.sqrt(np.add(magnitude, angle, out=magnitude), out=magnitude)",
           "np.hypot(u, v, out=magnitude, dtype=np.float64)", ("tests/test_segment.py",)),
    Mutant("magnitude-float32-squares", "src/tukeyseg/segment.py",
           "magnitude = np.multiply(u, u, dtype=np.float64)\n"
           "    angle = np.multiply(v, v, dtype=np.float64)\n",
           "magnitude = np.multiply(u, u)\n    angle = np.multiply(v, v)\n",
           ("tests/test_segment.py",)),
    Mutant("flowfield-dtype-unchecked", "src/tukeyseg/io.py",
           "if self.u.dtype != np.float32 or self.v.dtype != np.float32:", "if False:",
           ("tests/test_io.py",)),
    Mutant("mask-rule-truthy", "src/tukeyseg/io.py",
           '    check_levels(a, 1, "mask values must be 0 or 1")\n', "", ("tests/test_io.py",)),
    Mutant("fuse-ragged-admitted", "src/tukeyseg/fusion.py",
           "if len(masks) != len(names):", "if False:", ("tests/test_fusion.py",)),
    Mutant("csv-alpha-precision", "src/tukeyseg/cli.py",
           'f"{r.alpha:.12g}"', 'f"{r.alpha:.6g}"', ("tests/test_fusion.py",)),
    Mutant("consensus-raw-means", "src/tukeyseg/refine.py",
           "points = normalize_lab(stats.mean_lab, stats.lab_min, stats.lab_max)",
           "points = np.asarray(stats.mean_lab, dtype=np.float64)", ("tests/test_refine.py",)),
    Mutant("video-rasters-without-svx", "src/tukeyseg/io.py",
           '_VIDEO_RASTERS = ("frames", "flow", "saliency", "svx")',
           '_VIDEO_RASTERS = ("frames", "flow", "saliency")', ("tests/test_io.py",)),
    Mutant("handler-swapped", "src/tukeyseg/cli.py",
           "combine.set_defaults(handler=_cmd_combine)", "combine.set_defaults(handler=_cmd_eval)",
           ("tests/test_cli.py",)),
    Mutant("log-level-unchecked", "src/tukeyseg/cli.py",
           "level = _LOG_LEVELS.get(name.lower())",
           "level = getattr(logging, name.upper(), logging.WARNING)", ("tests/test_cli.py",)),
    Mutant("log-level-first-call-only", "src/tukeyseg/cli.py",
           'logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")\n'
           '    logging.getLogger("tukeyseg").setLevel(level)\n',
           'logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")\n',
           ("tests/test_cli.py",)),
    Mutant("mask-dirs-unsorted", "src/tukeyseg/io.py",
           "dirs = sorted(d for d in root.iterdir() if d.is_dir())",
           "dirs = [d for d in root.iterdir() if d.is_dir()]", ("tests/test_io.py",)),
    Mutant("mask-root-unchecked", "src/tukeyseg/io.py",
           '        raise ValueError(f"not a directory: {root}")\n    dirs = ', "    dirs = ",
           ("tests/test_cli.py",)),
    Mutant("mask-dirs-empty-admitted", "src/tukeyseg/io.py",
           "    if not dirs:\n", "    if False:\n", ("tests/test_cli.py",)),
    Mutant("eval-column-dropped", "src/tukeyseg/cli.py",
           "for v in astuple(r)[1:])", "for v in astuple(r)[1:-1])", ("tests/test_metrics.py",)),
    Mutant("eval-columns-reordered", "src/tukeyseg/metrics.py",
           "*(float(getattr(score, s)) for s in _SUMMARIES)",
           "*(float(getattr(score, s)) for s in reversed(_SUMMARIES))", ("tests/test_metrics.py",)),
    Mutant("tolerance-from-crop", "src/tukeyseg/metrics.py",
           "frame_tolerance = default_tolerance(width, height) if tolerance is None else tolerance",
           "frame_tolerance = tolerance", ("tests/test_metrics.py",)),
    Mutant("config-field-dropped", "src/tukeyseg/cli.py",
           "for f in fields(cls)}", "for f in fields(cls)[:-1]}", ("tests/test_cli.py",)),
    Mutant("flow-finiteness-unchecked", "src/tukeyseg/io.py",
           "if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):", "if False:",
           ("tests/test_io.py",)),
    Mutant("flo-short-header-admitted", "src/tukeyseg/io.py",
           "if len(data) < 12:", "if False:", ("tests/test_io.py",)),
    Mutant("flowfield-shape-unchecked", "src/tukeyseg/io.py",
           "if self.u.ndim != 2 or self.u.shape != self.v.shape:", "if False:",
           ("tests/test_io.py",)),
    Mutant("saliency-range-unchecked", "src/tukeyseg/io.py",
           "if np.any((f < 0) | (f > 1)) or not np.all(np.isfinite(f)):",
           "if not np.all(np.isfinite(f)):", ("tests/test_io.py",)),
    Mutant("levels-elementwise-admitted", "src/tukeyseg/io.py",
           "ok = np.isin(values, np.arange(top + 1)).all()", "ok = True", ("tests/test_io.py",)),
    Mutant("fuse-no-mask-admitted", "src/tukeyseg/fusion.py",
           "    if not arrays:\n", "    if False:\n", ("tests/test_fusion.py",)),
    Mutant("empty-sequence-admitted", "src/tukeyseg/metrics.py",
           "    if not j:\n", "    if False:\n", ("tests/test_metrics.py",)),
    Mutant("empty-series-admitted", "src/tukeyseg/metrics.py",
           "    if not values:\n", "    if False:\n", ("tests/test_metrics.py",)),
    Mutant("top-segments-weight-shape-unchecked", "src/tukeyseg/segment.py",
           "if fg.shape != w.shape:", "if False:", ("tests/test_segment.py",)),
    Mutant("top-segments-connectivity-unchecked", "src/tukeyseg/segment.py",
           "    if connectivity not in (4, 8):\n", "    if False:\n", ("tests/test_segment.py",)),
    Mutant("jobs-parse-error-unnamed", "src/tukeyseg/cli.py",
           """raise argparse.ArgumentTypeError(f"not a valid {kind.__name__}: '{text}'") from exc""",
           "raise", ("tests/test_cli.py",)),
    Mutant("exponent-parse-error-unnamed", "src/tukeyseg/cli.py",
           """raise argparse.ArgumentTypeError(f"bad exponent list '{text}'") from exc""", "raise",
           ("tests/test_cli.py",)),
    Mutant("scores-crop-row-dropped", "src/tukeyseg/metrics.py",
           "crop_m, crop_g = _mask_pair(m, g)",
           "crop_m, crop_g = (a[1:] for a in _mask_pair(m, g))", ("tests/test_metrics.py",)),
    # each memory mutant keeps the outputs and holds more per frame
    Mutant("tis0-fields-copied", "src/tukeyseg/segment.py",
           "foregroundness=[fore for fore, _ in per_frame]",
           "foregroundness=[fore.copy() for fore, _ in per_frame]", ("tests/test_memory.py",)),
    Mutant("combine-files-listed", "src/tukeyseg/cli.py",
           "for name, data in files:", "for name, data in list(files):",
           ("tests/test_memory.py",)),
    Mutant("eval-masks-listed", "src/tukeyseg/metrics.py",
           "itertools.zip_longest(masks, references, fillvalue=_END)",
           "itertools.zip_longest(list(masks), references, fillvalue=_END)",
           ("tests/test_memory.py",)),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _tests_pass(tree: Path, tests) -> bool:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def _outcome(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="tukeyseg-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new))
        return "survived" if _tests_pass(tree, mutant.tests) else "killed"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    modules = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="tukeyseg-mutant-") as tmp:
        _copy(Path(tmp))
        if not _tests_pass(Path(tmp), modules):
            print(f"the unedited tree fails {' '.join(modules)}", file=sys.stderr)
            return 2
    outcomes = {}
    for mutant in chosen:
        outcomes[mutant.name] = _outcome(mutant)
        print(f"{outcomes[mutant.name]:8}  {mutant.name}  ({', '.join(mutant.tests)})",
              flush=True)
    return 0 if all(o == "killed" for o in outcomes.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
