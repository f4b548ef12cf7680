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
they pass; an edit whose text is not found exactly once is stale. The exit
status is 0 only if every mutant run was killed.
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
    Mutant("pnm-truncation-admitted", "src/tukeyseg/io.py",
           "if len(data) - offset < expected:", "if False:", ("tests/test_io.py",)),
    Mutant("pnm-excess-payload-admitted", "src/tukeyseg/io.py",
           "if len(data) - offset > expected:", "if False:", ("tests/test_io.py",)),
    Mutant("saliency-scale", "src/tukeyseg/io.py",
           'return _pnm_payload(data, b"P5") / 255.0', 'return _pnm_payload(data, b"P5") / 256.0',
           ("tests/test_io.py",)),
    Mutant("staging-skipped", "src/tukeyseg/cli.py",
           "            (staging / name).write_bytes(data)\n"
           "        moves = [(directory / name, previous / name) for name in replaced]\n"
           "        moves += [(staging / name, directory / name) for name in files]\n",
           "            (directory / name).write_bytes(data)\n"
           "        moves = [(directory / name, previous / name) for name in replaced\n"
           "                 if name not in files]\n",
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
