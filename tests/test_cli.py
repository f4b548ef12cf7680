"""Tests for the command-line interface."""

import errno
import inspect
import json
import logging
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tukeyseg
from scenes import blank, encode, flat, labelled_block, moving_block, tiles, write, write_masks
from tukeyseg import cli, fusion
from tukeyseg.cli import _STRATEGIES, build_parser, main
from tukeyseg.io import read_mask_dir, write_mask_pgm


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def block_video(tmp_path):
    scene = labelled_block()
    return write(tmp_path / "video", scene), scene.truth[0]


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        assert "tukeyseg" in capsys.readouterr().out

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["tis0", "--input", "a", "--output", "b", "--bogus"])
        assert exc.value.code != 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["refine", "--input", "a", "--output", "b", "--mode", "psychic"]
            )
        assert exc.value.code != 0

    @pytest.mark.parametrize("command, flag", [
        *((command, "--jobs") for command in ("tis0", "refine", "combine", "eval")),
        *((command, "--k-fences") for command in ("tis0", "refine", "combine")),
    ])
    def test_help_documents_shared_flags(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        # the flag and its metavar, then its help text on the same or the next line
        assert re.search(rf"{flag} [A-Z_]+\s+[a-z]", capsys.readouterr().out)

    def test_strategy_choices_are_the_fusion_strategies(self):
        assert _STRATEGIES == fusion.STRATEGIES

    def test_defaults_are_the_library_defaults(self):
        from tukeyseg.metrics import evaluate_dataset
        from tukeyseg.refine import RefineConfig
        from tukeyseg.segment import SegmenterConfig

        def defaults(command):
            return build_parser().parse_args([command, *_REQUIRED[command]])

        def parameter_defaults(fn, *names):
            parameters = inspect.signature(fn).parameters
            return tuple(parameters[name].default for name in names)

        seg, ref = SegmenterConfig(), RefineConfig()
        for command in ("tis0", "refine"):
            args = defaults(command)
            assert (args.k_fences, args.min_flow_scale, args.vs_exponents, args.connectivity) == (
                seg.k_fences, seg.min_flow_scale, seg.vs_exponents, seg.connectivity)
        args = defaults("refine")
        assert (args.mode, args.w0) == (ref.mode, ref.w0)
        args = defaults("combine")
        assert (args.k_fences, args.strategy) == parameter_defaults(
            fusion.fuse_sequence, "k_fences", "strategy")
        assert (defaults("eval").tolerance,) == parameter_defaults(evaluate_dataset, "tolerance")

    def test_every_config_field_comes_from_its_flag(self, tmp_path, monkeypatch, capsys):
        from tukeyseg import refine
        from tukeyseg.refine import RefineConfig
        from tukeyseg.segment import SegmenterConfig

        configs = []

        def record(seq, seg_cfg, ref_cfg, jobs):
            configs.extend([seg_cfg, ref_cfg])
            raise ValueError("recorded")

        monkeypatch.setattr(refine, "refine_sequence", record)
        video = write(tmp_path / "video", blank(4, 4))
        assert main(["refine", "--input", str(video), "--output", str(tmp_path / "out"),
                     "--k-fences", "0.5", "--min-flow-scale", "0.8", "--vs-exponents", "2,0.25",
                     "--connectivity", "4", "--mode", "local", "--w0", "0.5"]) == 1
        assert configs == [SegmenterConfig(k_fences=0.5, vs_exponents=(2.0, 0.25),
                                           min_flow_scale=0.8, connectivity=4),
                           RefineConfig(mode="local", w0=0.5)]

    def test_exponent_list_parsing(self):
        args = build_parser().parse_args(
            ["tis0", "--input", "a", "--output", "b", "--vs-exponents", "1,0.5"]
        )
        assert args.vs_exponents == (1.0, 0.5)


_REQUIRED = {
    "tis0": ["--input", "a", "--output", "b"],
    "refine": ["--input", "a", "--output", "b"],
    "combine": ["--input", "a", "--output", "b"],
    "eval": ["--input", "a", "--ground-truth", "b"],
}


class TestNumericFlags:
    def _rejected(self, argv, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-3", "nan", "inf", "-inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, value, capsys):
        self._rejected(["eval", *_REQUIRED["eval"], "--tolerance", value], capsys, "--tolerance")

    @pytest.mark.parametrize("value", ["0", "2.5"])
    def test_tolerance_accepted(self, value):
        args = build_parser().parse_args(["eval", *_REQUIRED["eval"], "--tolerance", value])
        assert args.tolerance == float(value)

    @pytest.mark.parametrize("command", sorted(_REQUIRED))
    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_jobs_below_one_rejected(self, command, value, capsys):
        self._rejected([command, *_REQUIRED[command], "--jobs", value], capsys, "--jobs")

    @pytest.mark.parametrize("command", sorted(_REQUIRED))
    def test_jobs_accepted(self, command):
        args = build_parser().parse_args([command, *_REQUIRED[command], "--jobs", "3"])
        assert args.jobs == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_w0_must_be_finite(self, value, capsys):
        self._rejected(["refine", *_REQUIRED["refine"], "--w0", value], capsys, "--w0")

    def test_w0_accepted(self):
        args = build_parser().parse_args(["refine", *_REQUIRED["refine"], "--w0", "-0.5"])
        assert args.w0 == -0.5

    @pytest.mark.parametrize("command", ["tis0", "refine", "combine"])
    @pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf", "-inf"])
    def test_k_fences_must_be_finite_and_non_negative(self, command, value, capsys):
        self._rejected([command, *_REQUIRED[command], "--k-fences", value], capsys, "--k-fences")

    @pytest.mark.parametrize("command", ["tis0", "refine", "combine"])
    @pytest.mark.parametrize("value", ["0", "3"])
    def test_k_fences_accepted(self, command, value):
        args = build_parser().parse_args([command, *_REQUIRED[command], "--k-fences", value])
        assert args.k_fences == float(value)

    @pytest.mark.parametrize("command", ["tis0", "refine"])
    @pytest.mark.parametrize("value", ["-0.1", "1.5", "2", "nan", "inf"])
    def test_min_flow_scale_must_lie_in_unit_interval(self, command, value, capsys):
        self._rejected([command, *_REQUIRED[command], "--min-flow-scale", value], capsys,
                       "--min-flow-scale")

    @pytest.mark.parametrize("command", ["tis0", "refine"])
    @pytest.mark.parametrize("value", ["0", "0.25", "1"])
    def test_min_flow_scale_accepted(self, command, value):
        args = build_parser().parse_args(
            [command, *_REQUIRED[command], "--min-flow-scale", value])
        assert args.min_flow_scale == float(value)

    @pytest.mark.parametrize("command", ["tis0", "refine"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1,nan", "0", "-1", "1,-inf", "0.5,0"])
    def test_vs_exponents_must_be_finite_and_positive(self, command, value, capsys):
        self._rejected([command, *_REQUIRED[command], "--vs-exponents", value], capsys,
                       "--vs-exponents")

    @pytest.mark.parametrize("flag, value, message", [
        ("--jobs", "x", "not a valid int: 'x'"),
        ("--vs-exponents", "1,a", "bad exponent list '1,a'"),
    ])
    def test_unparsable_value_named(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["tis0", *_REQUIRED["tis0"], flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")

    @pytest.mark.parametrize("flag, value", [
        ("--k-fences", "-1"), ("--min-flow-scale", "2"), ("--vs-exponents", "nan"),
        ("--vs-exponents", "0"),
    ])
    def test_bad_segmenter_flag_rejected_before_input_is_read(self, flag, value, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["tis0", "--input", str(tmp_path / "missing"),
                  "--output", str(tmp_path / "out"), flag, value])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_negative_tolerance_never_scored(self, tmp_path, capsys):
        # identical masks would otherwise score F = 0 under a negative tolerance
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[1:4, 1:4] = 1
        for root in ("gt", "pred"):
            write_masks(tmp_path / root / "seq", [mask])
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--input", str(tmp_path / "pred"),
                  "--ground-truth", str(tmp_path / "gt"), "--tolerance", "-3"])
        assert exc.value.code == 2
        assert "seq," not in capsys.readouterr().out


class TestLogLevel:
    """``TIS_LOG`` takes debug, info or warning in any case; unset or empty is warning."""

    @pytest.mark.parametrize("value, level", [
        (None, logging.WARNING), ("", logging.WARNING), ("debug", logging.DEBUG),
        ("Info", logging.INFO), ("WARNING", logging.WARNING),
    ])
    def test_documented_values(self, tmp_path, monkeypatch, capsys, value, level):
        if value is None:
            monkeypatch.delenv("TIS_LOG", raising=False)
        else:
            monkeypatch.setenv("TIS_LOG", value)
        assert main(["tis0", "--input", str(tmp_path / "missing"),
                     "--output", str(tmp_path / "out")]) == 1
        assert logging.getLogger("tukeyseg.cli").getEffectiveLevel() == level
        assert capsys.readouterr().err.startswith("error: not a directory")

    def test_every_call_sets_the_level(self, tmp_path, monkeypatch, capsys):
        argv = ["tis0", "--input", str(tmp_path / "missing"), "--output", str(tmp_path / "out")]
        for value, level in (("warning", logging.WARNING), ("debug", logging.DEBUG),
                             ("info", logging.INFO)):
            monkeypatch.setenv("TIS_LOG", value)
            assert main(argv) == 1
            assert logging.getLogger("tukeyseg.cli").getEffectiveLevel() == level

    @pytest.mark.parametrize("value", ["loud", "basic_format", "BASIC_FORMAT", "critical",
                                       "error", "warn", " info", "10"])
    def test_other_values_refused_before_input_is_read(self, tmp_path, monkeypatch, capsys,
                                                       value):
        monkeypatch.setenv("TIS_LOG", value)
        assert main(["tis0", "--input", str(tmp_path / "missing"),
                     "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: TIS_LOG must be one of debug, info, warning, not {value!r}\n")
        assert not (tmp_path / "out").exists()


class TestSegmentCommand:
    def test_writes_masks_and_report(self, block_video, tmp_path):
        video, truth = block_video
        out = tmp_path / "out"
        assert main(["tis0", "--input", str(video), "--output", str(out)]) == 0
        masks = read_mask_dir(out)
        assert len(masks) == 3
        assert np.array_equal(masks[0], truth)
        report = (out / "flow_alphas.csv").read_text().splitlines()
        assert report[0] == "frame,component,alpha"
        assert len(report) == 1 + 3 * 4

    def test_missing_directory_fails(self, tmp_path, capsys):
        code = main(["tis0", "--input", str(tmp_path / "nope"), "--output", str(tmp_path / "o")])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_failure_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["tis0", "--input", str(tmp_path / "nope"), "--output", str(out)])
        assert code != 0
        assert not out.exists() or not any(out.iterdir())


class TestOutputDirectory:
    def test_stale_masks_removed(self, block_video, tmp_path):
        video, _ = block_video
        out = tmp_path / "out"
        out.mkdir()
        (out / "00099.pgm").write_bytes(write_mask_pgm(np.ones((30, 40), dtype=np.uint8)))
        (out / "mask_alphas.csv").write_text("frame,method,count,alpha\n")
        assert main(["tis0", "--input", str(video), "--output", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "00000.pgm", "00001.pgm", "00002.pgm", "flow_alphas.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "video"]

    @pytest.mark.parametrize("foreign", [
        "notes.txt", "00001.png", "sub/00000.pgm", "\u0660" * 5 + ".pgm", ".tukeyseg-notes",
        "012345.pgm",
    ])
    def test_foreign_content_is_never_replaced(self, block_video, tmp_path, capsys, foreign):
        video, _ = block_video
        out = tmp_path / "out"
        (out / foreign).parent.mkdir(parents=True, exist_ok=True)
        (out / foreign).write_text("keep me")
        (out / "00007.pgm").write_bytes(b"stale")
        code = main(["tis0", "--input", str(video), "--output", str(out)])
        assert code == 1
        assert foreign.split("/")[0] in capsys.readouterr().err
        assert (out / foreign).read_text() == "keep me"
        assert (out / "00007.pgm").read_bytes() == b"stale"
        assert not (out / "00000.pgm").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "video"]

    def test_current_directory_with_user_files_is_kept(self, block_video, tmp_path,
                                                       monkeypatch, capsys):
        video, _ = block_video
        work = tmp_path / "work"
        work.mkdir()
        (work / "thesis.tex").write_text("keep me")
        monkeypatch.chdir(work)
        assert main(["tis0", "--input", str(video), "--output", "."]) == 1
        assert "thesis.tex" in capsys.readouterr().err
        assert [p.name for p in work.iterdir()] == ["thesis.tex"]

    def test_output_that_is_a_file_fails(self, block_video, tmp_path, capsys):
        video, _ = block_video
        out = tmp_path / "out"
        out.write_text("keep me")
        assert main(["tis0", "--input", str(video), "--output", str(out)]) == 1
        assert "not a directory" in capsys.readouterr().err
        assert out.read_text() == "keep me"

    def test_failed_write_leaves_no_directory(self, block_video, tmp_path, monkeypatch, capsys):
        video, _ = block_video
        real_write = pathlib.Path.write_bytes
        calls = []

        def failing_write(path, data):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return real_write(path, data)

        monkeypatch.setattr(pathlib.Path, "write_bytes", failing_write)
        out = tmp_path / "new" / "deeper" / "out"
        assert main(["tis0", "--input", str(video), "--output", str(out)]) == 1
        assert "No space left" in capsys.readouterr().err
        assert len(calls) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["video"]

    def test_failed_write_keeps_previous_outputs(self, block_video, tmp_path, monkeypatch):
        video, _ = block_video
        out = tmp_path / "out"
        assert main(["combine", "--input", str(video / "masks"), "--output", str(out)]) == 0
        before = _tree_bytes(out)

        def failing_write(path, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_bytes", failing_write)
        assert main(["tis0", "--input", str(video), "--output", str(out)]) == 1
        assert _tree_bytes(out) == before
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "video"]

    # The previous run leaves 4 files and tis0 writes 4: renames 1-4 move the
    # old files aside, 5-8 move the new ones into place.
    @pytest.mark.parametrize("failing_call", [1, 3, 5, 8])
    def test_failed_rename_keeps_previous_outputs(self, block_video, tmp_path, monkeypatch,
                                                  capsys, failing_call):
        video, _ = block_video
        out = tmp_path / "out"
        assert main(["combine", "--input", str(video / "masks"), "--output", str(out)]) == 0
        before = _tree_bytes(out)
        real_replace = os.replace
        calls = []

        def failing_replace(source, target):
            calls.append(source)
            if len(calls) == failing_call:
                raise OSError(16, "Device or resource busy")
            return real_replace(source, target)

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main(["tis0", "--input", str(video), "--output", str(out)]) == 1
        assert "resource busy" in capsys.readouterr().err
        assert _tree_bytes(out) == before
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "video"]

    def test_directory_itself_is_kept(self, block_video, tmp_path):
        video, _ = block_video
        out = tmp_path / "out"
        out.mkdir()
        out.chmod(0o2751)
        (out / "00099.pgm").write_bytes(b"stale")
        before = out.stat()
        assert main(["tis0", "--input", str(video), "--output", str(out)]) == 0
        after = out.stat()
        assert (after.st_ino, after.st_mode, after.st_uid) == (
            before.st_ino, before.st_mode, before.st_uid)
        assert not (out / "00099.pgm").exists()

    def test_current_directory_as_output(self, block_video, tmp_path, monkeypatch):
        video, _ = block_video
        out = tmp_path / "out"
        out.mkdir()
        (out / "00099.pgm").write_bytes(b"stale")
        monkeypatch.chdir(out)
        assert main(["tis0", "--input", str(video), "--output", "."]) == 0
        assert pathlib.Path.cwd().samefile(out)
        assert sorted(os.listdir(".")) == [
            "00000.pgm", "00001.pgm", "00002.pgm", "flow_alphas.csv"]

    @pytest.mark.parametrize("command, computes", [
        ("tis0", ["tukeyseg.cli.open_sequence", "tukeyseg.segment.segment_sequence"]),
        ("refine", ["tukeyseg.cli.open_sequence", "tukeyseg.refine.refine_sequence"]),
        ("combine", ["tukeyseg.cli.read_mask_dir", "tukeyseg.fusion.fuse_sequence"]),
    ])
    def test_foreign_content_refused_before_computing(self, block_video, tmp_path, monkeypatch,
                                                      capsys, command, computes):
        video, _ = block_video
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")

        def never(*args, **kwargs):
            raise AssertionError("input read before the output directory was checked")

        for target in computes:
            monkeypatch.setattr(target, never)
        source = video / "masks" if command == "combine" else video
        assert main([command, "--input", str(source), "--output", str(out)]) == 1
        assert "notes.txt" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    @pytest.mark.parametrize("command, output", [
        ("tis0", "saliency"),
        ("refine", "saliency"),
        ("combine", "masks/gamma"),
        ("combine", "masks/../masks/gamma"),
    ])
    def test_input_directory_refused_as_output(self, block_video, monkeypatch, capsys,
                                               command, output):
        video, _ = block_video
        before = _tree_bytes(video)
        decoded = []
        for name in ("read_ppm", "read_flo", "read_saliency_pgm", "read_pgm16", "read_mask_pgm"):
            real = getattr(tukeyseg.io, name)
            monkeypatch.setattr(tukeyseg.io, name,
                                lambda data, real=real: decoded.append(len(data)) or real(data))
        source = video / "masks" if command == "combine" else video
        argv = [command, "--input", str(source), "--output", str(video / output)]
        assert main(argv) == 1
        assert _tree_bytes(video) == before
        assert capsys.readouterr().err == (
            f"error: {video / output}: the run reads input rasters from it, "
            "so it is not written to\n")
        assert decoded == []

    @pytest.mark.parametrize("command", ["tis0", "refine"])
    def test_method_masks_of_the_video_are_a_valid_output(self, block_video, command):
        video, _ = block_video
        out = video / "masks" / "gamma"
        assert main([command, "--input", str(video), "--output", str(out)]) == 0
        assert len(read_mask_dir(out)) == 3

    def test_staging_left_by_killed_run_is_removed(self, block_video, tmp_path):
        video, _ = block_video
        out = tmp_path / "out"
        leftover = out / ".tukeyseg-k1ll3d_x"
        (leftover / "previous").mkdir(parents=True)
        (leftover / "00000.pgm").write_bytes(b"new")
        (leftover / "previous" / "00001.pgm").write_bytes(b"old")
        assert main(["tis0", "--input", str(video), "--output", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "00000.pgm", "00001.pgm", "00002.pgm", "flow_alphas.csv"]


def _method_masks(root, num_frames, shape, seed=0):
    """Random masks of ``shape`` for three methods over ``num_frames`` frames, under ``root``."""
    rng = np.random.default_rng(seed)
    for name in ("a", "b", "c"):
        write_masks(root / name, [rng.random(shape) < 0.3 for _ in range(num_frames)])
    return root


class TestStreamedOutputs:
    """Each output file is staged as soon as it is encoded; a failure in the stream changes nothing."""

    FRAMES = 4

    def _previous(self, tmp_path):
        """Masks of FRAMES frames, and an output directory holding an earlier run's files."""
        methods = _method_masks(tmp_path / "methods", self.FRAMES, (6, 7))
        out = tmp_path / "out"
        assert main(["combine", "--input", str(methods), "--output", str(out),
                     "--strategy", "mean"]) == 0
        return ["combine", "--input", str(methods), "--output", str(out)], out, _tree_bytes(out)

    @staticmethod
    def _unchanged(tmp_path, out, before):
        assert _tree_bytes(out) == before
        assert sorted(p.name for p in out.iterdir()) == sorted(before)  # no .tukeyseg-* left
        assert sorted(p.name for p in tmp_path.iterdir()) == ["methods", "out"]

    @pytest.mark.parametrize("k", [1, 3, FRAMES])
    def test_encoder_failure_at_frame_k(self, tmp_path, monkeypatch, capsys, k):
        argv, out, before = self._previous(tmp_path)
        staged, real = [], cli.write_mask_pgm

        def failing(mask):
            staged.append(sorted(p.name for p in out.glob(".tukeyseg-*/0*.pgm")))
            if len(staged) == k:
                raise ValueError("encoder failed")
            return real(mask)

        monkeypatch.setattr(cli, "write_mask_pgm", failing)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: encoder failed\n"
        # mask j is encoded once masks 0..j-1 are staged
        assert staged == [[f"{i:05d}.pgm" for i in range(j)] for j in range(k)]
        self._unchanged(tmp_path, out, before)

    # files 1..FRAMES are the masks, file FRAMES + 1 the report
    @pytest.mark.parametrize("k", [1, 3, FRAMES + 1])
    def test_write_failure_at_file_k(self, tmp_path, monkeypatch, capsys, k):
        argv, out, before = self._previous(tmp_path)
        encoded, written = [], []
        real_encode, real_write = cli.write_mask_pgm, pathlib.Path.write_bytes
        monkeypatch.setattr(cli, "write_mask_pgm",
                            lambda mask: encoded.append(None) or real_encode(mask))

        def failing_write(path, data):
            written.append(len(encoded))
            if len(written) == k:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(path, data)

        monkeypatch.setattr(pathlib.Path, "write_bytes", failing_write)
        assert main(argv) == 1
        assert "No space left" in capsys.readouterr().err
        # each mask is written as soon as it is encoded
        assert written == [min(i, self.FRAMES) for i in range(1, k + 1)]
        self._unchanged(tmp_path, out, before)

    @pytest.mark.parametrize("k", [0, 2, FRAMES - 1])
    def test_undecodable_mask_at_frame_k(self, tmp_path, capsys, k):
        argv, out, before = self._previous(tmp_path)
        corrupt = tmp_path / "methods" / "b" / f"{k:05d}.pgm"
        corrupt.write_bytes(corrupt.read_bytes()[:-1])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {corrupt}: truncated PGM payload\n"
        self._unchanged(tmp_path, out, before)

    def test_combine_memory_per_frame(self, tmp_path):
        # The fused bool masks are 1 B per pixel per frame, held until written;
        # their encoded PGMs, if all were held too, would be one more. At these
        # lengths the peak is that held output, not one frame's fusion temporaries.
        shape = (96, 128)
        argvs = {}
        for frames in (32, 64):
            methods = _method_masks(tmp_path / f"methods{frames}", frames, shape)
            argvs[frames] = ["combine", "--input", str(methods), "--output", str(tmp_path / "out")]
        assert main(argvs[32]) == 0  # loads what a first run loads
        peaks = {}
        for frames, argv in argvs.items():
            shutil.rmtree(tmp_path / "out")
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[64] - peaks[32]) / 32 / math.prod(shape) < 1.5


class TestRefineCommand:
    def test_local_and_nonlocal(self, block_video, tmp_path):
        video, truth = block_video
        for mode in ("local", "nonlocal"):
            out = tmp_path / f"ref_{mode}"
            code = main(
                ["refine", "--input", str(video), "--output", str(out), "--mode", mode]
            )
            assert code == 0
            masks = read_mask_dir(out)
            assert np.array_equal(masks[0], truth)

    def test_missing_labels_fails(self, tmp_path, capsys):
        video = write(tmp_path / "nolabels", moving_block())
        code = main(["refine", "--input", str(video), "--output", str(tmp_path / "o")])
        assert code != 0
        assert "label" in capsys.readouterr().err


class TestRastersOfTheVideo:
    """Each raster's size is checked when a subcommand decodes it; ``masks/`` is not read."""

    FILES = {"frames": "00002.ppm", "flow": "00002.flo", "saliency": "00002.pgm",
             "svx": "00002.pgm16"}

    @pytest.fixture
    def scene(self):
        """A 3-frame 30x40 video with one flow file per frame, so that each kind has a 00002."""
        scene = moving_block(num_frames=3)
        return replace(scene, flows=scene.flows + scene.flows[-1:], label_maps=scene.truth)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command, kind", [
        ("tis0", "flow"), ("tis0", "saliency"),
        ("refine", "frames"), ("refine", "flow"), ("refine", "saliency"), ("refine", "svx"),
    ])
    @pytest.mark.parametrize("shape", [(29, 40), (30, 41)])
    def test_resized_file_named(self, tmp_path, capsys, no_thread_left, scene, command, kind, jobs,
                                shape):
        video = write(tmp_path / "video", scene)
        path = video / kind / self.FILES[kind]
        path.write_bytes(encode(blank(*shape), kind))
        out = tmp_path / "out"
        assert main([command, "--input", str(video), "--output", str(out), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["frames", "svx"])
    def test_tis0_does_not_read_frames_or_labels(self, tmp_path, scene, kind):
        video = write(tmp_path / "video", scene)
        (video / kind / self.FILES[kind]).write_bytes(encode(blank(29, 40), kind))
        assert main(["tis0", "--input", str(video), "--output", str(tmp_path / "out")]) == 0
        assert len(read_mask_dir(tmp_path / "out")) == 3

    @pytest.mark.parametrize("command", ["tis0", "refine"])
    @pytest.mark.parametrize("gt", [[np.ones((30, 40), np.uint8)] * 2,
                                    [np.ones((4, 4), np.uint8)] * 3], ids=["fewer", "resized"])
    def test_masks_of_the_video_are_not_checked(self, tmp_path, scene, command, gt):
        video = write(tmp_path / "video", replace(scene, masks={"gt": gt}))
        assert main([command, "--input", str(video), "--output", str(tmp_path / "out")]) == 0
        assert len(read_mask_dir(tmp_path / "out")) == 3


class TestCombineCommand:
    def test_three_methods(self, block_video, tmp_path):
        video, truth = block_video
        out = tmp_path / "fused"
        code = main(
            ["combine", "--input", str(video / "masks"), "--output", str(out)]
        )
        assert code == 0
        masks = read_mask_dir(out)
        assert len(masks) == 3
        assert np.array_equal(masks[0], truth)  # 2 of 3 methods agree everywhere
        report = (out / "mask_alphas.csv").read_text().splitlines()
        assert report[0] == "frame,method,count,alpha"
        assert len(report) == 1 + 3 * 3
        assert report[1].startswith("0,alpha,")

    def test_single_method_passthrough(self, tmp_path):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[1:3, 1:3] = 1
        write_masks(tmp_path / "methods" / "only", [mask] * 2)
        out = tmp_path / "fused"
        code = main(["combine", "--input", str(tmp_path / "methods"), "--output", str(out)])
        assert code == 0
        for m in read_mask_dir(out):
            assert np.array_equal(m, mask)

    def test_zero_weights_fall_back_to_lower_median(self, tmp_path):
        # counts 10 and 0 with --k-fences 0 both sit on a fence and weigh 0
        for name, value in (("a", 1), ("b", 0)):
            write_masks(tmp_path / "methods" / name, [np.full((2, 5), value)] * 2)
        out = tmp_path / "fused"
        code = main(["combine", "--input", str(tmp_path / "methods"), "--output", str(out),
                     "--k-fences", "0"])
        assert code == 0
        assert all(not m.any() for m in read_mask_dir(out))
        assert (out / "mask_alphas.csv").read_text().splitlines() == [
            "frame,method,count,alpha", "0,a,10,0", "0,b,0,0", "1,a,10,0", "1,b,0,0",
        ]

    def test_mismatched_frame_counts(self, tmp_path, capsys):
        mask = np.ones((2, 2), dtype=np.uint8)
        for name, count in (("a", 2), ("b", 3)):
            write_masks(tmp_path / "methods" / name, [mask] * count)
        code = main(
            ["combine", "--input", str(tmp_path / "methods"), "--output", str(tmp_path / "o")]
        )
        assert code != 0
        methods = tmp_path / "methods"
        assert capsys.readouterr().err == (
            f"error: {methods / 'b'}: 3 files of 2x2, but {methods / 'a'} holds 2 of 2x2\n")

    def test_strategies(self, block_video, tmp_path):
        video, _ = block_video
        for strategy in ("tism", "mean", "median"):
            out = tmp_path / f"fused_{strategy}"
            code = main(
                [
                    "combine",
                    "--input", str(video / "masks"),
                    "--output", str(out),
                    "--strategy", strategy,
                ]
            )
            assert code == 0


class TestMaskTreeRoots:
    """``combine`` and ``eval`` refuse a root that is no directory or holds none."""

    @staticmethod
    def _argv(command, root, tmp_path):
        if command == "combine":
            return ["combine", "--input", str(root), "--output", str(tmp_path / "out")]
        argv = ["eval", "--input", str(tmp_path / "pred"), "--ground-truth", str(root)]
        return argv + ["--output", str(tmp_path / "out.csv")] if command == "eval-output" else argv

    @pytest.mark.parametrize("command", ["combine", "eval", "eval-output"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_root_that_is_no_directory(self, tmp_path, capsys, command, kind):
        root = tmp_path / "root"
        if kind == "file":
            root.write_bytes(b"")
        assert main(self._argv(command, root, tmp_path)) == 1
        assert capsys.readouterr() == ("", f"error: not a directory: {root}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == (["root"] if kind == "file" else [])

    @pytest.mark.parametrize("command, what", [
        ("combine", "method directories"), ("eval", "ground-truth sequences"),
        ("eval-output", "ground-truth sequences"),
    ])
    def test_root_without_subdirectories(self, tmp_path, capsys, command, what):
        root = tmp_path / "root"
        write_masks(root, [np.ones((2, 2), np.uint8)])  # files only, no directory
        (tmp_path / "pred").mkdir()
        assert main(self._argv(command, root, tmp_path)) == 1
        assert capsys.readouterr() == ("", f"error: {root}: no {what}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pred", "root"]


@pytest.mark.parametrize("command", ["combine", "eval"])
def test_undecodable_mask_named(tmp_path, capsys, command):
    mask = np.zeros((4, 5), dtype=np.uint8)
    mask[1:3, 1:4] = 1
    for root in ("methods/a", "methods/b", "gt/seq", "pred/seq"):
        write_masks(tmp_path / root, [mask] * 3)
    if command == "combine":
        corrupt = tmp_path / "methods" / "b" / "00001.pgm"
        argv = ["combine", "--input", str(tmp_path / "methods"), "--output", str(tmp_path / "o")]
    else:
        corrupt = tmp_path / "pred" / "seq" / "00001.pgm"
        argv = ["eval", "--input", str(tmp_path / "pred"), "--ground-truth", str(tmp_path / "gt")]
    corrupt.write_bytes(corrupt.read_bytes()[:-3])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {corrupt}: truncated PGM payload\n"


@pytest.fixture
def counted_mask_decodes(monkeypatch):
    """The byte length of each mask decoded through ``tukeyseg.io.read_mask_pgm``, in order."""
    decoded, real = [], tukeyseg.io.read_mask_pgm

    def counting(data):
        decoded.append(len(data))
        return real(data)

    monkeypatch.setattr(tukeyseg.io, "read_mask_pgm", counting)
    return decoded


def _write_mask_tree(root, shapes):
    """Two masks of the given (height, width) in each named directory under ``root``."""
    for name, shape in shapes.items():
        write_masks(root / name, [np.ones(shape, dtype=np.uint8)] * 2)


def test_combine_names_the_directory_of_another_size(tmp_path, capsys, counted_mask_decodes):
    _write_mask_tree(tmp_path / "methods", {"a": (4, 4), "b": (4, 5)})
    argv = ["combine", "--input", str(tmp_path / "methods"), "--output", str(tmp_path / "o")]
    assert main(argv) == 1
    methods = tmp_path / "methods"
    assert capsys.readouterr().err == (
        f"error: {methods / 'b'}: 2 files of 5x4, but {methods / 'a'} holds 2 of 4x4\n")
    assert counted_mask_decodes == []
    assert not (tmp_path / "o").exists()


def test_eval_names_the_sequence_and_frame_of_another_size(tmp_path, capsys,
                                                           counted_mask_decodes):
    _write_mask_tree(tmp_path / "gt", {"seq": (4, 4)})
    _write_mask_tree(tmp_path / "pred", {"seq": (4, 5)})
    argv = ["eval", "--input", str(tmp_path / "pred"), "--ground-truth", str(tmp_path / "gt")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'pred' / 'seq'}: 2 files of 5x4, "
        f"but {tmp_path / 'gt' / 'seq'} holds 2 of 4x4\n")
    assert counted_mask_decodes == []


class TestEvalCommand:
    def test_identical_predictions_score_one(self, tmp_path, capsys):
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[1:4, 1:4] = 1
        write_masks(tmp_path / "gt" / "seq", [mask, mask])
        write_masks(tmp_path / "pred" / "seq", [mask, mask])
        csv_path = tmp_path / "scores.csv"
        code = main(
            [
                "eval",
                "--input", str(tmp_path / "pred"),
                "--ground-truth", str(tmp_path / "gt"),
                "--output", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "sequence,J_mean,J_recall,J_decay,F_mean,F_recall,F_decay"
        assert "seq,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000" in out
        assert csv_path.read_text() == out

    def _scored(self, tmp_path):
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[1:4, 1:4] = 1
        write_masks(tmp_path / "gt" / "seq", [mask])
        write_masks(tmp_path / "pred" / "seq", [mask])
        return ["eval", "--input", str(tmp_path / "pred"), "--ground-truth", str(tmp_path / "gt")]

    @staticmethod
    def _fill_disk(monkeypatch):
        """Make every file opened for writing fail with ENOSPC once it exists."""
        real_open = pathlib.Path.open

        def full_disk_open(path, mode="r", *args, **kwargs):
            if "w" in mode:
                real_open(path, mode, *args, **kwargs).close()
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", full_disk_open)

    def test_output_creates_missing_directories(self, tmp_path, capsys):
        table = tmp_path / "a" / "b" / "t.csv"
        assert main([*self._scored(tmp_path), "--output", str(table)]) == 0
        assert table.read_text() == capsys.readouterr().out
        assert [p.name for p in table.parent.iterdir()] == ["t.csv"]

    def test_failed_write_leaves_no_directory(self, tmp_path, monkeypatch, capsys):
        argv = self._scored(tmp_path)
        self._fill_disk(monkeypatch)
        assert main([*argv, "--output", str(tmp_path / "a" / "b" / "t.csv")]) == 1
        assert "No space left" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt", "pred"]

    def test_failed_write_keeps_previous_table(self, tmp_path, monkeypatch, capsys):
        argv = self._scored(tmp_path)
        table = tmp_path / "tables" / "t.csv"
        table.parent.mkdir()
        table.write_text("previous table")
        self._fill_disk(monkeypatch)
        assert main([*argv, "--output", str(table)]) == 1
        assert "No space left" in capsys.readouterr().err
        assert [p.name for p in table.parent.iterdir()] == ["t.csv"]
        assert table.read_text() == "previous table"

    @pytest.mark.parametrize("root", ["gt", "pred"])
    @pytest.mark.parametrize("name", ["00002.pgm", "t.csv"])
    def test_output_in_a_sequence_it_reads_refused(self, tmp_path, capsys, counted_mask_decodes,
                                                   root, name):
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[1:4, 1:4] = 1
        write_masks(tmp_path / "gt" / "seq", [mask] * 3)
        write_masks(tmp_path / "pred" / "seq", [mask] * 3)
        before = _tree_bytes(tmp_path)
        argv = ["eval", "--input", str(tmp_path / "pred"), "--ground-truth", str(tmp_path / "gt"),
                "--output", str(tmp_path / root / "seq" / name)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {tmp_path / root / 'seq'}: the run reads "
                                           "input rasters from it, so it is not written to\n")
        assert counted_mask_decodes == []
        assert _tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("output", ["gt/seq", "gt"])
    def test_output_naming_a_directory_refused(self, tmp_path, capsys, counted_mask_decodes,
                                               output):
        # refused before any mask is decoded, not after the table is printed
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[1:4, 1:4] = 1
        write_masks(tmp_path / "gt" / "seq", [mask] * 3)
        write_masks(tmp_path / "pred" / "seq", [mask] * 3)
        before = _tree_bytes(tmp_path)
        argv = ["eval", "--input", str(tmp_path / "pred"), "--ground-truth", str(tmp_path / "gt"),
                "--output", str(tmp_path / output)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {tmp_path / output}: is a directory, "
                                           "so it is not written to\n")
        assert counted_mask_decodes == []
        assert not list(tmp_path.rglob(".tukeyseg-*"))
        assert _tree_bytes(tmp_path) == before

    def test_empty_ground_truth_fails(self, tmp_path, capsys):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        code = main(
            ["eval", "--input", str(tmp_path / "pred"), "--ground-truth", str(tmp_path / "gt")]
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err


class TestDegenerateInputs:
    """Degenerate videos; any warning fails these, as everywhere in tier-1."""

    @settings(max_examples=25, deadline=None)
    @given(u=st.floats(-1e4, 1e4), v=st.floats(-1e4, 1e4), num_frames=st.integers(1, 3))
    @example(u=0.0, v=0.0, num_frames=2)
    def test_constant_flow_gives_empty_masks(self, u, v, num_frames):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            video = write(tmp / "video", flat(6, 8, num_frames, u, v))
            assert main(["tis0", "--input", str(video), "--output", str(tmp / "out")]) == 0
            masks = read_mask_dir(tmp / "out")
            assert len(masks) == num_frames
            assert all(m.shape == (6, 8) and not m.any() for m in masks)

    @pytest.mark.parametrize("command, height, width", [
        (["tis0"], 1, 1), (["tis0"], 5, 7), (["refine", "--mode", "local"], 1, 1),
        (["refine", "--mode", "local"], 5, 7), (["refine", "--mode", "nonlocal"], 5, 7),
    ])
    def test_one_frame_video(self, tmp_path, command, height, width):
        labels = [np.arange(height * width).reshape(height, width)]
        video = write(tmp_path / "video", replace(flat(height, width, 1), label_maps=labels))
        out = tmp_path / "out"
        assert main([*command, "--input", str(video), "--output", str(out)]) == 0
        masks = read_mask_dir(out)
        assert len(masks) == 1 and masks[0].shape == (height, width)

    @pytest.mark.parametrize("command", [["tis0"], ["refine", "--mode", "local"]])
    def test_one_by_one_frames(self, tmp_path, command):
        video = write(tmp_path / "video", replace(flat(1, 1, 3), label_maps=[np.zeros((1, 1))] * 3))
        out = tmp_path / "out"
        assert main([*command, "--input", str(video), "--output", str(out)]) == 0
        assert [m.shape for m in read_mask_dir(out)] == [(1, 1)] * 3

    @pytest.mark.parametrize("height, width", [(1, 1), (4, 6)])
    def test_one_supervoxel_nonlocal(self, tmp_path, capsys, height, width):
        video = write(tmp_path / "video",
                      replace(flat(height, width, 2), label_maps=[np.full((height, width), 3)] * 2))
        out = tmp_path / "out"
        code = main(["refine", "--mode", "nonlocal", "--input", str(video), "--output", str(out)])
        assert code == 1
        assert "at least 2 supervoxels" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["video"]


def _all_commands(video, truth, tmp_path, base, jobs):
    """argv lists of the four subcommands on ``video``, writing under ``base``."""
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    if not pred.exists():
        write_masks(pred / "seq", [np.roll(truth, i, axis=0) for i in range(3)])
        write_masks(gt / "seq", [truth] * 3)
    return {
        "tis0": ["tis0", "--input", str(video), "--output", str(base / "tis0"), "--jobs", jobs],
        "refine": ["refine", "--input", str(video), "--output", str(base / "refine"),
                   "--jobs", jobs],
        "combine": ["combine", "--input", str(video / "masks"),
                    "--output", str(base / "combine"), "--jobs", jobs],
        "eval": ["eval", "--input", str(pred), "--ground-truth", str(gt),
                 "--output", str(base / "eval.csv"), "--jobs", jobs],
    }


class TestDeterminismAcrossJobs:
    def test_tis0_and_refine_byte_identical_over_partial_bands(self, tmp_path, capsys):
        # 2048 columns give foregroundness bands of 32 rows and LAB bands of
        # 10; 45 rows end both in a partial band
        scene = moving_block(height=45, width=2048, block=(slice(5, 30), slice(700, 1100)),
                             num_frames=3)
        video = write(tmp_path / "video", replace(scene, label_maps=[tiles(45, 2048, (9, 16))] * 3))
        outputs = {}
        for jobs in ("1", "2", "3"):
            base = tmp_path / f"jobs{jobs}"
            for command in ("tis0", "refine"):
                argv = [command, "--input", str(video), "--output", str(base / command)]
                assert main([*argv, "--jobs", jobs]) == 0
            outputs[jobs] = _tree_bytes(base)
        assert outputs["1"] == outputs["2"] == outputs["3"]


# Runs subcommands in a fresh interpreter and fails if the package import or
# any subcommand loads scipy, which only the tests use, as a reference; if
# importing the CLI loads a stage module, or a subcommand loads more than its
# own stage imports; or if a run at one job loads concurrent.futures.
_FRESH_RUN = """
import json, sys
import tukeyseg, tukeyseg.cli
STAGES = {"tis0": {"segment", "stats", "parallel"},
          "refine": {"refine", "segment", "stats", "parallel"},
          "combine": {"fusion", "stats", "parallel"},
          "eval": {"metrics", "parallel"}}
def loaded():
    return {name[len("tukeyseg."):] for name in sys.modules if name.startswith("tukeyseg.")}
assert "scipy" not in sys.modules, "importing tukeyseg loaded scipy"
assert loaded() == {"cli", "io"}, f"importing tukeyseg.cli loaded {sorted(loaded())}"
expected, pooled = loaded(), False
for argv in json.loads(sys.argv[1]):
    assert tukeyseg.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, f"{argv[0]} loaded scipy"
    expected |= STAGES[argv[0]]
    assert loaded() == expected, f"{argv[0]}: loaded {sorted(loaded())}, not {sorted(expected)}"
    pooled = pooled or "--jobs" in argv and argv[argv.index("--jobs") + 1] != "1"
    assert pooled or "concurrent.futures" not in sys.modules, (
        f"{argv[0]} at one job loaded concurrent.futures")
"""


def _run_fresh(*argvs):
    src = pathlib.Path(tukeyseg.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


class TestScipyLoadedOnDemand:
    """What the package import and each subcommand load, at one job or two; fresh runs
    write what in-process ones do."""

    def test_package_names_resolve_to_their_modules(self):
        listed = dir(tukeyseg)
        for name in tukeyseg.__all__:
            value = getattr(tukeyseg, name)
            assert value.__module__.startswith("tukeyseg.")
            assert getattr(sys.modules[value.__module__], name) is value
            assert name in listed
        namespace = {}
        exec("from tukeyseg import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(tukeyseg.__all__)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(tukeyseg, "no_such_name")
        with pytest.raises(ImportError):
            exec("from tukeyseg import no_such_name", {})

    def test_import_and_combine_load_no_scipy(self, block_video, tmp_path):
        video, truth = block_video
        fresh = _all_commands(video, truth, tmp_path, tmp_path / "fresh", "2")["combine"]
        _run_fresh(fresh)
        here = _all_commands(video, truth, tmp_path, tmp_path / "here", "2")["combine"]
        assert main(here) == 0
        assert _tree_bytes(tmp_path / "fresh") == _tree_bytes(tmp_path / "here")

    @pytest.mark.parametrize("command", ["tis0", "refine", "eval"])
    def test_first_import_in_worker_threads(self, block_video, tmp_path, capsys, command):
        video, truth = block_video
        _run_fresh(_all_commands(video, truth, tmp_path, tmp_path / "fresh", "2")[command])
        assert main(_all_commands(video, truth, tmp_path, tmp_path / "here", "1")[command]) == 0
        assert _tree_bytes(tmp_path / "fresh") == _tree_bytes(tmp_path / "here")

    def test_one_job_loads_no_scipy(self, block_video, tmp_path, capsys):
        video, truth = block_video
        _run_fresh(*_all_commands(video, truth, tmp_path, tmp_path / "fresh", "1").values())
        for argv in _all_commands(video, truth, tmp_path, tmp_path / "here", "1").values():
            assert main(argv) == 0
        assert _tree_bytes(tmp_path / "fresh") == _tree_bytes(tmp_path / "here")
