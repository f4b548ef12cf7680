"""Tests for the command-line interface."""

import numpy as np
import pytest

from conftest import moving_block_arrays, write_video_dir
from tukeyseg.cli import build_parser, main
from tukeyseg.io import read_mask_dir, write_mask_pgm


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def block_video(tmp_path):
    scene = moving_block_arrays(num_frames=3)
    height, width = scene["truth"].shape
    labels = np.zeros((height, width), dtype=np.int64)
    labels[scene["truth"] != 0] = 1
    labels[:, :5] = 2
    masks = {
        "alpha": [scene["truth"]] * 3,
        "beta": [scene["truth"]] * 3,
        "gamma": [np.roll(scene["truth"], 1, axis=1)] * 3,
    }
    root = write_video_dir(
        tmp_path / "video",
        frames=scene["frames"],
        flows=scene["flows"],
        saliencies=scene["saliencies"],
        labels=[labels] * 3,
        masks=masks,
    )
    return root, scene["truth"]


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

    def test_negative_tolerance_never_scored(self, tmp_path, capsys):
        # identical masks would otherwise score F = 0 under a negative tolerance
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[1:4, 1:4] = 1
        for root in ("gt", "pred"):
            d = tmp_path / root / "seq"
            d.mkdir(parents=True)
            (d / "00000.pgm").write_bytes(write_mask_pgm(mask))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--input", str(tmp_path / "pred"),
                  "--ground-truth", str(tmp_path / "gt"), "--tolerance", "-3"])
        assert exc.value.code == 2
        assert "seq," not in capsys.readouterr().out


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
        scene = moving_block_arrays()
        video = write_video_dir(
            tmp_path / "nolabels",
            frames=scene["frames"],
            flows=scene["flows"],
            saliencies=scene["saliencies"],
        )
        code = main(["refine", "--input", str(video), "--output", str(tmp_path / "o")])
        assert code != 0
        assert "label" in capsys.readouterr().err


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
        d = tmp_path / "methods" / "only"
        d.mkdir(parents=True)
        for i in range(2):
            (d / f"{i:05d}.pgm").write_bytes(write_mask_pgm(mask))
        out = tmp_path / "fused"
        code = main(["combine", "--input", str(tmp_path / "methods"), "--output", str(out)])
        assert code == 0
        for m in read_mask_dir(out):
            assert np.array_equal(m, mask)

    def test_zero_weights_fall_back_to_lower_median(self, tmp_path):
        # counts 10 and 0 with --k-fences 0 both sit on a fence and weigh 0
        for name, value in (("a", 1), ("b", 0)):
            d = tmp_path / "methods" / name
            d.mkdir(parents=True)
            for i in range(2):
                (d / f"{i:05d}.pgm").write_bytes(write_mask_pgm(np.full((2, 5), value)))
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
            d = tmp_path / "methods" / name
            d.mkdir(parents=True)
            for i in range(count):
                (d / f"{i:05d}.pgm").write_bytes(write_mask_pgm(mask))
        code = main(
            ["combine", "--input", str(tmp_path / "methods"), "--output", str(tmp_path / "o")]
        )
        assert code != 0
        assert "frame count" in capsys.readouterr().err

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


class TestEvalCommand:
    def _write_masks(self, root, name, masks):
        d = root / name
        d.mkdir(parents=True)
        for i, m in enumerate(masks):
            (d / f"{i:05d}.pgm").write_bytes(write_mask_pgm(m))

    def test_identical_predictions_score_one(self, tmp_path, capsys):
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[1:4, 1:4] = 1
        self._write_masks(tmp_path / "gt", "seq", [mask, mask])
        self._write_masks(tmp_path / "pred", "seq", [mask, mask])
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

    def test_empty_ground_truth_fails(self, tmp_path, capsys):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        code = main(
            ["eval", "--input", str(tmp_path / "pred"), "--ground-truth", str(tmp_path / "gt")]
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err


class TestDeterminismAcrossJobs:
    def test_all_commands_byte_identical(self, block_video, tmp_path, capsys):
        video, truth = block_video
        pred = tmp_path / "pred"
        gt = tmp_path / "gt"
        for root in (pred, gt):
            d = root / "seq"
            d.mkdir(parents=True)
            for i in range(3):
                shifted = np.roll(truth, i, axis=0) if root is pred else truth
                (d / f"{i:05d}.pgm").write_bytes(write_mask_pgm(shifted))
        outputs = {}
        for jobs in ("1", "8"):
            base = tmp_path / f"jobs{jobs}"
            assert main(["tis0", "--input", str(video), "--output", str(base / "tis0"),
                         "--jobs", jobs]) == 0
            assert main(["refine", "--input", str(video), "--output", str(base / "refine"),
                         "--jobs", jobs]) == 0
            assert main(["combine", "--input", str(video / "masks"),
                         "--output", str(base / "combine"), "--jobs", jobs]) == 0
            assert main(["eval", "--input", str(pred), "--ground-truth", str(gt),
                         "--output", str(base / "eval.csv"), "--jobs", jobs]) == 0
            outputs[jobs] = _tree_bytes(base)
        assert outputs["1"] == outputs["8"]
