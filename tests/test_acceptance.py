"""Acceptance gate: one test per release criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion. Tolerances are fixed here and nowhere else.
"""

import functools
import itertools
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from scenes import Scene, labelled_block, moving_block, tiles, write, write_masks
from test_fusion import nine_mask_fixture
from tukeyseg.cli import main
from tukeyseg.fusion import fuse_frame, fuse_sequence
from tukeyseg.io import (
    FlowField,
    open_sequence,
    read_flo,
    read_mask_dir,
    read_mask_pgm,
    read_pgm16,
    read_ppm,
    read_saliency_pgm,
    write_flo,
    write_mask_pgm,
    write_pgm,
    write_pgm16,
    write_ppm,
    write_saliency_pgm,
)
from tukeyseg.metrics import contour_f, evaluate_dataset, jaccard
from tukeyseg.refine import (
    ConsensusTable,
    RefineConfig,
    adjusted_foregroundness,
    build_consensus,
    refine_mask,
    refine_sequence,
    supervoxel_stats,
)
from tukeyseg.segment import segment_sequence, select_top_segments, threshold_mask
from tukeyseg.stats import (
    fences,
    mask_outlier_scales,
    outlier_scale,
    outlier_set,
    quartiles,
)


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] {name}: FAIL")
                raise
            print(f"[ACCEPTANCE] {name}: PASS")

        return wrapper

    return decorate


@criterion("quartile/fence/outlier-set oracle equivalence (multisets 1..12 over 0..9)")
def test_oracle_equivalence_exhaustive():
    started = time.perf_counter()
    for n in range(1, 13):
        rows = np.array(
            list(itertools.combinations_with_replacement(range(10), n)), dtype=np.float64
        )
        # rows are already sorted; definitional interpolation at (n-1)*q
        def oracle_quantile(p):
            pos = (n - 1) * p
            lo = math.floor(pos)
            hi = math.ceil(pos)
            frac = pos - lo
            return rows[:, lo] + (rows[:, hi] - rows[:, lo]) * frac

        expected_q1 = oracle_quantile(0.25)
        expected_q2 = oracle_quantile(0.5)
        expected_q3 = oracle_quantile(0.75)
        got = np.quantile(rows, (0.25, 0.5, 0.75), axis=1, method="linear")
        assert np.array_equal(got[0], expected_q1)
        assert np.array_equal(got[1], expected_q2)
        assert np.array_equal(got[2], expected_q3)
        iqr = expected_q3 - expected_q1
        expected_o1 = expected_q1 - 1.5 * iqr
        expected_o3 = expected_q3 + 1.5 * iqr
        expected_flags = (rows < expected_o1[:, None]) | (rows > expected_o3[:, None])
        # exercise the package functions row by row on the shorter lengths,
        # where exhaustive per-row calls stay fast
        if n <= 8:
            for row, q1, q2, q3, o1, o3, flags in zip(
                rows, expected_q1, expected_q2, expected_q3,
                expected_o1, expected_o3, expected_flags,
            ):
                q = quartiles(row)
                assert (q.q1, q.q2, q.q3) == (q1, q2, q3)
                f = fences(q, 1.5)
                assert (f.o1, f.o3) == (o1, o3)
                assert np.array_equal(outlier_set(row, f) != 0, flags)
        else:
            sample = np.random.default_rng(n).choice(len(rows), size=2000, replace=False)
            for i in sample:
                q = quartiles(rows[i])
                assert (q.q1, q.q2, q.q3) == (expected_q1[i], expected_q2[i], expected_q3[i])
                f = fences(q, 1.5)
                assert (f.o1, f.o3) == (expected_o1[i], expected_o3[i])
                assert np.array_equal(outlier_set(rows[i], f) != 0, expected_flags[i])
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


@criterion("outlier scales bounded in [0, 1] on 10,000 random inputs each")
def test_scale_bounds():
    rng = np.random.default_rng(31337)
    for _ in range(10_000):
        shape = tuple(rng.integers(1, 9, size=2))
        style = rng.integers(0, 3)
        if style == 0:
            field = rng.normal(scale=rng.uniform(0.01, 1000), size=shape)
        elif style == 1:
            field = rng.standard_cauchy(size=shape)
        else:
            field = np.zeros(shape)
        q = quartiles(field)
        alpha = outlier_scale(field, outlier_set(field, fences(q)))
        assert 0.0 <= alpha <= 1.0
    for _ in range(10_000):
        counts = rng.integers(0, 100_000, size=rng.integers(1, 20))
        alphas = mask_outlier_scales(counts)
        assert np.all(alphas >= 0.0) and np.all(alphas <= 1.0)


@criterion("piecewise mask weights: reference counts exact, all-equal counts all 1")
def test_mask_weight_piecewise():
    assert mask_outlier_scales([10, 100, 110, 120, 500]).tolist() == [0.0, 0.75, 1.0, 0.75, 0.0]
    for k in (0, 1, 17, 123456):
        assert mask_outlier_scales([k] * 5).tolist() == [1.0] * 5


@criterion("weighted fusion equals mean fusion whenever every weight is 1")
def test_fusion_reduces_to_mean():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        h, w = rng.integers(2, 8, size=2)
        count = int(rng.integers(1, h * w))
        masks = []
        for _ in range(int(rng.integers(1, 9))):
            flat = np.zeros(h * w, dtype=np.uint8)
            flat[rng.choice(h * w, size=count, replace=False)] = 1
            masks.append(flat.reshape(h, w))
        fused, alphas, _ = fuse_frame(masks)
        assert np.all(alphas == 1.0)
        assert fused.tolist() == oracles.mean_vote([m.tolist() for m in masks])


@criterion("fusion rejects the all-foreground outlier method byte-identically")
def test_fusion_outlier_rejection():
    sane, outlier, truth = nine_mask_fixture()
    fused_with, alphas, _ = fuse_frame(sane + [outlier])
    fused_without, _, _ = fuse_frame(sane)
    assert alphas[-1] == 0.0
    assert fused_with.tobytes() == fused_without.tobytes()
    assert np.array_equal(fused_with, truth)
    seq_with, _ = fuse_sequence([sane + [outlier]] * 2)
    seq_without, _ = fuse_sequence([list(sane)] * 2)
    for a, b in zip(seq_with, seq_without):
        assert a.tobytes() == b.tobytes()


@criterion("moving-block segmentation: J >= 0.95, equals the step-by-step script")
def test_block_segmentation_end_to_end(tmp_path):
    started = time.perf_counter()
    scene = moving_block()
    result = segment_sequence(open_sequence(write(tmp_path / "block", scene)))
    mask = result.masks[0]
    assert jaccard(mask, scene.truth[0]) >= 0.95
    flow = scene.flows[0]
    script = oracles.pipeline_masks(
        [(flow.u.tolist(), flow.v.tolist())], [scene.saliencies[0].tolist()]
    )
    assert mask.tolist() == script[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"block fixture took {elapsed:.1f}s"


# Every public function that returns a mask: (video, uint8 truth) -> list of masks.
_MASK_MAKERS = {
    "read_mask_pgm": lambda seq, truth: [read_mask_pgm(write_mask_pgm(truth))],
    "MaskSequence[i]": lambda seq, truth: list(read_mask_dir(seq.root / "masks" / "truth")),
    "outlier_set": lambda seq, truth: [
        outlier_set(truth * 9.0, fences(quartiles(truth * 9.0), 0.0))],
    "threshold_mask": lambda seq, truth: [threshold_mask(truth * 2.0),
                                          threshold_mask(truth * 2.0, truth)],
    "select_top_segments": lambda seq, truth: [
        select_top_segments(truth, truth * 1.0),
        select_top_segments(np.vstack([truth[:15]] * 2), truth * 1.0)],  # two blocks, one kept
    "refine_mask": lambda seq, truth: [refine_mask(
        truth * 1.0, np.zeros_like(truth), ConsensusTable(np.array([0]), np.array([-0.5]),
                                                         np.array([0.0])), 1.0)],
    "segment_sequence": lambda seq, truth: segment_sequence(seq).masks,
    "refine_sequence": lambda seq, truth: refine_sequence(seq).masks,
    **{f"fuse_frame {strategy}": functools.partial(
        lambda strategy, seq, truth: [fuse_frame([truth, truth, 1 - truth], 1.5, strategy)[0]],
        strategy) for strategy in ("tism", "mean", "median")},
    # counts [0, n] with no fence spread weigh zero: tism falls back to the median mask
    "fuse_frame tism, zero weights": lambda seq, truth: [
        fuse_frame([np.zeros_like(truth), truth], 0.0)[0]],
    "fuse_sequence": lambda seq, truth: fuse_sequence([[truth, truth, 1 - truth]] * 2)[0],
}


@criterion("every public function that returns a mask returns a 2-D bool array")
@pytest.mark.parametrize("maker", sorted(_MASK_MAKERS))
def test_masks_are_bool(tmp_path, maker):
    # the 3-frame 30 x 40 moving block, the block at rows 10..19, with 5 x 5 supervoxels
    scene = moving_block(num_frames=3)
    scene = replace(scene, label_maps=[tiles(30, 40, (5, 5))] * 3, masks={"truth": scene.truth})
    seq, truth = open_sequence(write(tmp_path / "vid", scene)), scene.truth[0]
    masks = _MASK_MAKERS[maker](seq, truth)
    assert masks and all(m.dtype == bool and m.shape == truth.shape for m in masks)


@criterion("3x3 refinement fixtures reproduce hand-computed values to 1e-9")
def test_refinement_fixtures():
    # local-only: consensus alone decides the sign
    from tukeyseg.refine import ConsensusTable

    fore = np.zeros((3, 3))
    labels = np.zeros((3, 3), int)
    full = ConsensusTable(np.array([0]), np.array([1.0]), np.array([0.0]))
    empty = ConsensusTable(np.array([0]), np.array([-1.0]), np.array([0.0]))
    local = RefineConfig(mode="local")
    assert adjusted_foregroundness(fore, labels, full, 0.0, local) == pytest.approx(1.0, abs=1e-9)
    assert adjusted_foregroundness(fore, labels, empty, 0.0, local) == pytest.approx(-1.0, abs=1e-9)

    # local+nonlocal: two supervoxels on a 3x3 frame; hand values are
    # f_local (0, -1), f_nonlocal (-2/3, 0), adjusted (1/3, -2/3, 1/6)
    labels3 = np.full((3, 3), 1, dtype=int)
    labels3[0, 0] = labels3[0, 1] = 0
    mask3 = np.zeros((3, 3), dtype=np.uint8)
    mask3[0, 0] = 1
    fore3 = np.full((3, 3), 0.5)
    fore3[0, 0] = 1.0
    fore3[0, 1] = 0.0
    rgb3 = np.zeros((3, 3, 3), np.uint8)
    rgb3[0, 0] = (255, 0, 0)
    nonlocal_cfg = RefineConfig(mode="nonlocal")
    stats = supervoxel_stats(Scene(frames=[rgb3], label_maps=[labels3]), [mask3])
    table = build_consensus(stats, nonlocal_cfg)
    assert table.f_local == pytest.approx([0.0, -1.0], abs=1e-9)
    assert table.f_nonlocal == pytest.approx([-2.0 / 3.0, 0.0], abs=1e-9)
    adjusted = adjusted_foregroundness(fore3, labels3, table, fore3.max(), nonlocal_cfg)
    assert adjusted[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert adjusted[0, 1] == pytest.approx(-2.0 / 3.0, abs=1e-9)
    assert np.allclose(adjusted[labels3 == 1], 1.0 / 6.0, atol=1e-9)
    script = oracles.refine_fields(
        [fore3.tolist()],
        [labels3.tolist()],
        [mask3.tolist()],
        {i: stats.mean_lab[list(stats.ids).index(i)].tolist() for i in stats.ids},
        mode="nonlocal",
    )
    assert np.allclose(adjusted, script[0], atol=1e-9)

    # neighbor vote with weights (100, 25) rescaled to 2/3 lands on 0.4
    n = 102
    fg = [0] * n
    fg[1] = 1
    mean_lab = [[0.9 + 0.0005 * i, 0.9, 0.9] for i in range(n)]
    mean_lab[0] = [0.0, 0.0, 0.0]
    mean_lab[1] = [0.1, 0.0, 0.0]
    mean_lab[2] = [0.0, 0.2, 0.0]
    from tukeyseg.refine import SupervoxelStats

    wide = SupervoxelStats(
        ids=np.arange(n),
        pixel_counts=np.ones(n, np.int64),
        label_sums=np.array(fg, np.int64),
        mean_lab=np.array(mean_lab),
        lab_min=np.zeros(3),
        lab_max=np.ones(3),
    )
    assert build_consensus(wide).f_nonlocal[0] == pytest.approx(0.4, abs=1e-9)


@criterion("metric examples exact; boundary F monotone in tolerance")
def test_metric_examples_and_monotonicity():
    square = np.zeros((10, 10), dtype=np.uint8)
    square[2:6, 2:6] = 1
    shifted = np.zeros((10, 10), dtype=np.uint8)
    shifted[3:7, 2:6] = 1
    other = np.zeros((10, 10), dtype=np.uint8)
    other[7:9, 7:9] = 1
    overlap_a = np.array([[1, 1, 0]])
    overlap_b = np.array([[0, 1, 1]])
    assert jaccard(square, square) == 1.0
    assert jaccard(square, other) == 0.0
    assert jaccard(overlap_a, overlap_b) == 1 / 3
    assert jaccard(np.zeros((4, 4)), np.zeros((4, 4))) == 1.0
    assert contour_f(square, square, 1) == 1.0
    assert contour_f(np.zeros((10, 10)), square, 1) == 0.0
    assert contour_f(np.zeros((4, 4)), np.zeros((4, 4)), 1) == 1.0
    assert contour_f(shifted, square, 1) == 1.0
    rng = np.random.default_rng(99)
    for _ in range(100):
        m = (rng.random((10, 10)) > 0.6).astype(np.uint8)
        g = (rng.random((10, 10)) > 0.6).astype(np.uint8)
        scores = [contour_f(m, g, t) for t in (0, 0.5, 1, 2, 4, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


@criterion("codec round trips bit-exact on 1,000 random files")
def test_codec_round_trips():
    rng = np.random.default_rng(0xF10)
    for _ in range(250):
        h, w = rng.integers(1, 16, size=2)
        flow = FlowField(
            rng.normal(scale=20, size=(h, w)).astype(np.float32),
            rng.normal(scale=20, size=(h, w)).astype(np.float32),
        )
        encoded = write_flo(flow)
        decoded = read_flo(encoded)
        assert write_flo(decoded) == encoded
        assert decoded.u.tobytes() == flow.u.tobytes()
        assert decoded.v.tobytes() == flow.v.tobytes()
    for _ in range(250):
        h, w = rng.integers(1, 16, size=2)
        gray = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        encoded = write_pgm(gray)
        assert np.array_equal(read_saliency_pgm(encoded), gray / 255.0)
        assert write_saliency_pgm(read_saliency_pgm(encoded)) == encoded
    for _ in range(250):
        h, w = rng.integers(1, 16, size=2)
        ids = rng.integers(0, 65536, size=(h, w))
        encoded = write_pgm16(ids)
        assert np.array_equal(read_pgm16(encoded), ids)
        assert write_pgm16(read_pgm16(encoded)) == encoded
    for _ in range(250):
        h, w = rng.integers(1, 16, size=2)
        rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        encoded = write_ppm(rgb)
        assert np.array_equal(read_ppm(encoded), rgb)
        assert write_ppm(read_ppm(encoded)) == encoded


@criterion("every CLI subcommand byte-identical across --jobs 1 and --jobs 8")
def test_cli_determinism(tmp_path):
    scene = labelled_block()
    truth = scene.truth[0]
    video = write(tmp_path / "video", scene)
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    write_masks(pred / "seq", [np.roll(truth, i, axis=0) for i in range(3)])
    write_masks(gt / "seq", scene.truth)

    def tree(root: Path):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

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
        outputs[jobs] = tree(base)
    assert outputs["1"] == outputs["8"]


@pytest.mark.skipif(
    "TIS_DAVIS_ROOT" not in os.environ,
    reason="optional integration: set TIS_DAVIS_ROOT to a directory holding "
    "gt/<sequence>/%05d.pgm and methods/<method>/<sequence>/%05d.pgm",
)
@criterion("optional: fused public masks land within 2.0 J of 74.9 on DAVIS 2016")
def test_davis_integration(tmp_path):
    root = Path(os.environ["TIS_DAVIS_ROOT"])
    gt_root = root / "gt"
    methods_root = root / "methods"
    method_dirs = sorted(d for d in methods_root.iterdir() if d.is_dir())
    assert method_dirs, f"no method directories under {methods_root}"
    pred_root = tmp_path / "fused"
    for seq_dir in sorted(d for d in gt_root.iterdir() if d.is_dir()):
        per_method = [read_mask_dir(m / seq_dir.name) for m in method_dirs]
        frames = [[masks[i] for masks in per_method] for i in range(len(per_method[0]))]
        write_masks(pred_root / seq_dir.name, fuse_sequence(frames)[0])
    rows = evaluate_dataset(pred_root, gt_root)
    overall = rows[-1]
    assert abs(overall.j_mean * 100.0 - 74.9) <= 2.0
