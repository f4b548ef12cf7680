"""The scene module: its builders are seeded, and a written scene reads back as it was."""

import numpy as np
import pytest

import scenes
from tukeyseg.io import open_sequence, read_mask_dir

BUILDERS = {
    "moving_block": scenes.moving_block,
    "moving_block 20x24": lambda: scenes.moving_block(
        height=20, width=24, block=(slice(5, 15), slice(7, 17)), block_flow=(30.0, 0.0),
        num_frames=3),
    "labelled_block": scenes.labelled_block,
    "tiles": lambda: scenes.Scene(label_maps=[scenes.tiles(45, 2048, (9, 16))]),
    "tile_video": lambda: scenes.tile_video(60, 120, 3),
    "flat": lambda: scenes.flat(6, 8, 3, 2.5, -1.0),
    "blank": lambda: scenes.blank(4, 5),
    "fusion": lambda: scenes.fusion(3),
}


def _arrays(scene):
    """Every array ``scene`` holds, by field and frame; each flow as its two components."""
    arrays = {f"{name}[{i}]": a for name in ("frames", "saliencies", "label_maps", "truth")
              for i, a in enumerate(getattr(scene, name))}
    for i, flow in enumerate(scene.flows):
        arrays[f"flows[{i}].u"], arrays[f"flows[{i}].v"] = flow.u, flow.v
    for method, masks in scene.masks.items():
        arrays.update({f"masks[{method}][{i}]": m for i, m in enumerate(masks)})
    return arrays


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_same_arguments_give_the_same_arrays(builder):
    first, second = (_arrays(BUILDERS[builder]()) for _ in range(2))
    assert first and first.keys() == second.keys()
    for name, a in first.items():
        b = second[name]
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_written_scene_reads_back(tmp_path):
    rng = np.random.default_rng(26)
    shape = (7, 9)
    scene = scenes.Scene(
        frames=[rng.integers(0, 256, (*shape, 3), dtype=np.uint8) for _ in range(3)],
        flows=[rng.normal(size=(2, *shape)) for _ in range(2)],
        saliencies=[rng.random(shape) for _ in range(3)],
        label_maps=[rng.integers(0, 65536, shape) for _ in range(3)],
        masks={name: [rng.random(shape) < 0.5 for _ in range(3)] for name in ("b", "a")},
        truth=[np.ones(shape, bool)] * 3,
    )
    root = scenes.write(tmp_path / "vid", scene)
    assert sorted(p.name for p in root.iterdir()) == ["flow", "frames", "masks", "saliency", "svx"]
    seq = open_sequence(root)
    assert (seq.num_frames, seq.flow_count, seq.mask_methods) == (3, 2, ("a", "b"))
    for i in range(3):  # frame 2 reuses the final flow, in both
        assert np.array_equal(seq.frame(i), scene.frame(i))
        assert seq.flow(i).u.tobytes() == scene.flow(i).u.tobytes()
        assert seq.flow(i).v.tobytes() == scene.flow(i).v.tobytes()
        # saliency comes back at its 1/255 quantisation
        assert not np.array_equal(seq.saliency(i), scene.saliency(i))
        assert np.array_equal(seq.saliency(i), np.rint(scene.saliency(i) * 255) / 255)
        assert np.array_equal(seq.labels(i), scene.labels(i))
    for method, masks in scene.masks.items():
        assert [m.tolist() for m in read_mask_dir(root / "masks" / method)] == [
            m.tolist() for m in masks]

