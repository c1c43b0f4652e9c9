"""Synthetic sequences and the projection loop."""

import numpy as np
import pytest

from htp.core import RngStream
from htp.diffusion import CameraModel, jpma_aggregate
from htp.synthetic import MOTION_KINDS, generate_pose_sequence, generate_synthetic, project_to_2d

CAM = CameraModel(fx=1145.0, fy=1145.0, cx=512.0, cy=512.0)


class TestGeneration:
    @pytest.mark.parametrize("kind", MOTION_KINDS)
    def test_deterministic_per_seed(self, kind):
        a = generate_pose_sequence(6, 30, 11, kind)
        b = generate_pose_sequence(6, 30, 11, kind)
        assert np.array_equal(a, b)
        c = generate_pose_sequence(6, 30, 12, kind)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("kind", MOTION_KINDS)
    def test_shapes_and_depth(self, kind):
        pose = generate_pose_sequence(5, 40, 3, kind)
        assert pose.shape == (5, 40, 3)
        assert np.all(pose[..., 2] > 0)

    def test_static_repeats_one_pose(self):
        pose = generate_pose_sequence(4, 12, 9, "static")
        assert np.array_equal(pose, np.repeat(pose[:, :1], 12, axis=1))

    def test_moving_kinds_move(self):
        for kind in ("walk_cycle", "random_smooth"):
            pose = generate_pose_sequence(4, 12, 9, kind)
            assert not np.array_equal(pose[:, 0], pose[:, 5])

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            generate_pose_sequence(4, 12, 9, "teleport")


class TestProjection:
    def test_pinhole_formula(self):
        point = np.array([[[100.0, -50.0, 2000.0]]])
        uv = project_to_2d(point, CAM)
        assert uv[0, 0, 0] == pytest.approx(1145.0 * 100 / 2000 + 512.0, abs=0)
        assert uv[0, 0, 1] == pytest.approx(1145.0 * -50 / 2000 + 512.0, abs=0)

    def test_noise_is_seeded(self):
        pose = generate_pose_sequence(4, 10, 5, "walk_cycle")
        a = project_to_2d(pose, CAM, 2.0, RngStream(1))
        b = project_to_2d(pose, CAM, 2.0, RngStream(1))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, project_to_2d(pose, CAM))

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            project_to_2d(np.array([[[0.0, 0.0, -1.0]]]), CAM)

    def test_camera_loop_closes_exactly(self):
        # noise-free projection, then aggregation over copies of the truth
        pose, keypoints = generate_synthetic(5, 8, 21, "random_smooth", CAM)
        aggregated = jpma_aggregate(np.repeat(pose[None], 4, axis=0), keypoints, CAM)
        assert np.array_equal(aggregated, pose)
        assert np.max(np.linalg.norm(CAM.project(aggregated) - keypoints, axis=-1)) == 0.0

    def test_generate_synthetic_pair(self):
        pose, keypoints = generate_synthetic(3, 6, 8, "walk_cycle", CAM, noise_2d=1.5)
        assert pose.shape == (3, 6, 3) and keypoints.shape == (3, 6, 2)
        again = generate_synthetic(3, 6, 8, "walk_cycle", CAM, noise_2d=1.5)
        assert np.array_equal(keypoints, again[1])
