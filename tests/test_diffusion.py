"""Schedules, forward perturbation, DDIM stepping, aggregation, MPJPE."""

import math
import tracemalloc

import numpy as np
import pytest

from htp.core import RngStream, ShapeError
from htp.diffusion import (
    CameraModel,
    build_schedule,
    ddim_sigma,
    ddim_step,
    forward_diffuse,
    jpma_aggregate,
    mpjpe,
    predict_eps,
    timestep_for_iteration,
)
from htp.verify import naive_jpma


class TestSchedule:
    def test_strictly_decreasing(self):
        for kind in ("linear", "cosine"):
            sched = build_schedule(500, kind)
            assert np.all(np.diff(sched.alpha_bars) < 0)

    def test_terminal_fraction_via_log_sum(self):
        sched = build_schedule(1000, "linear")
        log_sum = sum(math.log(1 - b) for b in sched.betas)
        assert math.exp(log_sum) == pytest.approx(sched.alpha_bar(1000), rel=1e-12)
        assert sched.alpha_bar(1000) < 5e-5

    def test_last_linear_schedule_before_underflow(self):
        assert build_schedule(73_252).alpha_bar(73_252) > 0.0
        with pytest.raises(ValueError, match="strictly decreasing"):
            build_schedule(73_253)

    @pytest.mark.parametrize("steps", [10**7, 10**12])
    def test_underflowing_linear_schedule_refused_before_allocating(self, steps):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"underflow to 0 within {steps} linear steps"):
                build_schedule(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            build_schedule(10, "geometric")

    def test_t_zero_convention(self):
        assert build_schedule(10).alpha_bar(0) == 1.0


class TestForwardProcess:
    def test_zero_noise_scales_exactly(self):
        sched = build_schedule(10)
        y0 = RngStream(1).normal((2, 3, 3))
        out = forward_diffuse(y0, 4, np.zeros_like(y0), sched)
        assert np.array_equal(out, math.sqrt(sched.alpha_bar(4)) * y0)

    def test_t_zero_identity(self):
        sched = build_schedule(10)
        y0 = RngStream(2).normal((2, 2, 3))
        assert np.array_equal(forward_diffuse(y0, 0, np.ones_like(y0), sched), y0)

    def test_out_of_range_t(self):
        sched = build_schedule(10)
        with pytest.raises(ValueError):
            forward_diffuse(np.zeros((1, 1, 1)), 11, np.zeros((1, 1, 1)), sched)

    def test_eps_roundtrip(self):
        sched = build_schedule(50)
        rng = RngStream(3)
        y0, eps = rng.normal((3, 4, 3)), rng.normal((3, 4, 3))
        y_t = forward_diffuse(y0, 30, eps, sched)
        assert np.max(np.abs(predict_eps(y_t, y0, 30, sched) - eps)) < 1e-12

    def test_eps_guard_at_clean(self):
        sched = build_schedule(10)
        with pytest.raises(ValueError):
            predict_eps(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), 0, sched)

    def test_statistical_mean(self):
        # acceptance-style bound at a single timestep
        sched = build_schedule(1000)
        y0 = np.array([[[2.0, -1.0, 0.5]]])
        draws = 100_000
        eps = RngStream(4).normal((draws,) + y0.shape)
        t = 500
        samples = math.sqrt(sched.alpha_bar(t)) * y0 + math.sqrt(1 - sched.alpha_bar(t)) * eps
        bound = 4 * math.sqrt((1 - sched.alpha_bar(t)) / draws)
        assert np.max(np.abs(samples.mean(axis=0) - math.sqrt(sched.alpha_bar(t)) * y0)) < bound


class TestDdim:
    def test_sigma_hand_value(self):
        assert abs(ddim_sigma(0.5, 0.75) - math.sqrt(1 / 6)) < 1e-12

    def test_sigma_vanishes_on_equal_fractions(self):
        assert ddim_sigma(0.5, 0.5) == 0.0

    def test_step_requires_decreasing_t(self):
        sched = build_schedule(10)
        with pytest.raises(ValueError):
            ddim_step(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), 3, 3, 0.0, None, sched)

    def test_eta_range_checked(self):
        sched = build_schedule(10)
        with pytest.raises(ValueError):
            ddim_step(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), 3, 1, 1.5, None, sched)

    def test_stochastic_step_needs_rng(self):
        sched = build_schedule(10)
        with pytest.raises(ValueError, match="RngStream"):
            ddim_step(np.ones((1, 1, 1)), np.zeros((1, 1, 1)), 5, 2, 1.0, None, sched)


class TestTimestepRule:
    def test_final_iteration_reaches_zero(self):
        assert timestep_for_iteration(10, 10, 1000) == 0
        assert timestep_for_iteration(3, 3, 7) == 0

    def test_half_up_rounding(self):
        # 5 * (1 - 1/2) = 2.5 rounds up deterministically
        assert timestep_for_iteration(1, 2, 5) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            timestep_for_iteration(0, 5, 100)


class TestJpma:
    CAM = CameraModel(fx=1000.0, fy=1100.0, cx=500.0, cy=400.0)

    def test_single_hypothesis_passthrough(self):
        pose = RngStream(12).uniform(-300, 300, (3, 4, 3)) + np.array([0, 0, 3500.0])
        assert np.array_equal(jpma_aggregate(pose[None], self.CAM.project(pose), self.CAM), pose)

    def test_exact_reprojection_selected_everywhere(self):
        rng = RngStream(13)
        truth = rng.uniform(-300, 300, (2, 3, 3)) + np.array([0, 0, 3500.0])
        noisy = truth[None] + rng.normal((4, 2, 3, 3)) * 30
        poses = np.concatenate([noisy[:2], truth[None], noisy[2:]])
        assert np.array_equal(jpma_aggregate(poses, self.CAM.project(truth), self.CAM), truth)

    def test_matches_argmin_oracle(self):
        rng = RngStream(14)
        for _ in range(5):
            poses = rng.uniform(-300, 300, (3, 2, 4, 3)) + np.array([0, 0, 3000.0])
            keypoints = self.CAM.project(poses[1]) + rng.normal((2, 4, 2)) * 4
            assert np.array_equal(jpma_aggregate(poses, keypoints, self.CAM), naive_jpma(poses, keypoints, self.CAM))

    def test_selected_error_lower_bounds_all(self):
        rng = RngStream(15)
        poses = rng.uniform(-300, 300, (4, 3, 3, 3)) + np.array([0, 0, 3000.0])
        keypoints = self.CAM.project(poses[0]) + rng.normal((3, 3, 2)) * 6
        chosen = jpma_aggregate(poses, keypoints, self.CAM)
        chosen_err = np.linalg.norm(self.CAM.project(chosen) - keypoints, axis=-1)
        for h in range(4):
            err = np.linalg.norm(self.CAM.project(poses[h]) - keypoints, axis=-1)
            assert np.all(chosen_err <= err + 1e-12)

    def test_nonpositive_depth_disqualified(self):
        good = np.array([[[[50.0, -20.0, 2000.0]]]])
        bad = np.array([[[[0.0, 0.0, -5.0]]]])
        out = jpma_aggregate(np.concatenate([bad, good]), self.CAM.project(good[0]), self.CAM)
        assert np.array_equal(out, good[0])

    def test_all_disqualified_falls_back_to_first(self):
        poses = -np.abs(RngStream(16).normal((3, 1, 2, 3))) - 1.0
        out = jpma_aggregate(poses, np.zeros((1, 2, 2)), self.CAM)
        assert np.array_equal(out, poses[0])

    @pytest.mark.parametrize("fx", [1e300, 1e308])  # the squared pixel error overflows; the pixel itself overflows
    def test_overflowing_error_never_beats_a_finite_one(self, fx):
        cam = CameraModel(fx=fx, fy=1100.0, cx=500.0, cy=400.0)
        # frame 0: hypothesis 0 overflows and hypothesis 1 hits the keypoint; frame 1: both overflow
        poses = np.array([[[[2000.0, 0.0, 1.0], [2000.0, 0.0, 1.0]]], [[[0.0, 0.0, 1.0], [3000.0, 0.0, 1.0]]]])
        out = jpma_aggregate(poses, np.full((1, 2, 2), [500.0, 400.0]), cam)
        assert np.array_equal(out[0, 0], poses[1, 0, 0])
        assert np.array_equal(out[0, 1], poses[0, 0, 1])  # no finite error: hypothesis 0

    @pytest.mark.parametrize("shape", [(2, 3, 3), (0, 2, 3, 3), (2, 1, 2, 3, 3)])
    def test_not_a_hypothesis_stack_is_shape_error(self, shape):
        with pytest.raises(ShapeError, match=r"\(H, J, F, 3\)"):
            jpma_aggregate(np.ones(shape), np.zeros((2, 3, 2)), self.CAM)


class TestMpjpe:
    def test_zero_on_equal(self):
        x = RngStream(17).normal((2, 3, 3))
        assert mpjpe(x, x) == 0.0

    def test_three_four_five(self):
        gt = np.zeros((1, 1, 3))
        assert mpjpe(gt + np.array([3.0, 4.0, 0.0]), gt) == 5.0

    def test_homogeneous(self):
        gt = RngStream(18).normal((3, 2, 3))
        offset = RngStream(19).normal((3, 2, 3))
        assert mpjpe(gt + 2 * offset, gt) == pytest.approx(2 * mpjpe(gt + offset, gt), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mpjpe(np.zeros((1, 2, 3)), np.zeros((2, 1, 3)))
