"""Unit tests for process-window analysis."""

import numpy as np
import pytest

from repro.litho import (depth_of_focus, exposure_latitude,
                         process_window_matrix)


@pytest.fixture(scope="module")
def wire_target():
    target = np.zeros((64, 64))
    target[27:37, 8:56] = 1.0
    return target


class TestProcessWindowMatrix:
    def test_matrix_shape_and_axes(self, litho64, wire_target):
        window = process_window_matrix(wire_target, wire_target, litho64,
                                       doses=(0.98, 1.0, 1.02),
                                       defocuses=(0.0, 40.0))
        assert window.l2_error.shape == (2, 3)
        assert window.doses == (0.98, 1.0, 1.02)
        assert window.defocuses == (0.0, 40.0)

    def test_empty_axes_rejected(self, litho64, wire_target):
        with pytest.raises(ValueError):
            process_window_matrix(wire_target, wire_target, litho64,
                                  doses=(), defocuses=(0.0,))

    def test_nominal_error_matches_simulator(self, litho64, engine64,
                                             wire_target):
        window = process_window_matrix(wire_target, wire_target, litho64,
                                       doses=(1.0,), defocuses=(0.0,))
        direct = engine64.litho_error(wire_target, wire_target)
        np.testing.assert_allclose(window.nominal_error(), direct)

    def test_defocus_degrades_image(self, litho64, wire_target):
        window = process_window_matrix(wire_target, wire_target, litho64,
                                       doses=(1.0,),
                                       defocuses=(0.0, 150.0))
        assert window.l2_error[1, 0] >= window.l2_error[0, 0]

    def test_within_tolerance(self, litho64, wire_target):
        window = process_window_matrix(wire_target, wire_target, litho64,
                                       doses=(1.0,), defocuses=(0.0,))
        tol = window.nominal_error()
        assert window.within_tolerance(tol)[0, 0]
        assert not window.within_tolerance(tol - 1)[0, 0]


class TestLatitudeAndFocus:
    def test_exposure_latitude_positive_for_tolerant_target(self, litho64,
                                                            wire_target):
        nominal = process_window_matrix(wire_target, wire_target, litho64,
                                        doses=(1.0,), defocuses=(0.0,)
                                        ).nominal_error()
        latitude = exposure_latitude(wire_target, wire_target, litho64,
                                     tolerance=nominal + 40,
                                     dose_span=0.1, steps=11)
        assert latitude > 0.0

    def test_exposure_latitude_zero_when_nominal_fails(self, litho64,
                                                       wire_target):
        latitude = exposure_latitude(wire_target, wire_target, litho64,
                                     tolerance=0.0, dose_span=0.1, steps=5)
        # The printed wire never matches the drawn target exactly.
        assert latitude == 0.0

    def test_latitude_monotone_in_tolerance(self, litho64, wire_target):
        nominal = process_window_matrix(wire_target, wire_target, litho64,
                                        doses=(1.0,), defocuses=(0.0,)
                                        ).nominal_error()
        tight = exposure_latitude(wire_target, wire_target, litho64,
                                  tolerance=nominal + 8, dose_span=0.1,
                                  steps=11)
        loose = exposure_latitude(wire_target, wire_target, litho64,
                                  tolerance=nominal + 200, dose_span=0.1,
                                  steps=11)
        assert loose >= tight

    def test_depth_of_focus_positive(self, litho64, wire_target):
        nominal = process_window_matrix(wire_target, wire_target, litho64,
                                        doses=(1.0,), defocuses=(0.0,)
                                        ).nominal_error()
        dof = depth_of_focus(wire_target, wire_target, litho64,
                             tolerance=nominal + 60, focus_span=80.0,
                             steps=5)
        assert dof >= 0.0
