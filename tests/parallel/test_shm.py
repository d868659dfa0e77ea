"""Shared-memory transport: ownership, attachment, lifetime."""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.parallel.shm import SharedArray, ShmSpec


class TestSharedArray:
    def test_create_is_zero_filled(self):
        with SharedArray.create((3, 4), np.float64) as shared:
            assert shared.array.shape == (3, 4)
            assert shared.array.dtype == np.float64
            np.testing.assert_array_equal(shared.array, 0.0)

    def test_from_array_roundtrip(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        with SharedArray.from_array(data) as shared:
            np.testing.assert_array_equal(shared.array, data)
            # A copy, not a view: mutating the source does not leak in.
            data[0, 0, 0] = -1.0
            assert shared.array[0, 0, 0] == 0.0

    def test_attach_maps_same_pages(self):
        with SharedArray.create((4,), np.float64) as owner:
            attached = SharedArray.attach(owner.spec)
            try:
                attached.array[2] = 7.5
                assert owner.array[2] == 7.5
                assert not attached.owner
            finally:
                attached.close()

    def test_attached_unlink_refused(self):
        with SharedArray.create((2,), np.float64) as owner:
            attached = SharedArray.attach(owner.spec)
            try:
                with pytest.raises(RuntimeError):
                    attached.unlink()
            finally:
                attached.close()

    def test_owner_exit_unlinks(self):
        with SharedArray.create((2,), np.float64) as shared:
            name = shared.spec.name
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_spec_is_plain_data(self):
        with SharedArray.create((2, 2), np.float32) as shared:
            spec = shared.spec
            assert isinstance(spec, ShmSpec)
            assert spec.shape == (2, 2)
            assert np.dtype(spec.dtype) == np.float32

