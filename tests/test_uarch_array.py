"""Unit and property tests for the injectable storage arrays."""

import pytest
from hypothesis import given, strategies as st

from repro.uarch.array import FaultSite, LineArray, StorageArray, WordArray


class TestWordArray:
    def test_read_write(self):
        arr = WordArray("t", 8, 32)
        arr.write(3, 0xDEADBEEF)
        assert arr.read(3) == 0xDEADBEEF

    def test_write_masks_to_width(self):
        arr = WordArray("t", 4, 8)
        arr.write(0, 0x1FF)
        assert arr.read(0) == 0xFF

    def test_transient_flip(self):
        arr = WordArray("t", 4, 32)
        arr.write(1, 0b1000)
        arr.flip(1, 3)
        assert arr.read(1) == 0
        arr.flip(1, 0)
        assert arr.read(1) == 1

    @given(st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=31),
           st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_flip_twice_is_identity(self, entry, bit, value):
        arr = WordArray("t", 8, 32)
        arr.write(entry, value)
        arr.flip(entry, bit)
        arr.flip(entry, bit)
        assert arr.read(entry) == value

    def test_stuck_at_one_window(self):
        arr = WordArray("t", 4, 32)
        arr.write(0, 0)
        arr.set_stuck(0, 5, 1, start=10, end=20)
        assert arr.read(0, cycle=5) == 0
        assert arr.read(0, cycle=10) == 1 << 5
        assert arr.read(0, cycle=19) == 1 << 5
        assert arr.read(0, cycle=20) == 0

    def test_stuck_at_zero_permanent(self):
        arr = WordArray("t", 4, 32)
        arr.write(2, 0xFF)
        arr.set_stuck(2, 0, 0)
        assert arr.read(2, cycle=10 ** 9) == 0xFE

    def test_stuck_does_not_change_storage(self):
        arr = WordArray("t", 4, 32)
        arr.write(0, 0)
        arr.set_stuck(0, 1, 1, start=0, end=5)
        assert arr.read(0, cycle=1) == 2
        assert arr.peek(0) == 0  # underlying cell unchanged

    def test_stuck_idempotent(self):
        arr = WordArray("t", 4, 32)
        arr.set_stuck(0, 1, 1)
        arr.set_stuck(0, 1, 1)
        assert arr.read(0, 0) == 2

    def test_clear_faults(self):
        arr = WordArray("t", 4, 32)
        arr.set_stuck(0, 1, 1)
        arr.clear_faults()
        assert arr.read(0, 0) == 0

    def test_fault_epoch_bumps(self):
        arr = WordArray("t", 4, 32)
        e0 = arr.fault_epoch
        arr.flip(0, 0)
        assert arr.fault_epoch > e0

    def test_out_of_range_checked(self):
        arr = WordArray("t", 4, 32)
        with pytest.raises(IndexError):
            arr.flip(4, 0)
        with pytest.raises(IndexError):
            arr.flip(0, 32)

    def test_locate(self):
        arr = WordArray("t", 4, 32)
        assert arr.locate(0) == (0, 0)
        assert arr.locate(33) == (1, 1)
        with pytest.raises(IndexError):
            arr.locate(4 * 32)


class TestWatch:
    def test_read_first(self):
        arr = WordArray("t", 4, 32)
        watch = arr.watch_entry(2, 5)
        arr.read(2)
        assert watch.event == "read"
        assert arr.observer is None      # a spent watch lets go
        arr.write(2, 1)  # later write must not override
        assert watch.event == "read"

    def test_overwritten_first(self):
        arr = WordArray("t", 4, 32)
        watch = arr.watch_entry(2, 5)
        arr.write(2, 1)
        assert watch.event == "overwritten"
        assert arr.observer is None

    def test_other_entries_ignored(self):
        arr = WordArray("t", 4, 32)
        watch = arr.watch_entry(2, 5)
        arr.read(1)
        arr.write(3, 9)
        assert watch.event is None
        assert arr.observer is watch


class TestLineArray:
    def test_fill_read_write(self):
        arr = LineArray("l", 4, 64)
        arr.fill(1, bytes(range(64)))
        assert arr.read_bytes(1, 8, 4) == bytes([8, 9, 10, 11])
        arr.write_bytes(1, 8, b"\xAA\xBB")
        assert arr.read_bytes(1, 8, 2) == b"\xaa\xbb"

    def test_read_unfilled_is_error(self):
        arr = LineArray("l", 4, 64)
        with pytest.raises(ValueError):
            arr.read_bytes(0, 0, 4)

    def test_flip_on_filled_line(self):
        arr = LineArray("l", 2, 64)
        arr.fill(0, bytes(64))
        arr.flip(0, 8 * 5 + 3)   # byte 5, bit 3
        assert arr.read_bytes(0, 5, 1) == bytes([0x08])

    def test_flip_on_unfilled_line_is_noop(self):
        arr = LineArray("l", 2, 64)
        arr.flip(1, 0)
        arr.fill(1, bytes(64))
        assert arr.read_bytes(1, 0, 1) == b"\x00"

    def test_stuck_bit_applies_on_read(self):
        arr = LineArray("l", 2, 64)
        arr.fill(0, bytes(64))
        arr.set_stuck(0, 8 * 3, 1, start=0)
        assert arr.read_bytes(0, 3, 1, cycle=1) == b"\x01"
        assert arr.peek_line(0)[3] == 0

    def test_watch_byte_granularity(self):
        arr = LineArray("l", 2, 64)
        arr.fill(0, bytes(64))
        watch = arr.watch_entry(0, 8 * 10)   # bit in byte 10
        arr.write_bytes(0, 0, b"\xFF" * 5)  # bytes 0-4: not covering
        arr.invalidate(1)                   # another line
        assert watch.event is None
        arr.write_bytes(0, 10, b"\x00")  # covers byte 10
        assert watch.event == "overwritten"

    def test_fill_counts_as_covering_write(self):
        arr = LineArray("l", 2, 64)
        arr.fill(0, bytes(64))
        watch = arr.watch_entry(0, 0)
        arr.invalidate(0)                # no event: the fill overwrites
        assert watch.event is None
        arr.fill(0, bytes(64))
        assert watch.event == "overwritten"

    def test_invalidate(self):
        arr = LineArray("l", 2, 64)
        arr.fill(0, bytes(64))
        arr.invalidate(0)
        assert not arr.is_filled(0)

    @given(st.integers(min_value=0, max_value=511))
    def test_flip_twice_identity(self, bit):
        arr = LineArray("l", 1, 64)
        arr.fill(0, bytes(range(64)) )
        arr.flip(0, bit)
        arr.flip(0, bit)
        assert arr.peek_line(0) == bytes(range(64))


class TestFaultSite:
    def test_default_liveness(self):
        site = FaultSite("x", WordArray("x", 4, 8))
        assert site.live(0) and site.live(3)
        assert site.total_bits == 32

    def test_custom_liveness(self):
        site = FaultSite("x", WordArray("x", 4, 8),
                         live=lambda e: e == 2)
        assert site.live(2) and not site.live(0)
