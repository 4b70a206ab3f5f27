"""Occupancy-word layout and set/clear/wraparound semantics."""

import pytest

from repro.protocol import (
    OCC_WORD_BYTES,
    SlotLayout,
    occ_announce,
    occ_bit,
    occ_consume,
    occ_encode,
    occ_header_bytes,
    occ_probe,
    occ_set,
    occ_slots,
    occ_word,
)
from repro.protocol.indicator import FRAME_OVERHEAD
from repro.rdma import MemoryRegion


def test_occ_bit_maps_slots_to_bits():
    assert occ_bit(0) == 1
    assert occ_bit(5) == 1 << 5
    assert occ_bit(63) == 1 << 63


def test_occ_bit_wraps_past_64():
    # Slot 64 shares bit 0 with slot 0; 65 shares bit 1 with slot 1.
    assert occ_bit(64) == occ_bit(0)
    assert occ_bit(65) == occ_bit(1)
    assert occ_bit(127) == occ_bit(63)
    with pytest.raises(ValueError):
        occ_bit(-1)


def test_occ_word_is_or_of_inflight_slots():
    assert occ_word([]) == 0
    assert occ_word([0, 3, 63]) == (1 | (1 << 3) | (1 << 63))
    # Duplicate / wrapped slots collapse onto the same bit.
    assert occ_word([1, 65]) == 1 << 1


def test_occ_encode_is_little_endian_u64():
    assert occ_encode(0) == b"\x00" * 8
    assert occ_encode(1) == b"\x01" + b"\x00" * 7
    assert occ_encode(1 << 63) == b"\x00" * 7 + b"\x80"
    assert len(occ_encode(occ_word(range(64)))) == OCC_WORD_BYTES


def test_set_then_consume_round_trips_and_clears():
    region = MemoryRegion(64)
    occ_set(region, [2, 7])
    assert occ_consume(region) == occ_word([2, 7])
    # Consuming snapshots AND zeroes: a second probe sees nothing.
    assert occ_consume(region) == 0


def test_set_accumulates_until_consumed():
    region = MemoryRegion(64)
    occ_set(region, [1])
    occ_set(region, [4])
    assert occ_consume(region) == occ_word([1, 4])


def test_occ_slots_expands_wraparound_groups():
    # 96-slot layout: bit 0 covers slots 0 and 64; both must be probed.
    word = occ_word([64])
    assert list(occ_slots(word, 96)) == [0, 64]
    # Without wraparound only the exact slot is indicated.
    assert list(occ_slots(occ_word([5]), 64)) == [5]
    assert list(occ_slots(0, 64)) == []


def test_layout_without_occupancy_is_unchanged():
    plain = SlotLayout(16 << 10, 16)
    assert plain.occupancy is False
    assert plain.header_bytes == 0
    assert plain.offset(0) == 0


def test_layout_with_occupancy_shifts_slots_past_header():
    layout = SlotLayout(16 << 10, 16, occupancy=True)
    assert layout.occupancy is True
    assert layout.header_bytes == OCC_WORD_BYTES
    assert layout.occ_offset == 0
    assert layout.offset(0) == OCC_WORD_BYTES
    # Slots stay 8-byte aligned and inside the buffer.
    offs = [layout.offset(i) for i in range(16)]
    assert all(o % 8 == 0 for o in offs)
    assert offs[-1] + layout.slot_bytes <= layout.buf_bytes
    assert layout.max_payload == layout.slot_bytes - FRAME_OVERHEAD


def test_occupancy_header_cannot_eat_the_only_slot():
    with pytest.raises(ValueError):
        SlotLayout(FRAME_OVERHEAD + 8, 1, occupancy=True)


def test_occ_header_grows_past_64_slots():
    # <=64 slots keep the original single word; wider windows pay one
    # summary word plus one exact sub-word per 64-slot group.
    assert occ_header_bytes(16) == OCC_WORD_BYTES
    assert occ_header_bytes(64) == OCC_WORD_BYTES
    assert occ_header_bytes(65) == 3 * OCC_WORD_BYTES
    assert occ_header_bytes(128) == 3 * OCC_WORD_BYTES
    assert occ_header_bytes(129) == 4 * OCC_WORD_BYTES


def test_announce_is_byte_identical_to_single_word_up_to_64():
    slots = [0, 7, 63]
    assert occ_announce(slots, 64) == occ_encode(occ_word(slots))
    assert occ_announce([], 16) == occ_encode(0)


def test_announce_rejects_out_of_range_slot():
    with pytest.raises(ValueError):
        occ_announce([128], 128)
    with pytest.raises(ValueError):
        occ_announce([-1], 128)


def test_two_level_announce_probe_round_trips_exactly():
    n = 128
    region = MemoryRegion(occ_header_bytes(n))
    region.write(0, occ_announce([0, 63, 64, 70, 127], n))
    slots, probes = occ_probe(region, n)
    # Exact, not group-aliased: slot 64 no longer drags slot 0 along.
    assert slots == [0, 63, 64, 70, 127]
    assert probes == 3  # summary + both dirty groups
    # The probe consumed the header: nothing left for the next sweep.
    again, probes2 = occ_probe(region, n)
    assert again == [] and probes2 == 1


def test_two_level_probe_skips_clean_groups():
    n = 192
    region = MemoryRegion(occ_header_bytes(n))
    region.write(0, occ_announce([130], n))
    slots, probes = occ_probe(region, n)
    assert slots == [130]
    assert probes == 2  # summary + group 2; groups 0 and 1 untouched


def test_two_level_probe_consumes_the_snapshot():
    n = 128
    region = MemoryRegion(occ_header_bytes(n))
    region.write(0, occ_announce([3, 100], n))
    assert occ_probe(region, n) == ([3, 100], 3)
    # Summary and sub-words were zeroed: nothing is announced twice.
    assert occ_probe(region, n) == ([], 1)
    region.write(0, occ_announce([100], n))
    assert occ_probe(region, n) == ([100], 2)


def test_single_word_probe_counts_one():
    region = MemoryRegion(OCC_WORD_BYTES)
    region.write(0, occ_announce([2, 9], 16))
    slots, probes = occ_probe(region, 16)
    assert slots == [2, 9] and probes == 1


def test_layout_wide_window_reserves_two_level_header():
    layout = SlotLayout(32 << 10, 96, occupancy=True)
    assert layout.header_bytes == occ_header_bytes(96) == 3 * OCC_WORD_BYTES
    assert layout.offset(0) == layout.header_bytes
    assert all(layout.offset(i) % 8 == 0 for i in range(96))
