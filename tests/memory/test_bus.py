"""Bus routing and device-mapping tests."""

import numpy as np
import pytest

from repro.memory import MMIO_BASE, Bus, MemoryAccessError, MemoryPort, Ram


class StubDevice:
    """Records accesses; returns offset-derived values with +5 latency."""

    def __init__(self):
        self.writes = []

    def read_word(self, offset, cycle):
        return offset * 2, cycle + 5

    def write_word(self, offset, value, cycle):
        self.writes.append((offset, value))
        return cycle + 1

    def read_burst(self, offset, count, cycle):
        return [offset + i for i in range(count)], cycle + 5 + count


@pytest.fixture
def system():
    ram = Ram(4096)
    bus = Bus(ram, MemoryPort(latency=2))
    device = StubDevice()
    bus.attach_device(MMIO_BASE, 0x100, device)
    return bus, ram, device


class TestRamRouting:
    def test_load_word(self, system):
        bus, ram, _ = system
        ram.write_u32(100 * 4, 42)
        value, completion = bus.load_word(400, cycle=7)
        assert value == 42
        assert completion == 9  # latency 2

    def test_store_word(self, system):
        bus, ram, _ = system
        bus.store_word(0x10, 99, cycle=0)
        assert ram.read_u32(0x10) == 99

    def test_load_burst(self, system):
        bus, ram, _ = system
        for i in range(4):
            ram.write_u32(0x20 + 4 * i, i + 1)
        values, completion = bus.load_burst(0x20, 4, cycle=0)
        # One u32 array copy of the words, not a view of RAM.
        assert values.dtype == np.uint32
        assert values.tolist() == [1, 2, 3, 4]
        ram.write_u32(0x20, 9)
        assert values[0] == 1
        assert completion == 5  # beats 0..3, last completes at 3+2

    def test_misaligned_burst_rejected_after_the_port(self, system):
        bus, _, _ = system
        with pytest.raises(MemoryAccessError,
                           match="misaligned word access at 0x00000022"):
            bus.load_burst(0x22, 2, cycle=0)
        assert bus.port.counters.requests == 2

    def test_store_burst(self, system):
        bus, ram, _ = system
        bus.store_burst(0x40, [7, 8], cycle=0)
        assert ram.read_u32(0x40) == 7
        assert ram.read_u32(0x44) == 8

    def test_burst_beyond_ram_rejected(self, system):
        bus, _, _ = system
        with pytest.raises(MemoryAccessError, match="exceeds"):
            bus.load_burst(4096 - 8, 4, cycle=0)


class TestDeviceRouting:
    def test_device_read(self, system):
        bus, _, _ = system
        value, completion = bus.load_word(MMIO_BASE + 8, cycle=10)
        assert value == 16
        assert completion == 15

    def test_device_write(self, system):
        bus, _, device = system
        bus.store_word(MMIO_BASE + 4, 123, cycle=0)
        assert device.writes == [(4, 123)]

    def test_device_burst(self, system):
        bus, _, _ = system
        values, _ = bus.load_burst(MMIO_BASE, 3, cycle=0)
        assert values == [0, 1, 2]

    def test_unmapped_address(self, system):
        bus, _, _ = system
        with pytest.raises(MemoryAccessError, match="no device"):
            bus.load_word(MMIO_BASE + 0x1000, cycle=0)

    def test_device_access_does_not_use_ram_port(self, system):
        bus, _, _ = system
        bus.load_word(MMIO_BASE, cycle=0)
        assert bus.port.counters.requests == 0


class TestDeviceLookup:
    """The bus bisects a sorted base list; cover every lookup regime."""

    @pytest.fixture
    def multi(self):
        bus = Bus(Ram(4096), MemoryPort(latency=2))
        devices = [StubDevice() for _ in range(3)]
        # Attach out of order: the sorted insert must still route right.
        bus.attach_device(MMIO_BASE + 0x400, 0x100, devices[2])
        bus.attach_device(MMIO_BASE, 0x100, devices[0])
        bus.attach_device(MMIO_BASE + 0x200, 0x100, devices[1])
        return bus, devices

    def test_bases_kept_sorted(self, multi):
        bus, _ = multi
        assert bus._device_bases == sorted(bus._device_bases)

    @pytest.mark.parametrize("index,base_off", [(0, 0x0), (1, 0x200), (2, 0x400)])
    def test_routes_to_correct_device(self, multi, index, base_off):
        bus, devices = multi
        bus.store_word(MMIO_BASE + base_off + 8, 77, cycle=0)
        assert devices[index].writes == [(8, 77)]
        for i, dev in enumerate(devices):
            if i != index:
                assert dev.writes == []

    def test_last_word_of_region(self, multi):
        bus, devices = multi
        bus.store_word(MMIO_BASE + 0x2FC, 1, cycle=0)
        assert devices[1].writes == [(0xFC, 1)]

    def test_gap_between_devices_unmapped(self, multi):
        bus, _ = multi
        with pytest.raises(MemoryAccessError, match="no device"):
            bus.load_word(MMIO_BASE + 0x100, cycle=0)

    def test_below_first_device_unmapped(self):
        bus = Bus(Ram(4096), MemoryPort(latency=2))
        bus.attach_device(MMIO_BASE + 0x100, 0x10, StubDevice())
        with pytest.raises(MemoryAccessError, match="no device"):
            bus.load_word(MMIO_BASE + 0x50, cycle=0)

    def test_past_last_device_unmapped(self, multi):
        bus, _ = multi
        with pytest.raises(MemoryAccessError, match="no device"):
            bus.load_word(MMIO_BASE + 0x500, cycle=0)


class TestAttachment:
    def test_below_mmio_base_rejected(self, system):
        bus, _, _ = system
        with pytest.raises(ValueError, match="MMIO_BASE"):
            bus.attach_device(0x1000, 0x10, StubDevice())

    def test_overlap_rejected(self, system):
        bus, _, _ = system
        with pytest.raises(ValueError, match="overlaps"):
            bus.attach_device(MMIO_BASE + 0x80, 0x100, StubDevice())

    def test_adjacent_devices_allowed(self, system):
        bus, _, _ = system
        bus.attach_device(MMIO_BASE + 0x100, 0x10, StubDevice())
        value, _ = bus.load_word(MMIO_BASE + 0x104, cycle=0)
        assert value == 8
