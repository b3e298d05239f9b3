"""Tests for DiskGeometry LBA/CHS mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DiskError
from repro.storage import DiskGeometry


def test_defaults_give_2004_era_capacity():
    g = DiskGeometry()
    # ~36.9 GB
    assert 30e9 < g.capacity_bytes < 45e9
    assert g.block_size == 512


def test_totals():
    g = DiskGeometry(cylinders=10, heads=2, sectors_per_track=5, block_size=512)
    assert g.blocks_per_cylinder == 10
    assert g.total_blocks == 100
    assert g.capacity_bytes == 100 * 512


def test_chs_roundtrip_examples():
    g = DiskGeometry(cylinders=10, heads=2, sectors_per_track=5)
    assert g.chs_of(0) == (0, 0, 0)
    assert g.chs_of(4) == (0, 0, 4)
    assert g.chs_of(5) == (0, 1, 0)
    assert g.chs_of(10) == (1, 0, 0)
    assert g.chs_of(99) == (9, 1, 4)


def test_cylinder_of():
    g = DiskGeometry(cylinders=10, heads=2, sectors_per_track=5)
    assert g.cylinder_of(0) == 0
    assert g.cylinder_of(9) == 0
    assert g.cylinder_of(10) == 1


def test_lba_out_of_range():
    g = DiskGeometry(cylinders=10, heads=2, sectors_per_track=5)
    with pytest.raises(DiskError):
        g.check_lba(100)
    with pytest.raises(DiskError):
        g.check_lba(-1)


def test_lba_of_validation():
    g = DiskGeometry(cylinders=10, heads=2, sectors_per_track=5)
    with pytest.raises(DiskError):
        g.lba_of(10, 0, 0)
    with pytest.raises(DiskError):
        g.lba_of(0, 2, 0)
    with pytest.raises(DiskError):
        g.lba_of(0, 0, 5)


def test_invalid_geometry_rejected():
    with pytest.raises(DiskError):
        DiskGeometry(cylinders=0)
    with pytest.raises(DiskError):
        DiskGeometry(heads=0)
    with pytest.raises(DiskError):
        DiskGeometry(sectors_per_track=0)
    with pytest.raises(DiskError):
        DiskGeometry(block_size=0)


def test_blocks_for_bytes():
    g = DiskGeometry(block_size=512)
    assert g.blocks_for_bytes(0) == 1
    assert g.blocks_for_bytes(1) == 1
    assert g.blocks_for_bytes(512) == 1
    assert g.blocks_for_bytes(513) == 2
    assert g.blocks_for_bytes(1024) == 2
    with pytest.raises(DiskError):
        g.blocks_for_bytes(-1)


@given(st.integers(min_value=0, max_value=10 * 2 * 5 - 1))
def test_chs_roundtrip_property(lba):
    g = DiskGeometry(cylinders=10, heads=2, sectors_per_track=5)
    c, h, s = g.chs_of(lba)
    assert g.lba_of(c, h, s) == lba


@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=10_000),
)
def test_chs_in_bounds_property(cyl, heads, spt, lba):
    g = DiskGeometry(cylinders=cyl, heads=heads, sectors_per_track=spt)
    if lba >= g.total_blocks:
        with pytest.raises(DiskError):
            g.chs_of(lba)
    else:
        c, h, s = g.chs_of(lba)
        assert 0 <= c < cyl and 0 <= h < heads and 0 <= s < spt


def test_derived_totals_are_plain_fields_outside_identity():
    import dataclasses

    g = DiskGeometry(cylinders=10, heads=2, sectors_per_track=5)
    assert g.blocks_per_cylinder == 10
    assert g.total_blocks == 100
    # Equality, hash and repr see only the four defining fields.
    assert g == DiskGeometry(cylinders=10, heads=2, sectors_per_track=5)
    assert hash(g) == hash(DiskGeometry(cylinders=10, heads=2,
                                        sectors_per_track=5))
    assert "total_blocks" not in repr(g)
    bigger = dataclasses.replace(g, cylinders=20)
    assert bigger.total_blocks == 200
    assert bigger != g
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.total_blocks = 1


def test_cylinder_of_rejects_out_of_range_lbas():
    g = DiskGeometry(cylinders=10, heads=2, sectors_per_track=5)
    assert g.cylinder_of(99) == 9
    for lba in (-1, 100, 10**9):
        with pytest.raises(DiskError):
            g.cylinder_of(lba)
