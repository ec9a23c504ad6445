"""Unit tests for the DRAM address mapper."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import AddressMapper
from repro.sim.config import DramConfig


def test_coordinates_stay_within_organisation(dram_config):
    mapper = AddressMapper(dram_config)
    for address in range(0, 64 * 1024 * 1024, 1_234_567):
        decoded = mapper.decode(address)
        assert 0 <= decoded.channel < dram_config.channels
        assert 0 <= decoded.rank < dram_config.ranks_per_channel
        assert 0 <= decoded.bank < dram_config.banks_per_rank
        assert 0 <= decoded.column < dram_config.row_size_bytes
        assert 0 <= decoded.row < mapper.rows_per_bank


def test_sequential_stream_stays_in_one_row_within_interleave(dram_config):
    mapper = AddressMapper(dram_config)
    base = mapper.decode(0)
    same_row = mapper.decode(dram_config.row_size_bytes - 1)
    assert base.channel == same_row.channel
    assert base.bank_key == same_row.bank_key
    assert base.row == same_row.row


def test_adjacent_interleave_blocks_alternate_channels(dram_config):
    mapper = AddressMapper(dram_config)
    first = mapper.decode(0)
    second = mapper.decode(dram_config.row_size_bytes)
    assert first.channel != second.channel


def test_addresses_wrap_at_capacity(dram_config):
    mapper = AddressMapper(dram_config)
    assert mapper.decode(dram_config.capacity_bytes + 64) == mapper.decode(64)


def test_negative_address_rejected(dram_config):
    mapper = AddressMapper(dram_config)
    with pytest.raises(ValueError):
        mapper.decode(-1)


def test_interleave_must_be_power_of_two(dram_config):
    with pytest.raises(ValueError):
        AddressMapper(dram_config, channel_interleave_bytes=3000)


def test_interleave_cannot_exceed_row_size(dram_config):
    with pytest.raises(ValueError):
        AddressMapper(dram_config, channel_interleave_bytes=dram_config.row_size_bytes * 2)


def test_disjoint_regions_map_to_disjoint_rows():
    config = DramConfig()
    mapper = AddressMapper(config)
    region = 64 * 1024 * 1024
    a = mapper.decode(0)
    b = mapper.decode(region)
    assert (a.channel, a.rank, a.bank, a.row) != (b.channel, b.rank, b.bank, b.row)


@given(address=st.integers(min_value=0, max_value=2**40))
def test_decode_is_deterministic(address):
    mapper = AddressMapper(DramConfig())
    assert mapper.decode(address) == mapper.decode(address)


@given(address=st.integers(min_value=0, max_value=2**34 - 1))
def test_bank_key_matches_rank_and_bank(address):
    mapper = AddressMapper(DramConfig())
    decoded = mapper.decode(address)
    assert decoded.bank_key == (decoded.rank, decoded.bank)


def _reference_coordinates(config: DramConfig, interleave: int, address: int):
    """The mapping written out from its definition in the module docstring:
    channel-interleaved blocks, then column, bank and row bits within the
    channel.  Returns ``(channel, bank_slot, row, column)``."""
    address %= config.capacity_bytes
    block, offset = divmod(address, interleave)
    channel = block % config.channels
    channel_local = (block // config.channels) * interleave + offset
    row_block, column = divmod(channel_local, config.row_size_bytes)
    banks = config.ranks_per_channel * config.banks_per_rank
    rows_per_bank = max(
        1, config.capacity_bytes // (config.channels * banks * config.row_size_bytes)
    )
    return channel, row_block % banks, (row_block // banks) % rows_per_bank, column


@st.composite
def organisations(draw):
    """A DRAM organisation plus a channel interleave valid for it."""
    row_size = 1 << draw(st.integers(min_value=9, max_value=13))
    config = DramConfig(
        channels=draw(st.sampled_from([1, 2, 4])),
        ranks_per_channel=draw(st.sampled_from([1, 2])),
        banks_per_rank=draw(st.sampled_from([4, 8])),
        row_size_bytes=row_size,
        # Powers of two and not: wrap-around must not assume either.
        capacity_bytes=draw(st.sampled_from([2 * 1024**3, 3 * 2**27 + 4096, 2**20])),
    )
    interleave = 1 << draw(st.integers(min_value=6, max_value=row_size.bit_length() - 1))
    return config, interleave


@settings(max_examples=200, deadline=None)
@given(organisation=organisations(), address=st.integers(min_value=0, max_value=2**34))
def test_int_decode_matches_decode_and_reference(organisation, address):
    config, interleave = organisation
    mapper = AddressMapper(config, channel_interleave_bytes=interleave)
    located = mapper.locate(address)
    assert located == _reference_coordinates(config, interleave, address)
    decoded = mapper.decode(address)
    channel, bank_slot, row, column = located
    assert (decoded.channel, decoded.row, decoded.column) == (channel, row, column)
    assert decoded.rank * config.banks_per_rank + decoded.bank == bank_slot


@settings(max_examples=100, deadline=None)
@given(
    organisation=organisations(),
    address=st.integers(min_value=0, max_value=2**31),
    wraps=st.integers(min_value=1, max_value=3),
)
def test_int_decode_wraps_at_capacity(organisation, address, wraps):
    config, interleave = organisation
    mapper = AddressMapper(config, channel_interleave_bytes=interleave)
    assert mapper.locate(address + wraps * config.capacity_bytes) == mapper.locate(address)


@given(address=st.integers(max_value=-1))
def test_int_decode_rejects_negative_addresses(address):
    mapper = AddressMapper(DramConfig())
    with pytest.raises(ValueError, match="non-negative"):
        mapper.locate(address)
    with pytest.raises(ValueError, match="non-negative"):
        mapper.decode(address)
