"""Tests for the no-buffering staging protocol (DataTransportLayer base)."""

import numpy as np
import pytest

from repro.dtl.chunk import Chunk, ChunkKey
from repro.dtl.dimes import InMemoryStagingDTL
from repro.util.errors import DTLError, ProtocolError, ValidationError


def make_chunk(producer="sim", step=0, n=4):
    return Chunk(ChunkKey(producer, step), np.arange(n, dtype=np.float64))


@pytest.fixture
def dtl():
    return InMemoryStagingDTL()


class TestStaging:
    def test_stage_and_retrieve(self, dtl):
        chunk = make_chunk()
        dtl.stage(chunk, producer_node=0)
        assert dtl.retrieve(chunk.key, consumer="ana") == chunk

    def test_slot_reclaimed_after_final_read(self, dtl):
        chunk = make_chunk()
        dtl.stage(chunk, producer_node=0, expected_consumers=2)
        dtl.retrieve(chunk.key, consumer="ana1")
        assert dtl.live_slots == 1
        dtl.retrieve(chunk.key, consumer="ana2")
        assert dtl.live_slots == 0

    def test_retrieve_missing_chunk_rejected(self, dtl):
        with pytest.raises(DTLError):
            dtl.retrieve(ChunkKey("sim", 9), consumer="ana")

    def test_double_read_by_same_consumer_rejected(self, dtl):
        chunk = make_chunk()
        dtl.stage(chunk, producer_node=0, expected_consumers=2)
        dtl.retrieve(chunk.key, consumer="ana")
        with pytest.raises(ProtocolError):
            dtl.retrieve(chunk.key, consumer="ana")

    def test_invalid_expected_consumers_rejected(self, dtl):
        with pytest.raises(ValidationError):
            dtl.stage(make_chunk(), producer_node=0, expected_consumers=0)


class TestNoBufferingRule:
    def test_overwrite_unread_chunk_rejected(self, dtl):
        dtl.stage(make_chunk(step=0), producer_node=0)
        with pytest.raises(ProtocolError, match="no-buffering"):
            dtl.stage(make_chunk(step=1), producer_node=0)

    def test_next_step_allowed_after_read(self, dtl):
        c0 = make_chunk(step=0)
        dtl.stage(c0, producer_node=0)
        dtl.retrieve(c0.key, consumer="ana")
        dtl.stage(make_chunk(step=1), producer_node=0)  # no error

    def test_steps_must_strictly_increase(self, dtl):
        c0 = make_chunk(step=5)
        dtl.stage(c0, producer_node=0)
        dtl.retrieve(c0.key, consumer="ana")
        with pytest.raises(ProtocolError, match="strictly increase"):
            dtl.stage(make_chunk(step=5), producer_node=0)
        with pytest.raises(ProtocolError):
            dtl.stage(make_chunk(step=4), producer_node=0)

    def test_independent_producers_do_not_interfere(self, dtl):
        dtl.stage(make_chunk("sim1", 0), producer_node=0)
        dtl.stage(make_chunk("sim2", 0), producer_node=1)  # fine
        assert dtl.live_slots == 2

    def test_partial_reads_still_block_overwrite(self, dtl):
        c0 = make_chunk(step=0)
        dtl.stage(c0, producer_node=0, expected_consumers=2)
        dtl.retrieve(c0.key, consumer="ana1")  # 1 of 2
        with pytest.raises(ProtocolError):
            dtl.stage(make_chunk(step=1), producer_node=0)


class TestAccounting:
    def test_bytes_and_reads_counted(self, dtl):
        c = make_chunk(n=10)
        dtl.stage(c, producer_node=0)
        dtl.retrieve(c.key, consumer="ana")
        assert dtl.bytes_staged_total == c.nbytes
        assert dtl.reads_served_total == 1

    def test_peek_is_non_consuming(self, dtl):
        c = make_chunk()
        dtl.stage(c, producer_node=0)
        assert dtl.peek(c.key).chunk == c
        assert dtl.live_slots == 1
        assert dtl.peek(ChunkKey("ghost", 0)) is None

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            InMemoryStagingDTL(name="")
