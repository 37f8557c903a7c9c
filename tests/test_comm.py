"""SimComm: messaging semantics and traffic accounting."""

import pickle

import numpy as np
import pytest

from repro.parallel.comm import ProtocolError, SimCommWorld, allreduce_sum
from repro.parallel.ghost import GHOST_TAG


class TestMessaging:
    def test_send_recv(self):
        world = SimCommWorld(2)
        a, b = world.comm(0), world.comm(1)
        a.send(1, "tag", np.arange(4))
        assert np.array_equal(b.recv(0, "tag"), np.arange(4))

    def test_recv_preserves_send_order(self):
        world = SimCommWorld(2)
        a, b = world.comm(0), world.comm(1)
        a.send(1, "t", 1)
        a.send(1, "t", 2)
        assert b.recv(0, "t") == 1
        assert b.recv(0, "t") == 2

    def test_recv_by_source(self):
        world = SimCommWorld(3)
        world.comm(0).send(2, "t", "from0")
        world.comm(1).send(2, "t", "from1")
        c = world.comm(2)
        assert c.recv(1, "t") == "from1"
        assert c.recv(0, "t") == "from0"

    def test_recv_missing_raises(self):
        world = SimCommWorld(2)
        with pytest.raises(RuntimeError):
            world.comm(1).recv(0, "t")

    def test_recv_all_drains(self):
        world = SimCommWorld(3)
        world.comm(0).send(2, "t", 10)
        world.comm(1).send(2, "t", 11)
        got = world.comm(2).recv_all("t")
        assert sorted(got) == [(0, 10), (1, 11)]
        assert world.comm(2).recv_all("t") == []

    def test_tags_are_independent(self):
        world = SimCommWorld(2)
        world.comm(0).send(1, "a", 1)
        world.comm(0).send(1, "b", 2)
        assert world.comm(1).recv(0, "b") == 2
        assert world.comm(1).recv(0, "a") == 1

    def test_assert_drained(self):
        world = SimCommWorld(2)
        world.assert_drained()
        world.comm(0).send(1, "t", 5)
        with pytest.raises(RuntimeError):
            world.assert_drained()

    def test_bad_ranks_rejected(self):
        world = SimCommWorld(2)
        with pytest.raises(ValueError):
            world.comm(5)
        with pytest.raises(ValueError):
            world.comm(0).send(7, "t", 1)
        with pytest.raises(ValueError):
            SimCommWorld(0)


class TestAccounting:
    def test_bytes_counted_for_arrays(self):
        world = SimCommWorld(2)
        payload = np.zeros(100, dtype=np.float64)
        world.comm(0).send(1, "t", payload)
        assert world.stats.bytes_sent == 800
        assert world.stats.messages_sent == 1

    def test_tuple_payload_bytes(self):
        world = SimCommWorld(2)
        world.comm(0).send(1, "t", (np.zeros(10, dtype=np.uint8), 3.0))
        assert world.stats.bytes_sent == 18

    def test_barrier_counted(self):
        world = SimCommWorld(2)
        world.comm(0).barrier()
        world.comm(1).barrier()
        assert world.stats.barriers == 2

    def test_local_stats_per_rank(self):
        world = SimCommWorld(2)
        c0 = world.comm(0)
        c0.send(1, "t", 1)
        assert c0.local_stats.messages_sent == 1

    def test_allreduce(self):
        world = SimCommWorld(3)
        assert allreduce_sum(world, [1.0, 2.0, 3.0]) == 6.0
        assert world.stats.collectives == 1
        with pytest.raises(ValueError):
            allreduce_sum(world, [1.0])

    def test_allreduce_traffic_is_accounted(self):
        """Regression: collectives used to count as zero messages and zero
        bytes, hiding allreduce traffic from scaling-model calibration."""
        world = SimCommWorld(3)
        allreduce_sum(world, [1.0, 2.0, 3.0])
        assert world.stats.messages_sent == 3  # one contribution per rank
        assert world.stats.bytes_sent == 3 * 8  # one float64 each
        allreduce_sum(world, [4.0, 5.0, 6.0])
        assert world.stats.messages_sent == 6
        assert world.stats.bytes_sent == 48


class TestProtocolErrorPickle:
    def test_protocol_error_round_trip(self):
        err = ProtocolError(
            "recv contract violated", rank=2, tag=GHOST_TAG, cycle=7,
            transcript=["send 0->2", "recv 2"],
        )
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ProtocolError)
        assert clone.rank == 2
        assert clone.tag == GHOST_TAG
        assert clone.cycle == 7
        assert list(clone.transcript) == ["send 0->2", "recv 2"]
        assert clone.transcript == err.transcript
        assert clone.message == err.message
        assert str(clone) == str(err)

    def test_protocol_error_str_is_stable_across_round_trips(self):
        """Regression: the default ``RuntimeError`` reduce re-fed the
        *formatted* detail string through ``__init__``, stacking a fresh
        ``[rank=... tag=... cycle=...]`` prefix on every hop."""
        err = ProtocolError("boom", rank=1, tag="t", cycle=3)
        once = pickle.loads(pickle.dumps(err))
        twice = pickle.loads(pickle.dumps(once))
        assert str(twice) == str(err)
        assert str(err).count("[rank=") == 1

    def test_protocol_error_defaults_round_trip(self):
        err = ProtocolError("plain")
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.rank, clone.tag, clone.cycle) == (None, None, None)
        assert str(clone) == str(err)
        assert clone.message == "plain"
