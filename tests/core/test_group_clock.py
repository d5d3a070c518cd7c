"""Unit tests for GroupClockState (offset arithmetic, floors)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import GroupClockState


class TestProposal:
    def test_initial_proposal_is_physical(self):
        state = GroupClockState()
        # Initialization: offset 0, so the first proposal is the physical
        # hardware clock value (paper Figure 2 lines 1-4).
        assert state.propose(1000) == 1000

    def test_proposal_adds_offset(self):
        state = GroupClockState()
        state.commit(group_us=900, physical_us=1000)
        assert state.offset_us == -100
        assert state.propose(2000) == 1900

    def test_commit_matches_paper_example_round1(self):
        """Figure 4: replica 2 reads pc=8:15, group clock 8:10 decided,
        offset becomes -0.05 (here minutes become microseconds)."""
        state = GroupClockState()
        assert state.commit(group_us=810, physical_us=815) == -5

    def test_monotonic_floor(self):
        state = GroupClockState()
        state.commit(group_us=5000, physical_us=5000)
        # A proposal that would not advance the clock is floored.
        assert state.propose(4000) == 5001
        assert state.propose(5000) == 5001
        assert state.propose(6000) == 6000

    def test_causal_floor(self):
        state = GroupClockState()
        state.observe_causal_timestamp(9000)
        assert state.propose(1000) == 9001
        assert state.propose(10_000) == 10_000

    def test_observe_group_value_tracks_max(self):
        state = GroupClockState()
        state.observe_group_value(100)
        state.observe_group_value(50)
        assert state.last_group_us == 100


class TestHistory:
    def test_history_records_rounds(self):
        """The state keeps no history: a commit returns its offset, and
        the (group, physical, offset) triple is the service recorder's
        (``TestRecorder`` in ``test_time_service_unit.py``)."""
        state = GroupClockState()
        assert [state.commit(100, 110), state.commit(220, 225)] == [-10, -5]
        assert not any(isinstance(value, (list, dict, set))
                       for value in vars(state).values())


class TestProperties:
    @given(
        rounds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**12),
                st.integers(min_value=0, max_value=10**12),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_offset_identity_invariant(self, rounds):
        """After each round: group == physical + offset exactly."""
        state = GroupClockState()
        for group_us, physical_us in rounds:
            state.commit(group_us, physical_us)
            assert physical_us + state.offset_us == group_us

    @given(
        physicals=st.lists(
            st.integers(min_value=0, max_value=10**12), min_size=2, max_size=50
        )
    )
    def test_winner_sequence_strictly_increases(self, physicals):
        """If each round adopts some replica's proposal, the group clock
        strictly increases regardless of physical clock values."""
        state = GroupClockState()
        last = None
        for physical in physicals:
            proposal = state.propose(physical)
            if last is not None:
                assert proposal > last
            state.commit(proposal, physical)
            last = proposal
