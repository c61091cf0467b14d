"""Tests for the per-output-fiber distributed scheduling facade."""

import pytest

from repro.core.baseline import HopcroftKarpScheduler
from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import DistributedScheduler, SlotRequest
from repro.core.policies import RoundRobinPolicy
from repro.errors import InvalidParameterError
from repro.graphs.conversion import CircularConversion


@pytest.fixture
def ds():
    return DistributedScheduler(
        4, CircularConversion(6, 1, 1), BreakFirstAvailableScheduler()
    )


class TestValidation:
    def test_duplicate_input_channel(self, ds):
        reqs = [SlotRequest(0, 1, 2), SlotRequest(0, 1, 3)]
        with pytest.raises(InvalidParameterError, match="two requests"):
            ds.schedule_slot(reqs)

    def test_out_of_range_fiber(self, ds):
        with pytest.raises(InvalidParameterError):
            ds.schedule_slot([SlotRequest(9, 0, 0)])
        with pytest.raises(InvalidParameterError):
            ds.schedule_slot([SlotRequest(0, 0, 9)])

    def test_out_of_range_wavelength(self, ds):
        with pytest.raises(InvalidParameterError):
            ds.schedule_slot([SlotRequest(0, 6, 0)])

    def test_bad_duration(self, ds):
        with pytest.raises(InvalidParameterError):
            ds.schedule_slot([SlotRequest(0, 0, 0, duration=0)])


class TestScheduling:
    def test_empty_slot(self, ds):
        schedule = ds.schedule_slot([])
        assert schedule.n_granted == 0
        assert schedule.n_rejected == 0
        assert schedule.per_output == {}

    def test_no_contention_all_granted(self, ds):
        reqs = [SlotRequest(i, i, i % 4) for i in range(4)]
        schedule = ds.schedule_slot(reqs)
        assert schedule.n_granted == 4
        assert schedule.n_rejected == 0

    def test_partition_by_output(self, ds):
        reqs = [
            SlotRequest(0, 0, 1),
            SlotRequest(1, 0, 1),
            SlotRequest(2, 0, 2),
        ]
        schedule = ds.schedule_slot(reqs)
        assert set(schedule.per_output) == {1, 2}
        assert schedule.per_output[1].n_requested == 2
        assert schedule.per_output[2].n_requested == 1

    def test_grants_reference_real_requests(self, ds):
        reqs = [SlotRequest(i, w, 0) for i in range(4) for w in (0, 3)]
        schedule = ds.schedule_slot(reqs)
        req_set = set(reqs)
        for g in schedule.granted:
            assert g.request in req_set
        # granted + rejected = submitted, no request in both
        assert schedule.n_granted + schedule.n_rejected == len(reqs)
        granted_reqs = {g.request for g in schedule.granted}
        assert granted_reqs.isdisjoint(schedule.rejected)

    def test_channels_disjoint_per_output(self, ds):
        reqs = [SlotRequest(i, w, 0) for i in range(4) for w in range(6)]
        schedule = ds.schedule_slot(reqs)
        channels = [g.channel for g in schedule.granted]
        assert len(channels) == len(set(channels))

    def test_contention_drops_requests(self, ds):
        # 8 same-wavelength requests to one output: window is 3 channels.
        reqs = [SlotRequest(i, 2, 0) for i in range(4)]
        schedule = ds.schedule_slot(reqs)
        assert schedule.n_granted == 3
        assert schedule.n_rejected == 1

    def test_availability_mask(self, ds):
        reqs = [SlotRequest(0, 2, 0)]
        schedule = ds.schedule_slot(
            reqs, availability={0: [True, False, False, False, True, True]}
        )
        assert schedule.n_granted == 0  # λ2's window {1,2,3} all occupied
        schedule2 = ds.schedule_slot(reqs, availability={0: [True] * 6})
        assert schedule2.n_granted == 1

    def test_matches_global_optimum_per_output(self, ds):
        # Because outputs are independent, the distributed result equals the
        # per-output optima summed (the paper's decomposition argument).
        reqs = [
            SlotRequest(i, w, (i * w) % 4)
            for i in range(4)
            for w in range(6)
            if (i + w) % 2 == 0
        ]
        schedule = ds.schedule_slot(reqs)
        hk = HopcroftKarpScheduler()
        total_opt = 0
        from repro.graphs.request_graph import RequestGraph

        by_output = {}
        for r in reqs:
            by_output.setdefault(r.output_fiber, []).append(r.wavelength)
        for o, ws in by_output.items():
            rg = RequestGraph.from_wavelengths(ds.scheme, ws)
            total_opt += hk.schedule(rg).n_granted
        assert schedule.n_granted == total_opt

    def test_round_robin_rotates_across_slots(self):
        ds = DistributedScheduler(
            3,
            CircularConversion(3, 0, 0),  # identity conversion: 1 channel/λ
            BreakFirstAvailableScheduler(),
            policy=RoundRobinPolicy(),
        )
        reqs = [SlotRequest(0, 0, 0), SlotRequest(1, 0, 0), SlotRequest(2, 0, 0)]
        winners = []
        for _ in range(3):
            schedule = ds.schedule_slot(reqs)
            assert schedule.n_granted == 1
            winners.append(schedule.granted[0].request.input_fiber)
        assert winners == [0, 1, 2]

