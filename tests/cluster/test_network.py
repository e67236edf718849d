"""Unit tests for the simulated network."""

import pytest

from repro.cluster.network import PACKAGE_SETUP_SECONDS, SimulatedNetwork
from repro.storage.disk import HDD_PROFILE


def make(num_workers=3, threshold=1000, request_bytes=8):
    return SimulatedNetwork(num_workers, HDD_PROFILE, threshold,
                            request_bytes)


class TestSimulatedNetwork:
    def test_remote_transfer_counts_bytes(self):
        net = make()
        net.begin_superstep(1)
        net.transfer(0, 1, 500, units=10)
        stats = net.end_superstep()
        assert stats.bytes_out[0] == 500
        assert stats.bytes_in[1] == 500
        assert stats.transfer_units == 10

    def test_local_transfer_free_but_units_counted(self):
        net = make()
        net.begin_superstep(1)
        net.transfer(1, 1, 500, units=10)
        stats = net.end_superstep()
        assert stats.total_bytes == 0
        assert stats.transfer_units == 10

    def test_requests_count_and_remote_bytes(self):
        net = make()
        net.begin_superstep(1)
        net.send_request(0, 0)  # local: free
        net.send_request(0, 1)  # remote: 8 bytes
        stats = net.end_superstep()
        assert stats.requests == 2
        assert stats.total_bytes == 8

    def test_packages_ceil_by_threshold(self):
        net = make(threshold=100)
        net.begin_superstep(1)
        net.transfer(0, 1, 250, units=1)
        stats = net.end_superstep()
        assert stats.packages == 3

    def test_flows_accumulate(self):
        net = make(threshold=100)
        net.begin_superstep(1)
        net.transfer(0, 1, 60, units=1)
        net.transfer(0, 1, 60, units=1)
        stats = net.end_superstep()
        assert stats.bytes_out[0] == 120
        assert stats.packages == 2  # one flow of 120 bytes
        # the bulk entry adds to open flows in place and opens new ones
        # in the order given, after them
        net.begin_superstep(2)
        net.transfer(2, 1, 10, units=1)
        net.send_request(0, 2)
        net.add_traffic(5, 7, [((1, 0), 30), ((0, 2), 4), ((2, 0), 9)])
        assert list(net._flows.items()) == [
            ((2, 1), 10), ((0, 2), 12), ((1, 0), 30), ((2, 0), 9),
        ]
        stats = net.end_superstep()
        assert (stats.requests, stats.transfer_units) == (6, 8)

    def test_worker_seconds_include_package_setup(self):
        net = make(threshold=100)
        net.begin_superstep(1)
        net.transfer(0, 1, 1000, units=1)
        stats = net.end_superstep()
        assert stats.worker_seconds[0] >= 10 * PACKAGE_SETUP_SECONDS

    def test_larger_threshold_fewer_packages_longer_tail(self):
        small = make(threshold=100)
        small.begin_superstep(1)
        small.transfer(0, 1, 10_000, units=1)
        s_small = small.end_superstep()
        big = make(threshold=10_000)
        big.begin_superstep(1)
        big.transfer(0, 1, 10_000, units=1)
        s_big = big.end_superstep()
        assert s_big.packages < s_small.packages

    def test_receiver_time_counted(self):
        net = make()
        net.begin_superstep(1)
        net.transfer(0, 1, 10**6, units=1)
        stats = net.end_superstep()
        assert stats.worker_seconds[1] > 0
        assert stats.worker_seconds[2] == 0.0

    def test_timeline_records_superstep_totals(self):
        net = make()
        net.begin_superstep(1)
        net.transfer(0, 1, 100, units=1)
        net.end_superstep()
        net.begin_superstep(2)
        net.transfer(1, 2, 200, units=1)
        net.end_superstep()
        assert net.timeline == [(1, 100), (2, 200)]

    def test_begin_superstep_resets_flows(self):
        net = make()
        net.begin_superstep(1)
        net.transfer(0, 1, 100, units=1)
        net.end_superstep()
        net.begin_superstep(2)
        stats = net.end_superstep()
        assert stats.total_bytes == 0

    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            make(threshold=0)
