"""Unit tests for JobConfig and the cluster profiles."""

import pytest

from repro.core.config import (
    AMAZON_CLUSTER,
    CpuModel,
    JobConfig,
    LOCAL_CLUSTER,
    MODES,
)


class TestJobConfig:
    def test_defaults(self):
        cfg = JobConfig()
        assert cfg.mode == "hybrid"
        assert cfg.num_workers == 5
        assert cfg.graph_on_disk is True
        assert cfg.cluster is LOCAL_CLUSTER

    def test_all_modes_accepted(self):
        for mode in MODES:
            assert JobConfig(mode=mode).mode == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            JobConfig(mode="teleport")

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            JobConfig(num_workers=0)

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            JobConfig(partition="vertex-cut")

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            JobConfig(switching_interval=0)

    def test_total_message_buffer(self):
        cfg = JobConfig(num_workers=4, message_buffer_per_worker=100)
        assert cfg.total_message_buffer == 400
        assert JobConfig(message_buffer_per_worker=None).total_message_buffer is None
        with pytest.raises(ValueError, match="message_buffer_per_worker"):
            JobConfig(message_buffer_per_worker=-3)

    def test_memory_sufficient(self):
        assert JobConfig(
            message_buffer_per_worker=None, graph_on_disk=False
        ).memory_sufficient
        assert not JobConfig(message_buffer_per_worker=10).memory_sufficient
        assert not JobConfig(graph_on_disk=True).memory_sufficient

    def test_lru_capacity_falls_back_to_buffer(self):
        cfg = JobConfig(message_buffer_per_worker=123)
        assert cfg.lru_capacity() == 123
        cfg = cfg.but(lru_capacity_vertices=7)
        assert cfg.lru_capacity() == 7
        with pytest.raises(ValueError, match="lru_capacity_vertices"):
            cfg.but(lru_capacity_vertices=-3)

    def test_but_replaces_fields(self):
        cfg = JobConfig(mode="push")
        other = cfg.but(mode="bpull", num_workers=2)
        assert other.mode == "bpull"
        assert other.num_workers == 2
        assert cfg.mode == "push"  # original untouched


class TestCpuModel:
    def test_seconds_linear(self):
        cpu = CpuModel(update=1.0, per_message=2.0, per_edge=4.0,
                       sortmerge_per_spilled_message=8.0, per_lru_miss=16.0,
                       speed=1.0)
        assert cpu.seconds(updates=1, messages=1, edges=1, spilled=1,
                           lru_misses=1) == pytest.approx(31.0)

    def test_speed_scales_down(self):
        fast = CpuModel(update=1.0, speed=2.0)
        assert fast.seconds(updates=4) == pytest.approx(2.0)

    def test_amazon_cpu_slower(self):
        assert AMAZON_CLUSTER.cpu.speed < LOCAL_CLUSTER.cpu.speed

    def test_with_cpu_override(self):
        cluster = LOCAL_CLUSTER.with_cpu(speed=0.25)
        assert cluster.cpu.speed == 0.25
        assert LOCAL_CLUSTER.cpu.speed == 1.0
