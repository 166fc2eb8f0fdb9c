"""Scaling op times by the host-speed probes around them."""

import pytest

import run
from run import PROBE_NOMINAL_S, Episode


def test_ops_are_scaled_by_the_probes_around_them():
    nominal = PROBE_NOMINAL_S
    # Probes 0 and 1 bracket the set-up; the host then runs at half speed.
    episode = Episode(
        setup_raw_s=3.0,
        probes=[nominal, 3 * nominal, 2 * nominal, 2 * nominal, 2 * nominal, 2 * nominal],
        ops=[("tick", 0.2, 2), ("request", 0.5, 4), ("tick", 0.4, 6)],
    )
    assert episode.speed(1) == 2.0  # median of probes 0, 1 and 2
    assert episode.setup_s == pytest.approx(1.5)
    assert episode.times("tick", scaled=False) == [0.2, 0.4]
    assert episode.times("tick") == pytest.approx([0.1, 0.2])
    assert episode.times("request") == pytest.approx([0.25])
    assert episode.busy_s() == pytest.approx(0.55)
    assert episode.busy_s(scaled=False) == pytest.approx(1.1)


def test_speed_uses_only_nearby_probes():
    nominal = PROBE_NOMINAL_S
    probes = [nominal] * 4 + [4 * nominal] * 4
    episode = Episode(probes=probes)
    assert episode.speed(2) == 1.0
    assert episode.speed(6) == 4.0
    assert episode.speed(4) == 2.5  # at the switch, as many probes on each side


def test_probe_times_work_on_this_host():
    assert 0 < run.probe() < 1.0
