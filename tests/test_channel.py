"""Channel model: PER lookup, base-loss scaling, and broadcast sampling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_on
from gcnsim.channel import default_curve_points, per_at, sample
from gcnsim.geometry import unit_disk_adjacency
from gcnsim.model import ChannelSpec, Position

PKT, SENDER = object(), 99  # what a transmission hands on with each hearer


def heard(row, per, rng) -> list:
    """The ids `sample` hands to a collecting consumer, in the order it
    hands them, each with the packet and sender it was given."""
    got = []

    def take(node, pkt, sender):
        assert pkt is PKT and sender == SENDER
        got.append(node)

    assert sample(row, per, rng, take, PKT, SENDER) is None
    return got


def test_flat_per_inside_radius():
    spec = ChannelSpec(flat_per=0.25)
    assert per_at(spec, 0.0) == pytest.approx(0.25)
    assert per_at(spec, 40.0) == pytest.approx(0.25)


def test_beyond_radius_is_certain_loss(monkeypatch):
    # geometry decides range: a node just past the radius is in no neighbour
    # row and has no unit-disk edge
    positions = {0: Position(0.0, 0.0), 1: Position(40.000001, 0.0),
                 2: Position(0.0, -1000.0)}
    run = run_on(monkeypatch, positions, tx_radius=40.0)
    assert run._graph() == {0: [], 1: [], 2: []}
    assert unit_disk_adjacency(positions, 40.0) == {0: [], 1: [], 2: []}
    # so even a loss-free channel leaves every transmission unheard
    assert all(heard(run._graph()[s], run._flat_per, random.Random(0)) == []
               for s in positions)


def test_base_loss_scaling_arithmetic():
    # success = (1 - base_loss) * (1 - per): per 0.5 under 40% extra loss
    # gives success 0.6 * 0.5 = 0.3, so effective per = 0.7
    spec = ChannelSpec(flat_per=0.5, base_loss=0.4)
    assert per_at(spec, 10.0) == pytest.approx(0.7)
    # base loss alone maps a clean link to exactly that loss rate
    spec = ChannelSpec(flat_per=0.0, base_loss=0.25)
    assert per_at(spec, 10.0) == pytest.approx(0.25)
    # saturation: certain loss stays certain under scaling
    spec = ChannelSpec(flat_per=1.0, base_loss=0.3)
    assert per_at(spec, 10.0) == pytest.approx(1.0)


def test_default_curve_endpoints():
    pts = default_curve_points()
    spec = ChannelSpec(flat_per=None, curve_points=pts)
    assert per_at(spec, 5.0) == pytest.approx(0.0)
    assert per_at(spec, 20.0) == pytest.approx(0.0)
    assert per_at(spec, 60.0) == pytest.approx(1.0)
    assert 0.0 < per_at(spec, 40.0) < 1.0


def test_curve_interpolates_linearly():
    spec = ChannelSpec(flat_per=None,
                       curve_points=[(10.0, 0.0), (20.0, 1.0)])
    assert per_at(spec, 15.0) == pytest.approx(0.5)
    assert per_at(spec, 12.5) == pytest.approx(0.25)


@settings(max_examples=100, deadline=None)
@given(d1=st.floats(0.0, 100.0), d2=st.floats(0.0, 100.0),
       bl=st.floats(0.0, 1.0))
def test_per_monotone_in_distance_and_base_loss(d1, d2, bl):
    spec = ChannelSpec(flat_per=None,
                       curve_points=default_curve_points(), base_loss=bl)
    lo, hi = sorted((d1, d2))
    assert per_at(spec, lo) <= per_at(spec, hi) + 1e-12
    spec0 = ChannelSpec(flat_per=None,
                        curve_points=default_curve_points(), base_loss=0.0)
    assert per_at(spec0, d1) <= per_at(spec, d1) + 1e-12


def test_flat_per_wins_over_curve():
    spec = ChannelSpec(flat_per=0.1,
                       curve_points=[(0.0, 0.9), (100.0, 0.9)])
    assert per_at(spec, 50.0) == pytest.approx(0.1)


def test_broadcast_bernoulli_rate():
    rng = random.Random(0)
    row = [(1, per_at(ChannelSpec(flat_per=0.5), 10.0))]
    hits = sum(heard(row, None, rng) == [1] for _ in range(10000))
    assert abs(hits / 10000 - 0.5) < 0.02


def test_broadcast_deterministic_under_same_stream():
    row = [(i, 0.3) for i in range(1, 8)]
    assert heard(row, None, random.Random(42)) == heard(row, None, random.Random(42))
    # one draw per entry with 0 < per < 1, in row order; a lossless entry
    # hears without consuming a draw
    ref = random.Random(42)
    draws = [ref.random() for _ in row]
    want = [nid for (nid, per), u in zip(row, draws) if u >= per]
    rng = random.Random(42)
    got = heard(row[:3] + [(20, 0.0)] + row[3:], None, rng)
    assert got == [n for n in want if n <= 3] + [20] + [n for n in want if n > 3]
    assert rng.random() == ref.random()


def test_broadcast_excludes_out_of_range(monkeypatch):
    positions = {0: Position(0.0, 0.0), 1: Position(30.0, 0.0),
                 2: Position(-50.0, 0.0)}
    run = run_on(monkeypatch, positions, tx_radius=40.0)
    assert run._graph() == {0: [1], 1: [0], 2: []}
    assert unit_disk_adjacency(positions, 40.0) == {0: [1], 1: [0], 2: []}
    # a loss-free flat channel: every entry of the graph's row hears, and
    # nothing is drawn
    assert run._flat_per == 0.0
    rng, ref = random.Random(0), random.Random(0)
    assert heard(run._graph()[0], run._flat_per, rng) == [1]
    assert rng.getstate() == ref.getstate()
    # a curve's rows hold only entries with per < 1, and a lossless entry
    # always hears
    curve = ChannelSpec(flat_per=None, curve_points=[(30.0, 0.0), (40.0, 1.0)])
    run = run_on(monkeypatch, positions, tx_radius=40.0, channel=curve)
    assert [run._neighbor_row(s) for s in positions] == [[(1, 0.0)], [(0, 0.0)], []]
    assert heard(run._neighbor_row(0), None, random.Random(0)) == [1]


@pytest.mark.parametrize("per", [0.0, 0.3, 1.0])
def test_flat_sampling_draws_as_a_row_priced_at_the_one_per(per):
    # the same hearers and the same draws, in the same order, as a curve's
    # row priced at `per` throughout (certain loss leaves it empty)
    ids = list(range(1, 9))
    priced = [(nid, per) for nid in ids if per < 1.0]
    flat_rng, priced_rng = random.Random(7), random.Random(7)
    assert heard(ids, per, flat_rng) == heard(priced, None, priced_rng)
    assert flat_rng.getstate() == priced_rng.getstate()


def reference_hearers(row: list, per, rng: random.Random) -> list:
    """The sampling rule as a list builder: the body `channel.hearers` had
    before `sample` replaced it."""
    if per is None:
        return [node for node, p in row if p <= 0.0 or rng.random() >= p]
    if per <= 0.0:
        return row
    if per >= 1.0:
        return []
    rnd = rng.random
    return [node for node in row if rnd() >= per]


class CountingRandom(random.Random):
    """A `random.Random` that counts its `random()` draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sample_hands_on_the_reference_hearers_as_it_draws(data, seed):
    ids = data.draw(st.lists(st.integers(0, 500), max_size=30, unique=True),
                    label="ids")
    if data.draw(st.booleans(), label="curve"):
        per = None
        pers = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
            min_size=len(ids), max_size=len(ids)), label="pers")
        row = list(zip(ids, pers))
        lossy = [p > 0.0 for p in pers]
    else:
        per = data.draw(st.one_of(
            st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.just(1.0)), label="per")
        row = ids
        lossy = [0.0 < per < 1.0] * len(ids)
    ref = random.Random(seed)
    want = reference_hearers(row, per, ref)
    rng = CountingRandom(seed)
    got = []  # (id, draws made when it was handed on)
    sample(row, per, rng, lambda node, pkt, sender: got.append((node, rng.draws)),
           PKT, SENDER)
    assert [node for node, _ in got] == list(want)
    assert rng.getstate() == ref.getstate()
    # each hearer is handed on before the next entry's draw: the draws made
    # by then are those of the entries up to and including its own
    assert [draws for _, draws in got] == [sum(lossy[:ids.index(node) + 1])
                                          for node, _ in got]
