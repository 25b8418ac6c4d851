"""Max-min fair sharing: network water-filling, executor and disk splits."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Topology, uniform_cluster
from repro.simulator.fairshare import (
    _maxmin_small,
    compute_shares,
    disk_shares,
    maxmin_class_rates,
    maxmin_network_rates,
)
from repro.simulator.flows import ComputeDemand, DiskWrite, NetworkFlow


def topo(workers=3, nic=80.0, storage=1):
    cluster = uniform_cluster(workers, nic_mbps=nic * 8 / 1e6 * 2**0, storage_nodes=storage)
    # Build topology with explicit byte/s capacities for readable math.
    t = Topology(cluster)
    t.egress_capacity[:] = nic
    t.ingress_capacity[:] = nic
    return t


def flow(src, dst, cap=math.inf):
    return NetworkFlow(src, dst, volume=1.0, stage_key=("j", "s"), rate_cap=cap)


def test_single_flow_gets_min_endpoint():
    t = topo()
    t.egress_capacity[t.index["hdfs0"]] = 50.0
    rates = maxmin_network_rates([flow("hdfs0", "w0")], t)
    assert rates[0] == pytest.approx(50.0)


def test_two_flows_share_common_egress():
    t = topo()
    rates = maxmin_network_rates([flow("hdfs0", "w0"), flow("hdfs0", "w1")], t)
    assert rates[0] == pytest.approx(40.0)
    assert rates[1] == pytest.approx(40.0)


def test_two_flows_share_common_ingress():
    t = topo()
    rates = maxmin_network_rates([flow("w1", "w0"), flow("w2", "w0")], t)
    assert np.allclose(rates, 40.0)


def test_disjoint_flows_get_full_rate():
    t = topo()
    rates = maxmin_network_rates([flow("w0", "w1"), flow("w2", "hdfs0")], t)
    assert np.allclose(rates, 80.0)


def test_water_filling_redistributes():
    """Three flows from one egress; one also ingress-constrained lower.

    w0 egress 90 shared by 3 flows -> fair 30 each; flow to w1 capped
    at 10 by w1's ingress -> the released 20 goes to the other two.
    """
    t = topo()
    t.egress_capacity[t.index["w0"]] = 90.0
    t.ingress_capacity[t.index["w1"]] = 10.0
    flows = [flow("w0", "w1"), flow("w0", "w2"), flow("w0", "hdfs0")]
    rates = maxmin_network_rates(flows, t)
    assert rates[0] == pytest.approx(10.0)
    assert rates[1] == pytest.approx(40.0)
    assert rates[2] == pytest.approx(40.0)


def test_rate_cap_respected_and_redistributed():
    t = topo()
    flows = [flow("w0", "w1", cap=5.0), flow("w0", "w2")]
    rates = maxmin_network_rates(flows, t)
    assert rates[0] == pytest.approx(5.0)
    assert rates[1] == pytest.approx(75.0)


def test_zero_cap_flow_gets_zero():
    t = topo()
    flows = [flow("w0", "w1", cap=0.0), flow("w0", "w2")]
    rates = maxmin_network_rates(flows, t)
    assert rates[0] == 0.0
    assert rates[1] == pytest.approx(80.0)


def test_empty_flows():
    assert maxmin_network_rates([], topo()).size == 0


def test_pair_capacity_override():
    t = topo()
    t.set_pair_capacity("w0", "w1", 7.0)
    rates = maxmin_network_rates([flow("w0", "w1")], t)
    assert rates[0] == pytest.approx(7.0)


def test_numpy_and_small_paths_agree():
    """The vectorized and dict-based water-filling must match."""
    rng = np.random.default_rng(0)
    t = topo(workers=4)
    nodes = t.node_ids
    flows = []
    for _ in range(40):  # > 32 triggers the numpy path
        a, b = rng.choice(len(nodes), size=2, replace=False)
        cap = math.inf if rng.random() < 0.7 else float(rng.uniform(1, 60))
        flows.append(flow(nodes[a], nodes[b], cap=cap))
    big = maxmin_network_rates(flows, t)
    small = maxmin_network_rates(flows[:20], t)
    from repro.simulator.fairshare import _maxmin_small

    assert np.allclose(big[:0].size, 0) or True
    assert np.allclose(small, _maxmin_small(flows[:20], t), rtol=1e-9)
    assert np.allclose(big, _maxmin_small(flows, t), rtol=1e-9)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_maxmin_feasible_and_saturating(n_flows, seed):
    """Property: allocation never exceeds capacities, and every flow is
    bottlenecked somewhere (cap, egress, or ingress saturated)."""
    rng = np.random.default_rng(seed)
    t = topo(workers=4)
    nodes = t.node_ids
    flows = []
    for _ in range(n_flows):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        cap = math.inf if rng.random() < 0.8 else float(rng.uniform(0.5, 100))
        flows.append(flow(nodes[a], nodes[b], cap=cap))
    rates = maxmin_network_rates(flows, t)

    egress_used = {n: 0.0 for n in nodes}
    ingress_used = {n: 0.0 for n in nodes}
    for f, r in zip(flows, rates):
        assert r >= -1e-9
        assert r <= f.rate_cap + 1e-6
        egress_used[f.src] += r
        ingress_used[f.dst] += r
    for n in nodes:
        assert egress_used[n] <= 80.0 + 1e-6
        assert ingress_used[n] <= 80.0 + 1e-6
    # Bottleneck property: each flow hits its cap or a saturated link.
    for f, r in zip(flows, rates):
        at_cap = r >= f.rate_cap - 1e-6
        egress_sat = egress_used[f.src] >= 80.0 - 1e-6
        ingress_sat = ingress_used[f.dst] >= 80.0 - 1e-6
        assert at_cap or egress_sat or ingress_sat


# --------------------------------------------------------------------- #
# class water-filling: flows grouped by (src, dst) pair


@st.composite
def _flow_multisets(draw):
    """A cluster of 2-12 nodes with heterogeneous NICs (repeated values
    included, so bottlenecks tie) and a multiset of up to 80 (src, dst)
    pairs over it."""
    n_nodes = draw(st.integers(2, 12))
    capacity = st.one_of(
        st.sampled_from([12.5e6, 50e6, 125e6, 250e6]),
        st.floats(1e6, 250e6, allow_nan=False, allow_infinity=False),
    )
    caps = draw(st.lists(capacity, min_size=2 * n_nodes, max_size=2 * n_nodes))
    t = Topology(uniform_cluster(n_nodes - 1, storage_nodes=1))
    t.egress_capacity[:] = caps[:n_nodes]
    t.ingress_capacity[:] = caps[n_nodes:]
    pair = st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1))
    # Half the cases exceed 32 flows, where the numpy path takes over.
    n_flows = draw(st.one_of(st.integers(1, 32), st.integers(33, 80)))
    pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]),
                          min_size=n_flows, max_size=n_flows))
    flows = [flow(t.node_ids[a], t.node_ids[b]) for a, b in pairs]
    return t, flows


def _class_rates(flows, t):
    """Per-flow rates from one class solve over ``flows``' pairs."""
    counts = collections.Counter((f.src, f.dst) for f in flows)
    pairs = list(counts)
    rates = maxmin_class_rates(
        [t.index[s] for s, _ in pairs], [t.index[d] for _, d in pairs],
        [counts[p] for p in pairs], t,
    )
    by_pair = dict(zip(pairs, rates))
    return [by_pair[(f.src, f.dst)] for f in flows]


@settings(max_examples=150, deadline=None)
@given(_flow_multisets())
def test_class_water_filling_equals_per_flow_solvers(case):
    """Bit-identical to both per-flow paths: the pure-Python one at any
    size, and the numpy one (which it takes above 32 flows)."""
    t, flows = case
    rates = _class_rates(flows, t)
    assert rates == _maxmin_small(flows, t)
    if len(flows) > 32:
        assert rates == maxmin_network_rates(flows, t).tolist()


@settings(max_examples=100, deadline=None)
@given(_flow_multisets(), st.randoms(use_true_random=False))
def test_water_filling_invariant_under_flow_order(case, rnd):
    t, flows = case
    shuffled = list(flows)
    rnd.shuffle(shuffled)
    expected = dict(zip(map(id, flows), _maxmin_small(flows, t)))
    assert _maxmin_small(shuffled, t) == [expected[id(f)] for f in shuffled]
    assert _class_rates(shuffled, t) == [expected[id(f)] for f in shuffled]
    if len(flows) > 32:
        numpy_rates = maxmin_network_rates(shuffled, t).tolist()
        assert numpy_rates == [expected[id(f)] for f in shuffled]


def test_class_water_filling_counts_multiplicity():
    """Three flows of one pair share its NICs three ways; the lone flow
    of another pair keeps the rest of the shared egress."""
    t = topo()
    w0, w1, w2 = (t.index[n] for n in ("w0", "w1", "w2"))
    assert maxmin_class_rates([w0, w0], [w1, w2], [3, 1], t) == [20.0, 20.0]
    t.ingress_capacity[w1] = 30.0
    t.invalidate()
    assert maxmin_class_rates([w0, w0], [w1, w2], [3, 1], t) == [10.0, 50.0]


def test_class_water_filling_rejects_capped_topologies():
    t = topo()
    t.set_pair_capacity("w0", "w1", 7.0)
    with pytest.raises(ValueError, match="uncapped"):
        maxmin_class_rates([t.index["w0"]], [t.index["w1"]], [1], t)


def test_compute_shares_equal_split():
    demands = [
        ComputeDemand("w0", 100.0, ("j", "a"), process_rate=10.0),
        ComputeDemand("w0", 100.0, ("j", "b"), process_rate=20.0),
    ]
    compute_shares(demands, {"w0": 4})
    assert demands[0].executor_share == pytest.approx(2.0)
    assert demands[0].rate == pytest.approx(20.0)
    assert demands[1].rate == pytest.approx(40.0)


def test_compute_shares_single_stage_gets_all():
    d = ComputeDemand("w0", 100.0, ("j", "a"), process_rate=10.0)
    compute_shares([d], {"w0": 3})
    assert d.rate == pytest.approx(30.0)


def test_compute_shares_unknown_node_raises():
    d = ComputeDemand("w9", 1.0, ("j", "a"), process_rate=1.0)
    with pytest.raises(ValueError, match="no executors"):
        compute_shares([d], {"w0": 2})


def test_disk_shares_split():
    writes = [
        DiskWrite("w0", 10.0, ("j", "a")),
        DiskWrite("w0", 10.0, ("j", "b")),
        DiskWrite("w1", 10.0, ("j", "a")),
    ]
    disk_shares(writes, {"w0": 100.0, "w1": 50.0})
    assert writes[0].rate == pytest.approx(50.0)
    assert writes[1].rate == pytest.approx(50.0)
    assert writes[2].rate == pytest.approx(50.0)


def test_disk_shares_missing_node():
    with pytest.raises(ValueError):
        disk_shares([DiskWrite("w9", 1.0, ("j", "a"))], {"w0": 10.0})
