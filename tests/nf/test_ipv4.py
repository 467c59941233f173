"""Unit and property tests for the IPv4 forwarder."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.net.batch import PacketBatch
from repro.net.packet import IPv4Header, Packet, ipv4_to_int
from repro.nf.ipv4 import IPv4Forwarder, IPv4Lookup, LPMTrie


class TestLPMTrie:
    def test_empty_trie_misses(self):
        assert LPMTrie().lookup(ipv4_to_int("1.2.3.4")) is None

    def test_default_route(self):
        trie = LPMTrie()
        trie.insert(0, 0, 99)
        assert trie.lookup(ipv4_to_int("8.8.8.8")) == 99

    def test_longest_prefix_wins(self):
        trie = LPMTrie()
        trie.insert(ipv4_to_int("10.0.0.0"), 8, 1)
        trie.insert(ipv4_to_int("10.1.0.0"), 16, 2)
        trie.insert(ipv4_to_int("10.1.2.0"), 24, 3)
        assert trie.lookup(ipv4_to_int("10.9.9.9")) == 1
        assert trie.lookup(ipv4_to_int("10.1.9.9")) == 2
        assert trie.lookup(ipv4_to_int("10.1.2.9")) == 3

    def test_exact_host_route(self):
        trie = LPMTrie()
        trie.insert(ipv4_to_int("1.1.1.1"), 32, 7)
        assert trie.lookup(ipv4_to_int("1.1.1.1")) == 7
        assert trie.lookup(ipv4_to_int("1.1.1.2")) is None

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            LPMTrie().insert(0, 33, 1)

    def test_reinsert_updates_next_hop_without_count(self):
        trie = LPMTrie()
        trie.insert(ipv4_to_int("10.0.0.0"), 8, 1)
        trie.insert(ipv4_to_int("10.0.0.0"), 8, 2)
        assert trie.prefix_count == 1
        assert trie.lookup(ipv4_to_int("10.5.5.5")) == 2

    def test_lookup_with_depth(self):
        trie = LPMTrie()
        trie.insert(ipv4_to_int("10.0.0.0"), 8, 1)
        hop, depth = trie.lookup_with_depth(ipv4_to_int("10.0.0.1"))
        assert hop == 1
        assert depth >= 8

    def test_random_table_reproducible(self):
        a = LPMTrie.random_table(prefix_count=100, seed=1)
        b = LPMTrie.random_table(prefix_count=100, seed=1)
        address = ipv4_to_int("123.45.67.89")
        assert a.lookup(address) == b.lookup(address)
        assert a.prefix_count == 100

    def test_random_table_has_default(self):
        trie = LPMTrie.random_table(prefix_count=50)
        assert trie.lookup(ipv4_to_int("203.0.113.99")) is not None


def _brute_force_lookup(prefixes, address):
    """Reference LPM: scan all prefixes, take the longest match."""
    best = None
    best_len = -1
    for prefix, length, hop in prefixes:
        if length == 0 or (address >> (32 - length)) == (prefix >> (32 - length)):
            if length > best_len:
                best_len = length
                best = hop
    return best


@given(
    prefixes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            st.integers(min_value=0, max_value=32),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=0, max_size=40,
    ),
    address=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
@settings(max_examples=150)
def test_lpm_matches_brute_force(prefixes, address):
    trie = LPMTrie()
    canonical = []
    seen = {}
    for prefix, length, hop in prefixes:
        masked = prefix & (~((1 << (32 - length)) - 1) & 0xFFFFFFFF) \
            if length < 32 else prefix
        trie.insert(masked, length, hop)
        seen[(masked, length)] = hop  # later insert wins, as in the trie
    canonical = [(p, l, h) for (p, l), h in seen.items()]
    assert trie.lookup(address) == _brute_force_lookup(canonical, address)


class TestIPv4Lookup:
    def test_annotates_next_hop_and_rewrites_mac(self):
        trie = LPMTrie()
        trie.insert(0, 0, 5)
        element = IPv4Lookup(trie)
        packet = Packet(ip=IPv4Header(dst="9.9.9.9"))
        element.push(PacketBatch([packet]))
        assert packet.annotations["next_hop"] == 5
        assert packet.eth.dst_mac.endswith(":05")

    def test_no_route_drops(self):
        element = IPv4Lookup(LPMTrie())
        packet = Packet(ip=IPv4Header(dst="9.9.9.9"))
        out = element.push(PacketBatch([packet]))
        assert packet.dropped
        assert len(out[0].live_packets) == 0

    def test_signature_keyed_by_table_id(self):
        trie = LPMTrie()
        assert IPv4Lookup(trie, table_id="t").signature() == \
            IPv4Lookup(trie, table_id="t").signature()

    def test_cost_hints_expose_table_size(self):
        trie = LPMTrie.random_table(prefix_count=64)
        assert IPv4Lookup(trie).cost_hints()["table_prefixes"] == 64.0


class TestIPv4ForwarderNF:
    def test_forwards_all_routable_packets(self, generator):
        forwarder = IPv4Forwarder()
        packets = list(generator.packets(32))
        out = forwarder.process_packets(packets)
        assert len(out) == 32
        assert all("next_hop" in p.annotations for p in out)

    def test_ttl_decremented(self, generator):
        forwarder = IPv4Forwarder()
        packet = next(generator.packets(1))
        original_ttl = packet.ip.ttl
        out = forwarder.process_packets([packet])
        assert out[0].ip.ttl == original_ttl - 1


class TestLPMTrieClone:
    """``LPMTrie.__deepcopy__`` builds an independent trie iteratively
    (what ``ElementGraph.clone`` pays for every IPv4 graph)."""

    def test_clone_matches_original(self):
        import copy
        import random
        trie = LPMTrie.random_table(prefix_count=2048, seed=11)
        clone = copy.deepcopy(trie)
        assert clone.prefix_count == trie.prefix_count
        rng = random.Random(5)
        for _ in range(2000):
            address = rng.getrandbits(32)
            assert clone.lookup_with_depth(address) == \
                trie.lookup_with_depth(address)

    def test_insert_into_clone_leaves_original_unchanged(self):
        import copy
        trie = LPMTrie()
        trie.insert(ipv4_to_int("10.0.0.0"), 8, 1)
        clone = copy.deepcopy(trie)
        clone.insert(ipv4_to_int("10.1.0.0"), 16, 2)
        clone.insert(ipv4_to_int("10.0.0.0"), 8, 3)
        assert clone.prefix_count == 2
        assert trie.prefix_count == 1
        assert trie.lookup_with_depth(ipv4_to_int("10.1.2.3")) == (1, 8)
        assert clone.lookup_with_depth(ipv4_to_int("10.1.2.3")) == (2, 16)

    def test_shared_trie_stays_shared_in_graph_clone(self):
        from repro.elements.graph import ElementGraph
        trie = LPMTrie.random_table(prefix_count=64)
        graph = ElementGraph(name="two-lookups")
        graph.chain(IPv4Lookup(trie, name="a"), IPv4Lookup(trie, name="b"))
        clone = graph.clone()
        cloned_trie = clone.element("a").table
        assert cloned_trie is clone.element("b").table
        assert cloned_trie is not trie
        assert cloned_trie.prefix_count == trie.prefix_count

    def test_cloned_ipv4_chain_profiles_like_the_original(self):
        from repro.nf.base import ServiceFunctionChain
        from repro.nf.catalog import make_nf
        from repro.sim.engine import BranchProfile
        from repro.traffic.generator import TrafficSpec

        graph = ServiceFunctionChain(
            [make_nf(t) for t in ("ipv4", "ipsec", "ipv6")]
        ).concatenated_graph()
        spec = TrafficSpec(offered_gbps=10.0, seed=3)
        cloned = BranchProfile.measure(graph.clone(), spec,
                                       sample_packets=256, batch_size=64)
        assert all(graph.element(n).packets_processed == 0
                   for n in graph.nodes)
        direct = BranchProfile.measure(graph, spec, sample_packets=256,
                                       batch_size=64)
        assert cloned == direct
