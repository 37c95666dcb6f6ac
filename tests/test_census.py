import hashlib
from collections import Counter

import pytest

import uncluttered as U
from uncluttered import InputError, census as census_module
from uncluttered.census import MAX_CENSUS_N, _extension_masks
from uncluttered.graph import invariant_key

from oracles import automorphism_group, random_graph


def test_level_sizes_match_the_known_table(census):
    for n, reps in census.items():
        assert len(reps) == U.GRAPH_COUNTS[n]


def test_levels_are_sorted_and_well_formed(census):
    for n, reps in census.items():
        assert all(g.n == n for g in reps)
        labels = [U.to_graph6(g) for g in reps]
        assert labels == sorted(labels)
        assert len(set(labels)) == len(labels)


def test_no_two_representatives_are_isomorphic(census):
    for n in range(7):
        reps = census[n]
        for i, g in enumerate(reps):
            for h in reps[i + 1:]:
                assert not U.are_isomorphic(g, h)


def test_every_random_graph_has_a_representative(census, rng):
    reps = {invariant_key(g): g for g in census[6]}
    for _ in range(200):
        g = random_graph(rng, 6, rng.choice((0.2, 0.5, 0.8)))
        assert U.are_isomorphic(g, reps[invariant_key(g)])


# SHA-256 of the newline-joined graph6 labels of enumerate_graphs(n), in
# order, taken when the census still deduplicated by bucket and backtracking.
CENSUS_LABEL_SHA256 = {
    0: "8a8de823d5ed3e12746a62ef169bcf372be0ca44f0a1236abc35df05d96928e1",
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "f8457640c4aefa16c983bba1ff22c74d2ff5a3b6ca5c176f26be4da6126ed53a",
    4: "b2592c27e1b1a3b7068e7c05f4e52a54aa7297c39d3533b001a45506481d5a64",
    5: "f23ddc0a79b1dc5ba27da149ecd5ed1f5029da44b2afdddf08ffe24e04a6e1d8",
    6: "6f3be843607725554ff27482c515b5a7aeb2f89a62af124924bac767fa433073",
    7: "9451b7046977c3da8719fa89001a965f3a9352154698d7ccf7ce46bd0a3ab473",
    8: "61af44afe6b6ad2181dcda1e62443d20d4d1c4154343aabff33ebf52e22de94c",
}


def test_census_labels_are_frozen():
    for n, want in CENSUS_LABEL_SHA256.items():
        labels = "\n".join(U.to_graph6(g) for g in U.enumerate_graphs(n))
        assert hashlib.sha256(labels.encode()).hexdigest() == want, n


def _image(mask, gamma):
    return sum(1 << gamma[v] for v in range(len(gamma)) if mask >> v & 1)


def test_census_tries_the_least_mask_of_each_orbit(census):
    for n in range(7):
        for parent in census[n]:
            group = automorphism_group(parent)
            least = [mask for mask in range(1 << n)
                     if all(_image(mask, gamma) >= mask for gamma in group)]
            assert list(_extension_masks(parent)) == least, U.to_graph6(parent)


# Canonical keys computed per level n = 1..8: the orbits of neighbourhood
# masks under the parents' full automorphism groups.  A weaker generator set
# keeps the labels (the first candidate of each class survives any pruning
# by automorphisms) and shows only here, as more candidates.
CANDIDATES = (1, 2, 6, 20, 90, 544, 5096, 79264)


def test_candidate_counts_are_pinned(monkeypatch):
    keyed = Counter()
    key = census_module.invariant_key

    def counting_key(g):
        keyed[g.n] += 1
        return key(g)

    monkeypatch.setattr(census_module, "invariant_key", counting_key)
    monkeypatch.setattr(census_module, "_cache", {})
    parents = U.enumerate_graphs(7)
    assert [keyed[n] for n in range(1, 8)] == list(CANDIDATES[:7])
    assert sum(len(_extension_masks(p)) for p in parents) == CANDIDATES[7]


def test_cap_and_validation():
    with pytest.raises(InputError):
        U.enumerate_graphs(-1)
    with pytest.raises(InputError):
        U.enumerate_graphs(MAX_CENSUS_N + 1)
    for bad in (True, False, 3.0, "3", None):
        with pytest.raises(InputError):
            U.enumerate_graphs(bad)
