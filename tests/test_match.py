"""The ``repro.match`` core: bitsets, sketches, indexes, and the engine.

Three contracts are pinned here:

- the Jaccard contract (bounds, symmetry, identity, empty-set rules)
  holds identically for the set reference ``set_jaccard`` and the
  popcount ``FingerprintVector.jaccard``;
- exactness: seeded fuzz proves sketch candidate generation is a
  *superset* of every pair at or above any positive threshold, and that
  ``SimilarityIndex.query``/``all_pairs`` return exactly what a
  brute-force scan returns;
- engine equivalence: ``exact`` and ``sketch`` modes produce
  byte-identical (canonical-digest-equal) analysis results.
"""

import random
from itertools import combinations

import pytest

from repro.core import sharing
from repro.match import (CorpusIndex, FeatureSpace, FingerprintVector,
                         MatchEngine, MinHasher, SimilarityIndex,
                         SketchParams, active_mode, engine_mode,
                         fingerprint_tokens, seed_for_config,
                         set_default_mode, set_jaccard, shared_engine)
from repro.match.synth import (random_universe, scaled_fingerprints,
                               scaled_vendor_sets)
from repro.match.vector import _popcount_compat, popcount
from repro.verify.canonical import digest


def brute_force_pairs(sets, threshold):
    """Reference all-pairs scan with plain-set Jaccard."""
    results = [(set_jaccard(sets[a], sets[b]), a, b)
               for a, b in combinations(sorted(sets), 2)
               if set_jaccard(sets[a], sets[b]) >= threshold]
    results.sort(key=lambda row: (-row[0], row[1], row[2]))
    return results


class TestPopcountAndVector:
    def test_popcount_implementations_agree(self):
        rng = random.Random(0)
        for _ in range(200):
            value = rng.getrandbits(rng.randint(1, 300))
            assert popcount(value) == _popcount_compat(value)
        assert popcount(0) == 0

    def test_vector_set_algebra_matches_sets(self):
        rng = random.Random(1)
        space = FeatureSpace()
        for _ in range(50):
            a = set(rng.sample(range(100), rng.randint(0, 40)))
            b = set(rng.sample(range(100), rng.randint(0, 40)))
            va = FingerprintVector.from_tokens(a, space)
            vb = FingerprintVector.from_tokens(b, space)
            assert va.count == len(a)
            assert va.intersection_count(vb) == len(a & b)
            assert va.union_count(vb) == len(a | b)
            assert va.jaccard(vb) == set_jaccard(a, b)

    def test_from_fingerprint_round_trips_tokens(self):
        space = FeatureSpace()
        fp = (0x0303, (0x2F, 0x35), (0, 11, 35))
        vector = FingerprintVector.from_fingerprint(fp, space)
        assert vector.tokens() == fingerprint_tokens(fp)
        assert vector.count == 1 + 2 + 3

    def test_suite_and_extension_codes_stay_distinct(self):
        # Suite 11 and extension 11 must be different features.
        space = FeatureSpace()
        only_suite = FingerprintVector.from_fingerprint(
            (0x0303, (11,), ()), space)
        only_ext = FingerprintVector.from_fingerprint(
            (0x0303, (), (11,)), space)
        assert only_suite.intersection_count(only_ext) == 1  # version
        assert only_suite.union_count(only_ext) == 3

    def test_cross_space_comparison_rejected(self):
        va = FingerprintVector.from_tokens({1}, FeatureSpace())
        vb = FingerprintVector.from_tokens({1}, FeatureSpace())
        with pytest.raises(ValueError, match="FeatureSpace"):
            va.jaccard(vb)


def _vector_jaccard(a, b):
    space = FeatureSpace()
    return FingerprintVector.from_tokens(a, space).jaccard(
        FingerprintVector.from_tokens(b, space))


#: every implementation bound to the one pinned Jaccard contract.
JACCARD_IMPLS = [
    pytest.param(set_jaccard, id="set_jaccard"),
    pytest.param(_vector_jaccard, id="FingerprintVector"),
]


@pytest.mark.parametrize("impl", JACCARD_IMPLS)
class TestJaccardContract:
    def test_two_empty_sets(self, impl):
        assert impl(set(), set()) == 0.0

    def test_one_empty_set(self, impl):
        assert impl(set(), {1, 2}) == 0.0
        assert impl({1, 2}, set()) == 0.0

    def test_identical_set_is_one(self, impl):
        assert impl({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_symmetry_and_bounds(self, impl):
        rng = random.Random(3)
        for _ in range(25):
            a = set(rng.sample(range(40), rng.randint(0, 15)))
            b = set(rng.sample(range(40), rng.randint(0, 15)))
            forward, backward = impl(a, b), impl(b, a)
            assert forward == backward
            assert 0.0 <= forward <= 1.0

    def test_agrees_with_reference(self, impl):
        rng = random.Random(4)
        for _ in range(25):
            a = set(rng.sample(range(40), rng.randint(0, 15)))
            b = set(rng.sample(range(40), rng.randint(0, 15)))
            assert impl(a, b) == set_jaccard(a, b)


class TestSketch:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="divide"):
            SketchParams(num_hashes=64, bands=13)
        with pytest.raises(ValueError, match=">= 1"):
            SketchParams(num_hashes=0)
        assert SketchParams(num_hashes=64, bands=16).rows == 4

    def test_collision_probability_monotone(self):
        params = SketchParams()
        probabilities = [params.collision_probability(s / 10)
                        for s in range(11)]
        assert probabilities == sorted(probabilities)
        assert probabilities[0] == 0.0
        assert probabilities[-1] == pytest.approx(1.0)

    def test_signatures_deterministic_across_instances(self):
        positions = [3, 17, 42]
        one = MinHasher(seed=9).signature(positions)
        two = MinHasher(seed=9).signature(positions)
        assert one == two
        assert MinHasher(seed=10).signature(positions) != one

    def test_identical_sets_estimate_one(self):
        hasher = MinHasher(seed=0)
        signature = hasher.signature([1, 5, 9])
        assert hasher.estimate(signature, signature) == 1.0

    def test_empty_set_signature_is_sentinel(self):
        hasher = MinHasher(seed=0)
        empty = hasher.signature([])
        assert len(set(empty)) == 1
        assert hasher.estimate(empty, hasher.signature([])) == 1.0


class TestSimilarityIndexExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_candidates_superset_and_queries_exact(self, seed):
        # The satellite fuzz contract: for random universes, sketch
        # candidate pairs ⊇ every pair ≥ threshold, and query/all_pairs
        # equal brute force exactly.
        sets = random_universe(50, universe=120, seed=seed)
        index = SimilarityIndex(seed=seed)
        for item, tokens in sets.items():
            index.add(item, tokens)
        candidates = index.candidate_pairs()
        for threshold in (0.1, 0.3, 0.5, 0.9):
            brute = brute_force_pairs(sets, threshold)
            assert {(a, b) for s, a, b in brute} <= candidates
            assert index.all_pairs(threshold) == brute
        for item in list(sets)[:10]:
            expected = sorted(
                ((set_jaccard(sets[item], sets[other]), other)
                 for other in sets
                 if set_jaccard(sets[item], sets[other]) >= 0.4),
                key=lambda hit: (-hit[0], hit[1]))
            assert index.query(sets[item], 0.4) == expected

    def test_all_pairs_threshold_zero_includes_disjoint(self):
        index = SimilarityIndex()
        index.add("a", {1, 2})
        index.add("b", {3, 4})
        assert index.all_pairs(0.0) == [(0.0, "a", "b")]
        assert index.all_pairs(0.1) == []

    def test_query_limit_and_order(self):
        index = SimilarityIndex()
        index.add("far", {1, 9})
        index.add("near", {1, 2, 3})
        index.add("exactly", {1, 2, 3, 4})
        hits = index.query({1, 2, 3, 4}, threshold=0.2, limit=2)
        assert hits == [(1.0, "exactly"), (0.75, "near")]

    def test_duplicate_id_rejected(self):
        index = SimilarityIndex()
        index.add("a", {1})
        with pytest.raises(ValueError, match="already indexed"):
            index.add("a", {2})

    def test_incremental_add_keeps_sketches_consistent(self):
        # Forcing sketch construction early must not desync later adds.
        sets = random_universe(30, seed=11)
        items = sorted(sets)
        index = SimilarityIndex(seed=11)
        for item in items[:10]:
            index.add(item, sets[item])
        index.signature(items[0])  # builds sketches mid-stream
        for item in items[10:]:
            index.add(item, sets[item])
        assert index.all_pairs(0.3) == brute_force_pairs(sets, 0.3)


class TestCorpusIndex:
    def test_match_parity_with_linear_corpus(self, corpus, dataset):
        index = CorpusIndex(corpus)
        seen_keys = {entry.key() for entry in corpus}
        for key in seen_keys:
            assert index.match(*key) == corpus.match(*key)
        for fp in dataset.fingerprints():
            assert index.match(*fp) == corpus.match(*fp)
        assert index.match(0x9999, (1, 2), (3,)) is None

    def test_near_matches_exact_vs_brute_force(self, corpus, dataset):
        index = CorpusIndex(corpus)
        keys = sorted({entry.key() for entry in corpus})
        for fp in sorted(dataset.fingerprints())[:20]:
            probe = fingerprint_tokens(fp)
            expected = sorted(
                ((set_jaccard(probe, fingerprint_tokens(key)), key)
                 for key in keys
                 if set_jaccard(probe,
                                fingerprint_tokens(key)) >= 0.7),
                key=lambda hit: (-hit[0], hit[1]))
            hits = index.near_matches(fp, threshold=0.7, limit=None)
            assert [(s, lib.key()) for s, lib in hits] == expected

    def test_prefix_candidates_cover_own_key(self, corpus):
        index = CorpusIndex(corpus)
        for entry in list(corpus)[:50]:
            version, suites, _extensions = entry.key()
            assert entry.key() in index.prefix_candidates(version,
                                                          suites)

    def test_stats_shape(self, corpus):
        stats = CorpusIndex(corpus).stats()
        assert stats["entries"] == len(corpus)
        assert 0 < stats["distinct_keys"] <= stats["entries"]
        assert stats["dedup_ratio"] >= 1.0


class TestEngineEquivalence:
    def test_match_report_identical(self, dataset, corpus):
        exact = MatchEngine(mode="exact")
        sketch = MatchEngine(mode="sketch")
        report_e = exact.match_report(dataset, corpus)
        report_s = sketch.match_report(dataset, corpus)
        assert report_e.matched == report_s.matched
        assert report_e.device_counts == report_s.device_counts
        assert report_e.total_fingerprints == report_s.total_fingerprints

    def test_vendor_similarity_pairs_byte_identical(self, dataset):
        # The satellite contract: canonical digests equal, not just ==.
        pairs_e = MatchEngine(mode="exact").vendor_similarity_pairs(
            dataset)
        pairs_s = MatchEngine(mode="sketch").vendor_similarity_pairs(
            dataset)
        assert digest(pairs_e) == digest(pairs_s)
        assert pairs_e == pairs_s
        assert len(pairs_e) > 0

    def test_server_specific_fingerprints_identical(self, dataset,
                                                    corpus):
        result_e = MatchEngine(mode="exact").server_specific_fingerprints(
            dataset, corpus)
        result_s = MatchEngine(
            mode="sketch").server_specific_fingerprints(dataset, corpus)
        assert result_e == result_s

    def test_scaled_world_pairs_identical(self, dataset):
        # 3x world: exact pairwise vs sketch-pruned must still agree.
        world = {vendor: {("fp", fp) for fp in fingerprints}
                 for vendor, fingerprints
                 in scaled_vendor_sets(dataset, 3).items()}
        index = SimilarityIndex(seed=5)
        for vendor, tokens in world.items():
            index.add(vendor, tokens)
        assert index.all_pairs(0.2) == brute_force_pairs(world, 0.2)

    def test_for_config_seed_derivation(self, study):
        engine = MatchEngine.for_config(study.config)
        assert engine.seed == seed_for_config(study.config)
        assert engine.mode == "sketch"

    def test_engine_index_caches_reused(self, dataset, corpus):
        engine = MatchEngine(mode="sketch")
        assert engine.corpus_index(corpus) is engine.corpus_index(corpus)
        assert engine.vendor_index(dataset) is engine.vendor_index(
            dataset)


class TestModeRegistry:
    def test_default_is_exact(self):
        assert active_mode() == "exact"

    def test_engine_mode_scopes_and_restores(self):
        with engine_mode("sketch"):
            assert active_mode() == "sketch"
            assert shared_engine().mode == "sketch"
        assert active_mode() == "exact"
        assert shared_engine().mode == "exact"

    def test_engine_mode_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with engine_mode("sketch"):
                raise RuntimeError("boom")
        assert active_mode() == "exact"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown match mode"):
            set_default_mode("approximate")
        with pytest.raises(ValueError, match="unknown match mode"):
            MatchEngine(mode="fuzzy")

    def test_shared_engines_cached_per_mode(self):
        assert shared_engine("exact") is shared_engine("exact")
        assert shared_engine("sketch") is not shared_engine("exact")


class TestDeprecations:
    def test_non_deprecated_paths_warn_nothing(self, dataset, corpus,
                                               recwarn):
        sharing.vendor_similarity_pairs(dataset)
        sharing.server_specific_fingerprints(dataset, corpus)
        shared_engine().match_report(dataset, corpus)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestSynth:
    def test_scaled_vendor_sets_shape(self, dataset):
        world = scaled_vendor_sets(dataset, 4)
        vendors = dataset.vendor_names()
        assert len(world) == 4 * len(vendors)
        # clone 0 is verbatim; clones are fingerprint-disjoint from it.
        for vendor in vendors[:5]:
            assert world[vendor] == dataset.vendor_fingerprints(vendor)
            assert not world[vendor] & world[f"{vendor}#1"]
            # within-clone overlap structure survives tagging.
            assert len(world[f"{vendor}#2"]) == len(world[vendor])

    def test_scaled_fingerprints_distinct_and_deterministic(self,
                                                            dataset):
        one = scaled_fingerprints(dataset, 3, seed=6)
        two = scaled_fingerprints(dataset, 3, seed=6)
        assert one == two
        assert len(set(one)) == len(one)
        assert len(one) == 3 * len(dataset.fingerprints())

    def test_random_universe_deterministic(self):
        assert random_universe(25, seed=1) == random_universe(25,
                                                              seed=1)
        assert random_universe(25, seed=1) != random_universe(25,
                                                              seed=2)
