// The Engine/Query facade: preparation caching (a second query with the
// same options must hit and produce identical values), registry dispatch,
// default-source resolution, and batched execution determinism vs
// sequential runs across all six algorithms.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "algorithms/reference.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;
using testing::SmallRmat;
using testing::StarGraph;

SolverOptions HyTGraphDefaults() {
  return SolverOptions::Defaults(SystemKind::kHyTGraph);
}

TEST(EngineTest, SecondIdenticalQueryHitsPreparedCache) {
  Engine engine(SmallRmat(9, 6), HyTGraphDefaults());
  Query query;
  query.algorithm = AlgorithmId::kSssp;
  query.source = 3;

  auto first = engine.Run(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->prepared_cache_hit);
  EXPECT_EQ(first->cache_stats.misses, 1u);
  EXPECT_EQ(first->cache_stats.hits, 0u);
  EXPECT_EQ(first->cache_stats.entries, 1u);

  auto second = engine.Run(query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->prepared_cache_hit);  // no hub re-sort
  EXPECT_EQ(second->cache_stats.misses, 1u);
  EXPECT_EQ(second->cache_stats.hits, 1u);
  EXPECT_EQ(second->cache_stats.entries, 1u);
  EXPECT_EQ(first->u32(), second->u32());
}

TEST(EngineTest, CacheKeyIsThePreparationFingerprint) {
  Engine engine(SmallRmat(9, 6), HyTGraphDefaults());
  Query query;
  query.algorithm = AlgorithmId::kBfs;
  query.source = 0;

  // HyTGraph defaults: hub-sorted preparation.
  ASSERT_TRUE(engine.Run(query).ok());
  // A different hub fraction is a different preparation.
  SolverOptions other_hub = HyTGraphDefaults();
  other_hub.hub_fraction = 0.16;
  ASSERT_TRUE(engine.Run(query, other_hub).ok());
  EXPECT_EQ(engine.cache_stats().entries, 2u);

  // All non-reordering systems share one identity preparation.
  auto emogi = engine.Run(query, SolverOptions::Defaults(SystemKind::kEmogi));
  ASSERT_TRUE(emogi.ok());
  EXPECT_FALSE(emogi->prepared_cache_hit);
  auto subway =
      engine.Run(query, SolverOptions::Defaults(SystemKind::kSubway));
  ASSERT_TRUE(subway.ok());
  EXPECT_TRUE(subway->prepared_cache_hit);
  EXPECT_EQ(engine.cache_stats().entries, 3u);

  // CC pins hub_fraction to 0, so it also reuses the identity preparation
  // even under hub-sorting defaults.
  Query cc;
  cc.algorithm = AlgorithmId::kCc;
  auto cc_result = engine.Run(cc);
  ASSERT_TRUE(cc_result.ok());
  EXPECT_TRUE(cc_result->prepared_cache_hit);
  EXPECT_EQ(engine.cache_stats().entries, 3u);
}

TEST(EngineTest, MatchesReferenceImplementations) {
  const CsrGraph reference_graph = PaperFigure1Graph();
  Engine engine(PaperFigure1Graph(), HyTGraphDefaults());

  Query sssp;
  sssp.algorithm = AlgorithmId::kSssp;
  sssp.source = 0;
  auto result = engine.Run(sssp);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->u32(), ReferenceSssp(reference_graph, 0));
  EXPECT_EQ(result->u32(), (std::vector<uint32_t>{0, 2, 4, 3, 4, 6}));
}

TEST(EngineTest, DefaultSourceIsHighestOutDegreeVertex) {
  Engine engine(StarGraph(16), HyTGraphDefaults());
  EXPECT_EQ(engine.DefaultSource(), 0u);

  Query query;
  query.algorithm = AlgorithmId::kBfs;  // no source named
  auto result = engine.Run(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->source, 0u);
  EXPECT_EQ(result->u32()[5], 1u);  // every spoke is one hop from the hub
}

TEST(EngineTest, SourcelessAlgorithmsIgnoreTheSource) {
  Engine engine(testing::TwoCyclesGraph(12), HyTGraphDefaults());
  Query query;
  query.algorithm = AlgorithmId::kCc;
  auto result = engine.Run(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->source, kInvalidVertex);
  EXPECT_EQ(result->u32(), ReferenceCc(engine.graph()));
}

TEST(EngineTest, UnknownAlgorithmIdIsRejected) {
  // An unchecked int from config/serialization must not silently dispatch
  // to some registry entry.
  Engine engine(PaperFigure1Graph(), HyTGraphDefaults());
  Query query;
  query.algorithm = static_cast<AlgorithmId>(99);
  EXPECT_TRUE(engine.Run(query).status().IsInvalidArgument());
}

TEST(EngineTest, OutOfRangeSourceIsRejected) {
  Engine engine(PaperFigure1Graph(), HyTGraphDefaults());
  Query query;
  query.algorithm = AlgorithmId::kBfs;
  query.source = 1000;
  EXPECT_TRUE(engine.Run(query).status().IsInvalidArgument());
}

TEST(EngineTest, TypedParamsReachTheAlgorithm) {
  Engine engine(SmallRmat(8, 6), HyTGraphDefaults());
  Query strict;
  strict.algorithm = AlgorithmId::kPageRank;
  strict.params.pagerank.epsilon = 1e-8;
  Query loose;
  loose.algorithm = AlgorithmId::kPageRank;
  loose.params.pagerank.epsilon = 1e-2;
  auto strict_run = engine.Run(strict);
  auto loose_run = engine.Run(loose);
  ASSERT_TRUE(strict_run.ok());
  ASSERT_TRUE(loose_run.ok());
  // A tighter epsilon must not converge faster.
  EXPECT_GE(strict_run->trace.NumIterations(),
            loose_run->trace.NumIterations());
}

TEST(EngineTest, ErrorsPropagate) {
  SolverOptions tiny = HyTGraphDefaults();
  tiny.device_memory_override = 1;  // nothing fits
  Engine engine(PaperFigure1Graph(), tiny);
  Query query;
  query.algorithm = AlgorithmId::kBfs;
  query.source = 0;
  EXPECT_TRUE(engine.Run(query).status().IsOutOfMemory());
}

TEST(EngineBatchTest, MultiSourceBatchSharesOnePreparation) {
  Engine engine(SmallRmat(9, 6), HyTGraphDefaults());
  std::vector<Query> queries;
  for (VertexId source : {0u, 7u, 31u, 100u}) {
    Query query;
    query.algorithm = AlgorithmId::kSssp;
    query.source = source;
    queries.push_back(query);
  }

  auto batch = engine.RunBatch(queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), queries.size());

  const EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);  // one hub sort for the whole batch
  EXPECT_EQ(stats.hits, queries.size() - 1);
  EXPECT_FALSE((*batch)[0].prepared_cache_hit);
  for (size_t i = 1; i < batch->size(); ++i) {
    EXPECT_TRUE((*batch)[i].prepared_cache_hit);
  }
}

TEST(EngineBatchTest, BatchMatchesSequentialAcrossAllSixAlgorithms) {
  // A weighted graph so SSSP/PHP/SSWP exercise real weights. Run every
  // registered algorithm once as a batch and once sequentially: the
  // value-selection family must match bitwise (its fixpoints are
  // schedule-independent); the accumulation family within a tolerance
  // (floating-point reduction order differs between nested-serial and
  // parallel kernels).
  std::vector<Query> queries;
  for (AlgorithmId id : kAllAlgorithms) {
    Query query;
    query.algorithm = id;
    query.source = 1;
    queries.push_back(query);
  }

  Engine engine(SmallRmat(8, 6, 3), HyTGraphDefaults());
  auto batch = engine.RunBatch(queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), queries.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    auto sequential = engine.Run(queries[i]);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    const QueryResult& batched = (*batch)[i];
    ASSERT_EQ(batched.is_f64(), sequential->is_f64());
    if (batched.is_f64()) {
      ASSERT_EQ(batched.f64().size(), sequential->f64().size());
      for (size_t v = 0; v < batched.f64().size(); ++v) {
        EXPECT_NEAR(batched.f64()[v], sequential->f64()[v], 1e-3)
            << AlgorithmName(queries[i].algorithm) << " vertex " << v;
      }
    } else {
      EXPECT_EQ(batched.u32(), sequential->u32())
          << AlgorithmName(queries[i].algorithm);
    }
  }
}

TEST(EngineTest, RepeatedQueriesRepeatExactly) {
  // num_workers = 1 is the sequential reference path: the same query on the
  // same graph must give the same trace and the same values, bit for bit,
  // however the kernel threads interleave. A graph large enough that every
  // algorithm's passes outgrow one shard.
  Engine engine(SmallRmat(12, 8, 7), HyTGraphDefaults());
  for (AlgorithmId algorithm : kAllAlgorithms) {
    Query query;
    query.algorithm = algorithm;
    query.source = 1;
    auto first = engine.Run(query);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    for (int repeat = 0; repeat < 3; ++repeat) {
      auto again = engine.Run(query);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      const char* name = AlgorithmName(algorithm);
      ASSERT_EQ(again->trace.NumIterations(), first->trace.NumIterations())
          << name;
      for (size_t i = 0; i < first->trace.iterations.size(); ++i) {
        EXPECT_EQ(again->trace.iterations[i].active_vertices,
                  first->trace.iterations[i].active_vertices)
            << name << " iteration " << i;
        EXPECT_EQ(again->trace.iterations[i].active_edges,
                  first->trace.iterations[i].active_edges)
            << name << " iteration " << i;
      }
      EXPECT_EQ(again->trace.total_sim_seconds,
                first->trace.total_sim_seconds)
          << name;
      if (first->is_f64()) {
        EXPECT_EQ(again->f64(), first->f64()) << name;
      } else {
        EXPECT_EQ(again->u32(), first->u32()) << name;
      }
    }
  }
}

TEST(EngineBatchTest, BatchIsDeterministicAcrossRepeats) {
  Engine engine(SmallRmat(8, 6, 11), HyTGraphDefaults());
  std::vector<Query> queries;
  for (VertexId source : {2u, 3u, 5u, 8u, 13u, 21u}) {
    Query query;
    query.algorithm = AlgorithmId::kBfs;
    query.source = source;
    queries.push_back(query);
  }
  auto first = engine.RunBatch(queries);
  auto second = engine.RunBatch(queries);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ((*first)[i].u32(), (*second)[i].u32()) << "query " << i;
  }
}

TEST(EngineBatchTest, BatchPropagatesQueryErrors) {
  Engine engine(PaperFigure1Graph(), HyTGraphDefaults());
  Query good;
  good.algorithm = AlgorithmId::kBfs;
  good.source = 0;
  Query bad;
  bad.algorithm = AlgorithmId::kBfs;
  bad.source = 1000;  // out of range
  auto batch = engine.RunBatch({good, bad});
  EXPECT_TRUE(batch.status().IsInvalidArgument());
}

TEST(EngineBatchTest, EmptyBatchIsFine) {
  Engine engine(PaperFigure1Graph(), HyTGraphDefaults());
  auto batch = engine.RunBatch({});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST(EngineTest, ClearPreparedCacheForcesRebuild) {
  Engine engine(SmallRmat(9, 6), HyTGraphDefaults());
  Query query;
  query.algorithm = AlgorithmId::kSssp;
  query.source = 0;
  ASSERT_TRUE(engine.Run(query).ok());
  engine.ClearPreparedCache();
  EXPECT_EQ(engine.cache_stats().entries, 0u);
  auto again = engine.Run(query);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->prepared_cache_hit);
  EXPECT_EQ(again->cache_stats.misses, 2u);
}

TEST(EngineTest, ClearPreparedCachePreservesCounters) {
  // The contract: Clear drops the memoized preparations (entries) but
  // keeps the lifetime counters — hits, misses, and invalidations are
  // observability data, not cache contents.
  Engine engine(SmallRmat(9, 6), HyTGraphDefaults());
  Query query;
  query.algorithm = AlgorithmId::kBfs;
  query.source = 0;
  ASSERT_TRUE(engine.Run(query).ok());  // miss
  ASSERT_TRUE(engine.Run(query).ok());  // hit
  const EngineCacheStats before = engine.cache_stats();
  ASSERT_EQ(before.hits, 1u);
  ASSERT_EQ(before.misses, 1u);
  ASSERT_EQ(before.entries, 1u);

  engine.ClearPreparedCache();
  const EngineCacheStats after = engine.cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.invalidated, before.invalidated);
  EXPECT_EQ(after.entries, 0u);
}

TEST(EngineTest, PreparedCacheInvalidatesLazilyOnEpochBump) {
  Engine engine(SmallRmat(9, 6), HyTGraphDefaults());
  Query query;
  query.algorithm = AlgorithmId::kSssp;
  query.source = 0;
  ASSERT_TRUE(engine.Run(query).ok());
  ASSERT_EQ(engine.cache_stats().entries, 1u);

  MutationBatch batch;
  batch.InsertEdge(0, 1, 1);
  ASSERT_TRUE(engine.ApplyMutations(batch).ok());

  // Invalidation is lazy: the stale entry sits in the cache until the next
  // lookup touches its fingerprint.
  EXPECT_EQ(engine.cache_stats().entries, 1u);
  EXPECT_EQ(engine.cache_stats().invalidated, 0u);

  auto after = engine.Run(query);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->prepared_cache_hit);  // rebuilt against the new epoch
  EXPECT_EQ(after->epoch, 1u);
  const EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);

  // The fresh entry serves the new epoch.
  auto again = engine.Run(query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->prepared_cache_hit);
}

// Regression for the (epoch, layout) cache guard under concurrent
// compaction: Compact() does not bump the epoch, so a prepared-cache build
// racing a fold can only be told apart from the post-fold layout by the
// layout version. One thread folds in a tight loop (every fold bumps the
// layout and drops the cache) while readers Run full queries and
// RunIncremental from a deliberately retired epoch (which falls back to a
// full Run, planning mid-fold). Every result must still equal the
// reference, and the cache must keep serving entries afterwards — a stale
// resurrected preparation or a ViewRef carrying a garbage layout would
// break one or the other.
TEST(EngineConcurrencyTest, LayoutVersionGuardHoldsUnderConcurrentCompaction) {
  CompactionPolicy policy;
  policy.mode = CompactionMode::kManual;
  policy.mutation_log_horizon = 1;  // epochs retire almost immediately
  Engine engine(SmallRmat(9, 6, 5),
                SolverOptions::Defaults(SystemKind::kCpu), policy);

  Query query;
  query.algorithm = AlgorithmId::kBfs;
  query.source = 0;
  auto seed_result = engine.Run(query);
  ASSERT_TRUE(seed_result.ok());
  const QueryResult previous = *seed_result;

  // Retire `previous`'s epoch from the mutation log so RunIncremental must
  // take the fallback full-plan path — the interleaving under test.
  const VertexId n = engine.graph().num_vertices();
  for (int i = 0; i < 4; ++i) {
    MutationBatch batch;
    for (int e = 0; e < 32; ++e) {
      batch.InsertEdge(static_cast<VertexId>((7 * i + e) % n),
                       static_cast<VertexId>((13 * i + 3 * e) % n));
    }
    ASSERT_TRUE(engine.ApplyMutations(batch).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread folder([&] {
    while (!stop) {
      MutationBatch batch;
      batch.InsertEdge(1, 2);
      if (!engine.ApplyMutations(batch).ok() || !engine.Compact().ok()) {
        failed = true;
        return;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 60 && !failed; ++i) {
        auto full = engine.Run(query);
        auto incremental = engine.RunIncremental(query, previous);
        if (!full.ok() || !incremental.ok()) {
          failed = true;
          return;
        }
        // A retired-epoch warm start must have fallen back to a full run.
        if (incremental->incremental) {
          failed = true;
          return;
        }
        // Values must be internally consistent for whatever epoch each
        // result pinned; BFS from 0 only gains reachability under inserts,
        // so distances can never exceed the seed run's.
        const auto& seed_values = previous.u32();
        for (size_t v = 0; v < seed_values.size(); ++v) {
          if (full->u32()[v] > seed_values[v] ||
              incremental->u32()[v] > seed_values[v]) {
            failed = true;
            return;
          }
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop = true;
  folder.join();
  ASSERT_FALSE(failed) << "a query raced a fold into an inconsistent state";

  // Quiesced: the final state must match the reference exactly, and the
  // cache must be functional (a repeat query hits).
  auto folded = engine.View().Materialize();
  ASSERT_TRUE(folded.ok());
  auto final_run = engine.Run(query);
  ASSERT_TRUE(final_run.ok());
  EXPECT_EQ(final_run->u32(), ReferenceBfs(*folded, 0));
  auto repeat = engine.Run(query);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->prepared_cache_hit);
}

}  // namespace
}  // namespace hytgraph
