// Tests for src/serve: CFSM checkpoint round-trips, the sharded LRU cache,
// and the batching InferenceService (answer cache, deadlines, degradation,
// concurrency).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/simple.h"
#include "core/chainsformer.h"
#include "graph/runtime.h"
#include "kg/synthetic.h"
#include "serve/admin.h"
#include "serve/cache.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "util/metrics.h"
#include "util/trace.h"

#include "ring_with_island.h"

namespace chainsformer {
namespace serve {
namespace {

using core::ChainsFormerConfig;
using core::ChainsFormerModel;
using core::Query;
using core::TreeOfChains;

ChainsFormerConfig SmallConfig() {
  ChainsFormerConfig config;
  config.num_walks = 32;
  config.top_k = 8;
  config.hidden_dim = 16;
  config.filter_dim = 8;
  config.encoder_layers = 1;
  config.reasoner_layers = 1;
  config.num_heads = 2;
  config.epochs = 2;
  config.max_train_queries = 120;
  config.filter_pretrain_queries = 60;
  config.filter_pretrain_epochs = 1;
  config.seed = 13;
  config.verbose = false;
  return config;
}

/// One trained model per test binary; training even the small synthetic
/// model costs seconds, so every test shares it (read-only: the serving
/// surface is const).
struct Trained {
  kg::Dataset dataset = kg::MakeYago15kLike({.scale = 0.08});
  ChainsFormerConfig config = SmallConfig();
  std::unique_ptr<ChainsFormerModel> model;

  Trained() {
    model = std::make_unique<ChainsFormerModel>(dataset, config);
    model->Train();
  }
};

Trained& Shared() {
  static Trained* trained = new Trained();
  return *trained;
}

/// Held-out (valid + test) queries, the round-trip acceptance set.
std::vector<Query> HeldOutQueries(const kg::Dataset& ds, size_t at_least) {
  std::vector<Query> queries;
  for (const auto& t : ds.split.test) queries.push_back({t.entity, t.attribute});
  for (const auto& t : ds.split.valid) queries.push_back({t.entity, t.attribute});
  EXPECT_GE(queries.size(), at_least)
      << "synthetic split too small for the acceptance criterion";
  return queries;
}

// --- Checkpoint round-trip ---------------------------------------------------

TEST(ServeCheckpointTest, RoundTripPredictsBitwiseIdentical) {
  Trained& t = Shared();
  const std::string path = "/tmp/cf_serve_roundtrip.cfsm";
  ASSERT_TRUE(SaveModel(*t.model, path));

  // Load with a *default* base config: everything that matters must come
  // from the checkpoint itself, as it would in a fresh serving process.
  ChainsFormerConfig base;
  base.verbose = false;
  std::unique_ptr<ChainsFormerModel> loaded =
      LoadModel(t.dataset, base, path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->config().hidden_dim, t.config.hidden_dim);
  EXPECT_EQ(loaded->config().seed, t.config.seed);

  const std::vector<Query> queries = HeldOutQueries(t.dataset, 100);
  for (size_t i = 0; i < queries.size(); ++i) {
    const double original = t.model->Predict(queries[i]);
    const double restored = loaded->Predict(queries[i]);
    ASSERT_EQ(original, restored) << "held-out query " << i << " diverged";
  }
  std::remove(path.c_str());
}

TEST(ServeCheckpointTest, LoadRejectsMissingAndForeignFiles) {
  ChainsFormerConfig base;
  base.verbose = false;
  Trained& t = Shared();
  EXPECT_EQ(LoadModel(t.dataset, base, "/tmp/cf_serve_nope.cfsm"), nullptr);
  const std::string path = "/tmp/cf_serve_foreign.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  EXPECT_EQ(LoadModel(t.dataset, base, path), nullptr);
  std::remove(path.c_str());
  // A bare tensor section (the parameter-only "CFTN" format) is foreign too.
  const std::string cftn = "/tmp/cf_serve_foreign.cftn";
  ASSERT_TRUE(t.model->SaveCheckpoint(cftn));
  EXPECT_EQ(LoadModel(t.dataset, base, cftn), nullptr);
  std::remove(cftn.c_str());
}

TEST(ServeCheckpointDeathTest, VocabMismatchAbortsNamed) {
  Trained& t = Shared();
  const std::string path = "/tmp/cf_serve_vocabmismatch.cfsm";
  ASSERT_TRUE(SaveModel(*t.model, path));
  // A dataset at a different scale has a different entity count.
  const kg::Dataset other = kg::MakeYago15kLike({.scale = 0.03});
  ChainsFormerConfig base;
  base.verbose = false;
  EXPECT_DEATH(LoadModel(other, base, path), "entities");
  std::remove(path.c_str());
}

// --- Micro-batching invariance ----------------------------------------------

TEST(ServeBatchingTest, PredictOnChainSetsMatchesPredictBitwise) {
  Trained& t = Shared();
  std::vector<Query> queries = HeldOutQueries(t.dataset, 100);
  queries.resize(24);

  std::vector<TreeOfChains> chains;
  chains.reserve(queries.size());
  for (const Query& q : queries) chains.push_back(t.model->RetrieveChains(q));
  std::vector<const TreeOfChains*> chain_ptrs;
  for (const TreeOfChains& c : chains) chain_ptrs.push_back(&c);

  // The whole set rides ONE EncodeBatch pass; every entry must still equal
  // the standalone Predict bit-for-bit (DESIGN §6c).
  const std::vector<core::BatchPrediction> batched =
      t.model->PredictOnChainSets(queries, chain_ptrs);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i].value, t.model->Predict(queries[i]))
        << "query " << i << " diverged in the micro-batch";
  }
}

TEST(ServeBatchingTest, RetrieveChainsIsDeterministic) {
  Trained& t = Shared();
  const Query q = HeldOutQueries(t.dataset, 1).front();
  const TreeOfChains a = t.model->RetrieveChains(q);
  const TreeOfChains b = t.model->RetrieveChains(q);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].SamePattern(b[i]));
    EXPECT_EQ(a[i].source_entity, b[i].source_entity);
    EXPECT_EQ(a[i].source_value, b[i].source_value);
  }
}

// --- Cache -------------------------------------------------------------------

TEST(ShardedChainCacheTest, HitReturnsSameTreeOfChains) {
  Trained& t = Shared();
  const Query q = HeldOutQueries(t.dataset, 1).front();
  const TreeOfChains original = t.model->RetrieveChains(q);

  ShardedChainCache cache(/*capacity=*/64, /*shards=*/4);
  TreeOfChains out;
  EXPECT_FALSE(cache.Get(q.entity, q.attribute, &out));
  cache.Put(q.entity, q.attribute, original);
  ASSERT_TRUE(cache.Get(q.entity, q.attribute, &out));
  ASSERT_EQ(out.size(), original.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i].SamePattern(original[i]));
    EXPECT_EQ(out[i].source_entity, original[i].source_entity);
    EXPECT_EQ(out[i].source_value, original[i].source_value);
  }
}

TEST(ShardedChainCacheTest, EvictsLeastRecentlyUsedPerShard) {
  ShardedChainCache cache(/*capacity=*/2, /*shards=*/1);
  TreeOfChains out;
  cache.Put(1, 0, {});
  cache.Put(2, 0, {});
  EXPECT_TRUE(cache.Get(1, 0, &out));  // touch 1 -> 2 becomes LRU
  cache.Put(3, 0, {});                 // evicts 2
  EXPECT_TRUE(cache.Get(1, 0, &out));
  EXPECT_FALSE(cache.Get(2, 0, &out));
  EXPECT_TRUE(cache.Get(3, 0, &out));
}

// --- Service -----------------------------------------------------------------

TEST(InferenceServiceTest, AnswersMatchDirectPredictBitwise) {
  Trained& t = Shared();
  ServeOptions options;
  options.batch_window_us = 0;  // dispatch immediately, single-threaded client
  options.deadline_ms = 0;      // no deadline: the model must answer
  InferenceService service(*t.model, options);
  std::vector<Query> queries = HeldOutQueries(t.dataset, 100);
  queries.resize(16);
  for (const Query& q : queries) {
    const ServeResponse r = service.Predict(q);
    if (r.degraded) {
      EXPECT_EQ(r.source, "empty_toc");
      continue;
    }
    EXPECT_EQ(r.source, "model");
    EXPECT_EQ(r.value, t.model->Predict(q));
    EXPECT_GE(r.batch_size, 1);
  }
}

TEST(InferenceServiceTest, DeadlineExpiryDegradesInsteadOfCrashing) {
  Trained& t = Shared();
  ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 1;
  InferenceService service(*t.model, options);
  // Hold the dispatcher after it collects its first batch, before any model
  // work, until every client has returned. No request can then be answered
  // by the model, so each client's 1 ms deadline must expire — whatever the
  // scheduler does, with no race against the wall clock.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  service.SetBatchHookForTesting([released] { released.wait(); });
  const Query q = HeldOutQueries(t.dataset, 1).front();
  constexpr int kClients = 16;
  std::vector<ServeResponse> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(
        [&service, &responses, &q, c] { responses[c] = service.Predict(q); });
  }
  for (auto& th : clients) th.join();
  release.set_value();
  // The fallback is the train-split attribute mean (GlobalMeanBaseline).
  baselines::GlobalMeanBaseline baseline(t.model->dataset());
  baseline.Train();
  const double fallback = baseline.Predict(kg::EntityId{0}, q.attribute);
  for (const ServeResponse& r : responses) {
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.source, "deadline");
    EXPECT_EQ(r.value, fallback);
  }
}

TEST(InferenceServiceTest, CacheHitsAccumulateOnRepeatedQueries) {
  Trained& t = Shared();
  ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  InferenceService service(*t.model, options);
  const Query q = HeldOutQueries(t.dataset, 1).front();
  const auto before =
      metrics::MetricsRegistry::Global().Snapshot().CounterValue(
          "serve.cache_hits");
  const ServeResponse first = service.Predict(q);
  for (int i = 0; i < 4; ++i) {
    const ServeResponse again = service.Predict(q);
    EXPECT_EQ(again.value, first.value) << "cache changed the answer";
  }
  const auto after =
      metrics::MetricsRegistry::Global().Snapshot().CounterValue(
          "serve.cache_hits");
  EXPECT_GE(after - before, 4);
}

/// The first `n` held-out queries with a non-empty Tree of Chains (so they
/// reach the dispatcher instead of degrading to empty_toc).
std::vector<Query> RetrievableQueries(Trained& t, size_t n) {
  std::vector<Query> found;
  for (const Query& candidate : HeldOutQueries(t.dataset, 8)) {
    if (found.size() == n) break;
    if (!t.model->RetrieveChains(candidate).empty()) found.push_back(candidate);
  }
  EXPECT_EQ(found.size(), n) << "too few retrievable held-out queries";
  found.resize(n);
  return found;
}

Query RetrievableQuery(Trained& t) { return RetrievableQueries(t, 1).front(); }

int64_t CounterValue(const char* name) {
  return metrics::MetricsRegistry::Global().Snapshot().CounterValue(name);
}

/// Polls `done` until it holds. The tests below wait for a state, never for
/// a wall-clock interval, so their outcome does not depend on scheduling.
template <typename Done>
void WaitFor(Done done) {
  while (!done()) std::this_thread::sleep_for(std::chrono::microseconds(100));
}

/// Runs `first` and `second` (one Predict call each, on their own threads)
/// so their requests share one micro-batch: a request for `blocker` holds the
/// dispatcher in its batch hook until both are queued behind it, and the
/// dispatcher then collects the two together.
void PredictInOneBatch(InferenceService& service, const Query& blocker,
                       const std::function<void()>& first,
                       const std::function<void()>& second) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> batches{0};
  service.SetBatchHookForTesting([&batches, released] {
    if (batches.fetch_add(1) == 0) released.wait();
  });
  std::thread blocking([&] { service.Predict(blocker); });
  WaitFor([&] { return batches.load() > 0; });
  std::thread a(first);
  std::thread b(second);
  WaitFor([&] { return service.queue_depth() == 2; });
  release.set_value();
  blocking.join();
  a.join();
  b.join();
  service.SetBatchHookForTesting(nullptr);
}

// Duplicate in-flight requests for the same (entity, attribute) coalesce
// into one forward pass (serve.batch_dedup), and every copy still gets the
// bitwise Predict answer — sound only because predictions are deterministic.
TEST(InferenceServiceTest, DuplicateQueriesCoalesceInBatch) {
  Trained& t = Shared();
  ServeOptions options;
  options.batch_window_us = 0;  // the pair is queued before collection
  options.max_batch = 8;
  options.deadline_ms = 0;
  InferenceService service(*t.model, options);
  const std::vector<Query> queries = RetrievableQueries(t, 2);
  const Query& q = queries[0];
  const double expected = t.model->Predict(q);
  ServeResponse r1, r2;
  const int64_t before =
      metrics::MetricsRegistry::Global().Snapshot().CounterValue(
          "serve.batch_dedup");
  PredictInOneBatch(
      service, /*blocker=*/queries[1], [&] { r1 = service.Predict(q); },
      [&] { r2 = service.Predict(q); });
  EXPECT_EQ(r1.source, "model");
  EXPECT_EQ(r1.value, expected);
  EXPECT_EQ(r2.value, expected);
  ASSERT_EQ(r1.batch_size, 2);
  const auto after =
      metrics::MetricsRegistry::Global().Snapshot().CounterValue(
          "serve.batch_dedup");
  EXPECT_EQ(after - before, 1);
}

// --- Answer cache ------------------------------------------------------------

// A repeated query is answered from the cache on the calling thread: it
// never reaches the dispatcher, and it carries the first answer's bits.
TEST(InferenceServiceTest, AnswerCacheHitsSkipTheDispatcher) {
  Trained& t = Shared();
  const std::vector<Query> queries = RetrievableQueries(t, 16);
  std::vector<double> expected;
  for (const Query& q : queries) expected.push_back(t.model->Predict(q));
  std::atomic<int> batches{0};
  ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  InferenceService service(*t.model, options);
  service.SetBatchHookForTesting([&batches] { batches.fetch_add(1); });
  for (const Query& q : queries) {
    const ServeResponse first = service.Predict(q);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_GE(first.batch_id, 0);
  }
  const int dispatched = batches.load();
  EXPECT_EQ(dispatched, static_cast<int>(queries.size()));
  for (size_t i = 0; i < queries.size(); ++i) {
    const ServeResponse r = service.Predict(queries[i]);
    EXPECT_TRUE(r.cache_hit) << "query " << i;
    EXPECT_EQ(r.batch_id, -1);
    EXPECT_EQ(r.batch_size, 0);
    EXPECT_EQ(r.source, "model");
    EXPECT_FALSE(r.degraded);
    EXPECT_STREQ(r.precision, "fp64");
    EXPECT_EQ(r.value, expected[i]) << "query " << i;
    EXPECT_EQ(r.queue_us + r.window_us + r.compute_us + r.verify_us, 0);
    EXPECT_EQ(r.cache_us, r.latency_us);
  }
  EXPECT_EQ(batches.load(), dispatched) << "a repeat reached the dispatcher";
}

// The dispatcher stores an answer even when its client already left on the
// deadline, so the next request for the key is a hit with the model's bits.
TEST(InferenceServiceTest, LateAnswerFillsTheCache) {
  Trained& t = Shared();
  const std::vector<Query> queries = RetrievableQueries(t, 2);
  const double expected = t.model->Predict(queries[0]);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> batches{0};
  ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 1;
  InferenceService service(*t.model, options);
  service.SetBatchHookForTesting([&batches, released] {
    if (batches.fetch_add(1) == 0) released.wait();
  });
  // Batch 1 holds the first query until its client has left on the
  // deadline.
  const ServeResponse late = service.Predict(queries[0]);
  EXPECT_EQ(late.source, "deadline");
  WaitFor([&] { return batches.load() == 1; });
  release.set_value();
  // The dispatcher runs one batch at a time: once a second request reaches
  // batch 2's hook, batch 1 and its store are complete.
  service.Predict(queries[1]);
  WaitFor([&] { return batches.load() == 2; });
  const ServeResponse r = service.Predict(queries[0]);
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(r.source, "model");
  EXPECT_EQ(r.value, expected);
}

// An empty Tree of Chains caches its fallback answer, still tagged
// empty_toc; deadline fallbacks are never stored (LateAnswerFillsTheCache).
TEST(InferenceServiceTest, EmptyTocAnswersAreCached) {
  const kg::Dataset dataset = test_graphs::RingWithIsland();
  ChainsFormerModel model(dataset, SmallConfig());
  model.Train();
  const Query q{dataset.graph.FindEntity("island"),
                dataset.graph.FindAttribute("age")};
  ASSERT_TRUE(model.RetrieveChains(q).empty());
  ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  InferenceService service(model, options);
  const ServeResponse first = service.Predict(q);
  EXPECT_EQ(first.source, "empty_toc");
  EXPECT_FALSE(first.cache_hit);
  const ServeResponse again = service.Predict(q);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_TRUE(again.degraded);
  EXPECT_EQ(again.source, "empty_toc");
  EXPECT_EQ(again.value, first.value);
  EXPECT_EQ(again.batch_id, -1);
  EXPECT_STREQ(again.precision, "fp64");
}

TEST(InferenceServiceTest, ZeroCapacityCachesNothing) {
  Trained& t = Shared();
  const Query q = RetrievableQuery(t);
  const double expected = t.model->Predict(q);
  std::atomic<int> batches{0};
  ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  options.cache_capacity = 0;
  InferenceService service(*t.model, options);
  service.SetBatchHookForTesting([&batches] { batches.fetch_add(1); });
  const int64_t lookups0 =
      CounterValue("serve.cache_hits") + CounterValue("serve.cache_misses");
  for (int i = 0; i < 3; ++i) {
    const ServeResponse r = service.Predict(q);
    EXPECT_FALSE(r.cache_hit);
    EXPECT_GE(r.batch_id, 0);
    EXPECT_EQ(r.value, expected);
  }
  EXPECT_EQ(batches.load(), 3);
  EXPECT_EQ(
      CounterValue("serve.cache_hits") + CounterValue("serve.cache_misses"),
      lookups0);
}

// Eight concurrent clients hammer the service; every request must complete
// with a usable answer (model or degraded), and model answers must match the
// direct Predict bit-for-bit regardless of batch composition. Runs under the
// `threaded` ctest label so tools/run_sanitizers.sh covers it with Tsan.
TEST(InferenceServiceTest, ConcurrentClientsStress) {
  Trained& t = Shared();
  ServeOptions options;
  options.batch_window_us = 500;
  options.max_batch = 16;
  options.deadline_ms = 2000;  // generous: degradation is not the point here
  InferenceService service(*t.model, options);

  std::vector<Query> queries = HeldOutQueries(t.dataset, 100);
  // ChainsFormerModel::Predict is not thread-safe (it feeds the chain
  // cache), so the expected values are computed serially up front.
  std::vector<double> expected;
  expected.reserve(queries.size());
  for (const Query& q : queries) expected.push_back(t.model->Predict(q));

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> answered{0};
  std::atomic<int> model_answers{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const size_t qi = (c * 37 + i * 11) % queries.size();
        const ServeResponse r = service.Predict(queries[qi]);
        ASSERT_FALSE(r.source.empty());
        answered.fetch_add(1);
        if (r.source == "model") {
          model_answers.fetch_add(1);
          ASSERT_EQ(r.value, expected[qi]);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(answered.load(), kClients * kRequestsPerClient);
  EXPECT_GT(model_answers.load(), 0);
}

// --- Request tracing ---------------------------------------------------------

// Duplicate (entity, attribute) requests share one forward pass, but each
// response must carry its own trace id, the shared batch identity, and
// per-request span timings; exactly one of the two is the dedup-collapsed
// rider. The Chrome trace must contain both request timelines.
TEST(InferenceServiceTest, TracePropagationUnderDedupCoalescing) {
  Trained& t = Shared();
  ServeOptions options;
  options.batch_window_us = 0;  // the pair is queued before collection
  options.max_batch = 8;
  options.deadline_ms = 0;
  InferenceService service(*t.model, options);
  const std::vector<Query> queries = RetrievableQueries(t, 2);
  const Query& q = queries[0];
  const double expected = t.model->Predict(q);

  trace::SetEnabled(true);
  trace::Clear();
  constexpr uint64_t kTraceA = 0xA11CE;
  constexpr uint64_t kTraceB = 0xB0B;
  ServeResponse r1, r2;
  PredictInOneBatch(
      service, /*blocker=*/queries[1], [&] { r1 = service.Predict(q, kTraceA); },
      [&] { r2 = service.Predict(q, kTraceB); });
  const std::string trace_json = trace::DrainChromeTraceJson();
  trace::SetEnabled(false);

  // Client-supplied ids come back on the matching response.
  EXPECT_EQ(r1.trace_id, kTraceA);
  EXPECT_EQ(r2.trace_id, kTraceB);
  EXPECT_EQ(r1.value, expected);
  EXPECT_EQ(r2.value, expected);

  // One batch, one forward: same batch id, exactly one collapsed rider.
  ASSERT_EQ(r1.batch_size, 2);
  EXPECT_EQ(r2.batch_size, 2);
  EXPECT_GE(r1.batch_id, 0);
  EXPECT_EQ(r1.batch_id, r2.batch_id);
  EXPECT_NE(r1.dedup_collapsed, r2.dedup_collapsed);

  // Both requests get their own phase breakdown; the forward pass is shared
  // so its cost is identical.
  EXPECT_GE(r1.queue_us, 0);
  EXPECT_GE(r2.queue_us, 0);
  EXPECT_GT(r1.compute_us + r1.verify_us, 0);
  EXPECT_EQ(r1.compute_us, r2.compute_us);
  // Phases nest inside the request: none can exceed the total.
  for (const ServeResponse* r : {&r1, &r2}) {
    EXPECT_LE(r->compute_us, r->latency_us + 1000);
    EXPECT_LE(r->queue_us + r->window_us, r->latency_us + 1000);
  }

  // Both timelines are in the Perfetto trace, per-request spans included.
  EXPECT_NE(trace_json.find("\"trace_id\": \"" + std::to_string(kTraceA) +
                            "\""),
            std::string::npos);
  EXPECT_NE(trace_json.find("\"trace_id\": \"" + std::to_string(kTraceB) +
                            "\""),
            std::string::npos);
  for (const char* span :
       {"serve.request", "serve.cache_lookup", "serve.queue_wait",
        "serve.batch_window", "serve.compute"}) {
    EXPECT_NE(trace_json.find(std::string("\"name\": \"") + span + "\""),
              std::string::npos)
        << "span " << span << " missing from the drained trace";
  }
  EXPECT_NE(trace_json.find("\"dedup_collapsed\": true"), std::string::npos);
  EXPECT_NE(trace_json.find("\"batch_size\": 2"), std::string::npos);
}

// Without a client-supplied id the service generates distinct, nonzero,
// deterministic ids from the RNG seam (same seed + same order = same ids).
TEST(InferenceServiceTest, GeneratedTraceIdsAreDistinctAndDeterministic) {
  Trained& t = Shared();
  ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  std::vector<uint64_t> first_run, second_run;
  const Query q = RetrievableQuery(t);
  for (int run = 0; run < 2; ++run) {
    InferenceService service(*t.model, options);
    std::vector<uint64_t>& ids = run == 0 ? first_run : second_run;
    for (int i = 0; i < 3; ++i) ids.push_back(service.Predict(q).trace_id);
  }
  EXPECT_NE(first_run[0], 0u);
  EXPECT_NE(first_run[0], first_run[1]);
  EXPECT_NE(first_run[1], first_run[2]);
  EXPECT_EQ(first_run, second_run)
      << "trace ids must be reproducible across identical runs (RNG seam)";
}

// The admin snapshot over a live service reports live percentiles, SLO
// rates, cache hit rate, and per-bucket plan stats in both formats.
TEST(InferenceServiceTest, AdminSnapshotsReflectLiveService) {
  Trained& t = Shared();
  ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  InferenceService service(*t.model, options);
  const Query q = RetrievableQuery(t);
  for (int i = 0; i < 4; ++i) service.Predict(q);

  const std::string json = StatusJson(&service);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "statusz must be one line";
  for (const char* needle :
       {"\"serve.phase.total_us\"", "\"p50\"", "\"p90\"", "\"p99\"",
        "\"deadline_miss_rate\"", "\"degraded_by_cause\"", "\"hit_rate\"",
        "\"plan_buckets\"", "\"plan_verify_failures\""}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << needle << " missing from statusz JSON";
  }
  // The service answered 4 requests through one plan bucket.
  ASSERT_NE(service.static_runtime(), nullptr);
  EXPECT_FALSE(service.static_runtime()->Stats().empty());
  EXPECT_NE(json.find("\"ready\": true"), std::string::npos);

  const std::string prom = PrometheusText(&service);
  for (const char* needle :
       {"# TYPE cf_serve_requests counter",
        "cf_window_serve_phase_total_us_p50",
        "cf_window_serve_phase_total_us_p99", "cf_slo_deadline_miss_rate",
        "cf_slo_degraded_cause_rate{cause=\"deadline\"}",
        "cf_plan_bucket_ready"}) {
    EXPECT_NE(prom.find(needle), std::string::npos)
        << needle << " missing from Prometheus text";
  }
}

}  // namespace
}  // namespace serve
}  // namespace chainsformer
