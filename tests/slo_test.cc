// Pins the numbers of the live SLO block. A real InferenceService answers a
// known mix of requests (model, empty_toc, deadline, shutdown) and a Router
// over in-process shards reroutes once and degrades once; the window-scoped
// figures in the status documents must then move by exactly the tallies of
// those answers. Deadline and shutdown answers are staged with the
// dispatcher's batch hook, so no step races a wall clock.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/chainsformer.h"
#include "kg/dataset.h"
#include "serve/admin.h"
#include "serve/router.h"
#include "serve/service.h"
#include "util/string_util.h"

namespace chainsformer {
namespace serve {
namespace {

using core::ChainsFormerConfig;
using core::ChainsFormerModel;
using core::Query;

ChainsFormerConfig SmallConfig() {
  ChainsFormerConfig config;
  config.num_walks = 32;
  config.top_k = 8;
  config.hidden_dim = 16;
  config.filter_dim = 8;
  config.encoder_layers = 1;
  config.reasoner_layers = 1;
  config.num_heads = 2;
  config.epochs = 1;
  config.max_train_queries = 60;
  config.filter_pretrain_queries = 30;
  config.filter_pretrain_epochs = 1;
  config.seed = 13;
  config.verbose = false;
  return config;
}

/// The number after `"key": ` at or after `from`; 0 when absent.
double NumberAfter(const std::string& json, const std::string& key,
                   size_t from) {
  if (from == std::string::npos) return 0.0;
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return 0.0;
  return std::atof(json.c_str() + at + needle.size());
}

/// Window-scoped event counts read off one statusz document. Rates are
/// turned back into counts (rate x window_requests), which is what must
/// not change when the series behind them change.
struct SloFigures {
  int64_t requests = 0;
  int64_t deadline_miss = 0;
  int64_t degraded = 0;
  int64_t deadline = 0;
  int64_t empty_toc = 0;
  int64_t shutdown = 0;
  int64_t total_us_count = 0;  // window count of serve.phase.total_us
};

SloFigures ReadSlo(const std::string& json) {
  SloFigures f;
  const size_t slo = json.find("\"slo\": {");
  EXPECT_NE(slo, std::string::npos) << json;
  f.requests = std::llround(NumberAfter(json, "window_requests", slo));
  const auto count = [&](const char* rate) {
    return std::llround(NumberAfter(json, rate, slo) *
                        static_cast<double>(f.requests));
  };
  f.deadline_miss = count("deadline_miss_rate");
  f.degraded = count("degraded_rate");
  f.deadline = count("deadline");
  f.empty_toc = count("empty_toc");
  f.shutdown = count("shutdown");
  const size_t percentiles = json.find("\"percentiles\": {");
  const size_t total =
      percentiles == std::string::npos
          ? std::string::npos
          : json.find("\"serve.phase.total_us\": {", percentiles);
  f.total_us_count = std::llround(NumberAfter(json, "count", total));
  return f;
}

/// What the clients were told, by cause.
struct Tally {
  int64_t requests = 0;
  int64_t model = 0;
  int64_t degraded = 0;
  int64_t deadline = 0;
  int64_t empty_toc = 0;
  int64_t shutdown = 0;

  void Add(const ServeResponse& r) {
    ++requests;
    if (!r.degraded) {
      ++model;
      return;
    }
    ++degraded;
    if (r.source == "deadline") ++deadline;
    if (r.source == "empty_toc") ++empty_toc;
    if (r.source == "shutdown") ++shutdown;
  }
};

/// People in a ring who each know the next one, plus one person nobody
/// knows: every ring member's age has chains, the island's has none.
kg::Dataset RingWithIsland() {
  kg::Dataset d;
  d.name = "ring";
  kg::KnowledgeGraph& g = d.graph;
  const kg::AttributeId age = g.AddAttribute("age");
  const kg::RelationId knows = g.AddRelation("knows");
  std::vector<kg::EntityId> ring;
  for (int i = 0; i < 12; ++i) ring.push_back(g.AddEntity("p" + std::to_string(i)));
  const kg::EntityId island = g.AddEntity("island");
  for (size_t i = 0; i < ring.size(); ++i) {
    const double value = 20.0 + 3.0 * static_cast<double>(i);
    g.AddTriple(ring[i], knows, ring[(i + 1) % ring.size()]);
    g.AddNumeric(ring[i], age, value);
    d.split.train.push_back({ring[i], age, value});
  }
  g.AddNumeric(island, age, 70.0);
  g.Finalize();
  d.split.test = {{island, age, 70.0}};
  return d;
}

TEST(SloPinTest, ServiceWindowFiguresMatchTheAnswersGiven) {
  const kg::Dataset dataset = RingWithIsland();
  ChainsFormerModel model(dataset, SmallConfig());
  model.Train();
  const kg::AttributeId age = dataset.graph.FindAttribute("age");
  const std::vector<Query> with_chains = {
      {dataset.graph.FindEntity("p0"), age},
      {dataset.graph.FindEntity("p1"), age},
      {dataset.graph.FindEntity("p2"), age}};
  const Query empty{dataset.graph.FindEntity("island"), age};
  for (const Query& q : with_chains) {
    ASSERT_FALSE(model.RetrieveChains(q).empty());
  }
  ASSERT_TRUE(model.RetrieveChains(empty).empty());

  const SloFigures before = ReadSlo(StatusJson(nullptr));
  Tally tally;
  {
    ServeOptions options;
    options.batch_window_us = 0;
    options.deadline_ms = 0;
    InferenceService service(model, options);
    for (const Query& q : with_chains) tally.Add(service.Predict(q));
    tally.Add(service.Predict(empty));
  }
  {
    ServeOptions options;
    options.batch_window_us = 0;
    options.deadline_ms = 1;
    auto owned = std::make_unique<InferenceService>(model, options);
    InferenceService& service = *owned;
    // The dispatcher holds its first batch in the hook until released, so
    // no request below can be answered by the model.
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::atomic<bool> first{true};
    service.SetBatchHookForTesting([&entered, &first, released] {
      if (first.exchange(false)) entered.set_value();
      released.wait();
    });
    const Query q = with_chains.front();
    tally.Add(service.Predict(q));  // held in the batch: deadline
    entered.get_future().wait();
    tally.Add(service.Predict(q));  // queued behind it: deadline
    EXPECT_EQ(service.queue_depth(), 1u);

    // The destructor marks the service as shutting down, then waits for the
    // held dispatcher. A request that joins the queue before that mark
    // misses its deadline; the first one after it is answered "shutdown".
    std::thread closing([&owned] { owned.reset(); });
    for (;;) {
      const ServeResponse r = service.Predict(q);
      tally.Add(r);
      if (r.source == "shutdown") break;
      EXPECT_EQ(r.source, "deadline");
      if (r.source != "deadline") break;
    }
    release.set_value();
    closing.join();
  }
  EXPECT_EQ(tally.model, 3);
  EXPECT_GE(tally.empty_toc, 1);
  EXPECT_GE(tally.deadline, 2);
  EXPECT_EQ(tally.shutdown, 1);

  const SloFigures after = ReadSlo(StatusJson(nullptr));
  EXPECT_EQ(after.requests - before.requests, tally.requests);
  EXPECT_EQ(after.deadline_miss - before.deadline_miss, tally.deadline);
  EXPECT_EQ(after.degraded - before.degraded, tally.degraded);
  EXPECT_EQ(after.deadline - before.deadline, tally.deadline);
  EXPECT_EQ(after.empty_toc - before.empty_toc, tally.empty_toc);
  EXPECT_EQ(after.shutdown - before.shutdown, tally.shutdown);
  EXPECT_EQ(after.total_us_count - before.total_us_count, tally.requests);
}

TEST(SloPinTest, RouterShardDownCountsReroutesAndDegrades) {
  std::vector<LocalShardBackend*> shards;
  std::vector<std::unique_ptr<ShardBackend>> backends;
  for (int i = 0; i < 2; ++i) {
    auto b = std::make_unique<LocalShardBackend>(
        "local_" + std::to_string(i), [](const std::string&) {
          return std::string("{\"value\": 1, \"source\": \"model\"}");
        });
    shards.push_back(b.get());
    backends.push_back(std::move(b));
  }
  RouterOptions options;
  options.health_period_ms = 0;
  Router router(std::move(backends), options);
  const auto shard_down = [&router] {
    const std::string json = router.StatusJson();
    return std::llround(NumberAfter(json, "window_shard_down", 0));
  };
  const std::string line = "{\"id\": 1, \"entity\": \"e\", \"attribute\": \"a\"}";
  const int64_t before = shard_down();

  shards[static_cast<size_t>(router.ring().Owner("e"))]->SetDown(true);
  EXPECT_NE(router.HandleLine(line).find("\"rerouted\": true"),
            std::string::npos);
  for (LocalShardBackend* shard : shards) shard->SetDown(true);
  EXPECT_NE(router.HandleLine(line).find("\"source\": \"shard_down\""),
            std::string::npos);

  EXPECT_EQ(shard_down() - before, 2);
}

}  // namespace
}  // namespace serve
}  // namespace chainsformer
