// The benchmark fixture: the paper-scale YAGO15K-like graph and a serving
// checkpoint trained on it with the repository's own training path. Built
// once per build directory and reused by every later run.
#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/chainsformer.h"
#include "kg/dataset.h"

namespace perfbench {

/// Everything that determines the fixture's bytes. Paper values: N_s = 2048
/// walks, k = 16 chains kept by the filter, d = 64, scale 1.0 = 15k entities.
struct FixtureSpec {
  uint64_t seed = 42;  // graph generator, split and training seed
  double scale = 1.0;
  int num_walks = 2048;
  int top_k = 16;
  int hidden_dim = 64;
  int epochs = 2;
  int train_queries = 400;
};

struct FixtureFiles {
  std::string dir;
  std::string triples;
  std::string numeric;
  std::string checkpoint;
};

/// Returns the fixture under `root`, building it first when absent.
/// `build_s` gets the build time (0 when an existing fixture was reused).
/// Aborts the process on failure.
FixtureFiles EnsureFixture(const std::string& root, const FixtureSpec& spec,
                           double* build_s);

/// The fixture loaded exactly as `chainsformer_serve` loads it (same split
/// seed, same execution config), so the oracle's answers are the server's.
struct LoadedModel {
  std::unique_ptr<chainsformer::kg::Dataset> dataset;
  std::unique_ptr<chainsformer::core::ChainsFormerModel> model;
  double kg_load_ms = 0.0;
  double checkpoint_load_ms = 0.0;
};

LoadedModel LoadFixture(const FixtureFiles& files);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
