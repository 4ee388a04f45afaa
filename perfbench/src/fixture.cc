#include "fixture.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "kg/loader.h"
#include "kg/synthetic.h"
#include "serve/checkpoint.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = chainsformer::core;
namespace kg = chainsformer::kg;
namespace serve = chainsformer::serve;

// The serve tool's defaults (--seed=42, --kernel-threads=1): the split
// seed and execution config every server process loads with.
constexpr uint64_t kServeSeed = 42;

core::ChainsFormerConfig ServeBaseConfig() {
  core::ChainsFormerConfig config;
  config.kernel_threads = 1;
  config.seed = kServeSeed;
  config.verbose = false;
  return config;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: fixture: %s\n", what.c_str());
  std::exit(1);
}

}  // namespace

FixtureFiles EnsureFixture(const std::string& root, const FixtureSpec& spec,
                           double* build_s) {
  char tag[160];
  std::snprintf(tag, sizeof(tag), "yago-s%llu-x%g-w%d-k%d-d%d-e%d-q%d",
                static_cast<unsigned long long>(spec.seed), spec.scale,
                spec.num_walks, spec.top_k, spec.hidden_dim, spec.epochs,
                spec.train_queries);
  FixtureFiles files;
  files.dir = (fs::path(root) / tag).string();
  files.triples = files.dir + "/triples.tsv";
  files.numeric = files.dir + "/numeric.tsv";
  files.checkpoint = files.dir + "/model.cfsm";
  *build_s = 0.0;
  if (fs::exists(files.dir + "/DONE")) return files;

  const int64_t start = NowNs();
  const std::string tmp = files.dir + ".tmp";
  std::error_code ec;
  fs::remove_all(tmp, ec);
  fs::create_directories(tmp, ec);
  if (ec) Die("cannot create " + tmp);

  kg::SyntheticOptions gen;
  gen.scale = spec.scale;
  gen.seed = spec.seed;
  kg::SaveTsvDataset(kg::MakeYago15kLike(gen), tmp + "/triples.tsv",
                     tmp + "/numeric.tsv");

  // The `chainsformer train` path: load the TSVs with the split seed, train
  // (filter pre-training + regression), save a self-describing checkpoint.
  const kg::Dataset ds = kg::LoadTsvDataset(
      "cli", tmp + "/triples.tsv", tmp + "/numeric.tsv", spec.seed);
  core::ChainsFormerConfig config;
  config.num_walks = spec.num_walks;
  config.top_k = spec.top_k;
  config.hidden_dim = spec.hidden_dim;
  config.epochs = spec.epochs;
  config.max_train_queries = spec.train_queries;
  config.learning_rate = 4e-3f;
  config.kernel_threads = 4;
  config.eval_threads = 4;
  config.seed = spec.seed;
  config.verbose = false;
  core::ChainsFormerModel model(ds, config);
  const core::TrainReport report = model.Train();
  if (!serve::SaveModel(model, tmp + "/model.cfsm")) {
    Die("cannot write " + tmp + "/model.cfsm");
  }
  std::FILE* done = std::fopen((tmp + "/DONE").c_str(), "w");
  if (done == nullptr) Die("cannot write marker");
  std::fprintf(done, "epochs %d best_valid_nmae %.6f\n", report.epochs_run,
               report.best_valid_mae);
  std::fclose(done);
  fs::remove_all(files.dir, ec);
  fs::rename(tmp, files.dir, ec);
  if (ec) Die("cannot move fixture into " + files.dir);
  *build_s = static_cast<double>(NowNs() - start) / 1e9;
  return files;
}

LoadedModel LoadFixture(const FixtureFiles& files) {
  LoadedModel out;
  const core::ChainsFormerConfig base = ServeBaseConfig();
  int64_t t0 = NowNs();
  out.dataset = std::make_unique<kg::Dataset>(
      kg::LoadTsvDataset("serve", files.triples, files.numeric, kServeSeed));
  int64_t t1 = NowNs();
  out.model = serve::LoadModel(*out.dataset, base, files.checkpoint);
  int64_t t2 = NowNs();
  if (out.model == nullptr) Die("cannot load " + files.checkpoint);
  out.kg_load_ms = static_cast<double>(t1 - t0) / 1e6;
  out.checkpoint_load_ms = static_cast<double>(t2 - t1) / 1e6;
  return out;
}

}  // namespace perfbench
