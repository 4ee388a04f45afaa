// End-to-end test of the `chainsformer` CLI's cheap subcommands (generate +
// analyze) and the observability surface of a tiny train run. Full training
// subcommands are covered by the library tests; here we verify the tool
// wiring: flags, TSV output, graph reload, and metrics/trace export.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kg/loader.h"
#include "test_json.h"

namespace chainsformer {
namespace {

std::string CliPath() {
  // ctest runs test binaries with CWD = build/tests; the CLI lives in
  // build/tools. Fall back to skipping when the layout differs.
  return "../tools/chainsformer";
}

bool CliAvailable() {
  std::ifstream f(CliPath());
  return f.good();
}

std::string RunCommand(const std::string& cmd) {
  std::string output;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return output;
  char buffer[256];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  pclose(pipe);
  return output;
}

TEST(CliTest, GenerateWritesLoadableTsv) {
  if (!CliAvailable()) GTEST_SKIP() << "CLI binary not found";
  const std::string triples = "/tmp/cf_cli_triples.tsv";
  const std::string numeric = "/tmp/cf_cli_numeric.tsv";
  const std::string out = RunCommand(CliPath() +
                                     " generate --dataset=yago --scale=0.03"
                                     " --triples=" + triples +
                                     " --numeric=" + numeric);
  EXPECT_NE(out.find("wrote"), std::string::npos) << out;
  const kg::Dataset ds = kg::LoadTsvDataset("cli-test", triples, numeric);
  EXPECT_GT(ds.graph.num_entities(), 100);
  EXPECT_EQ(ds.graph.num_attributes(), 7);
  std::remove(triples.c_str());
  std::remove(numeric.c_str());
}

TEST(CliTest, AnalyzeReportsStructure) {
  if (!CliAvailable()) GTEST_SKIP() << "CLI binary not found";
  const std::string triples = "/tmp/cf_cli_triples2.tsv";
  const std::string numeric = "/tmp/cf_cli_numeric2.tsv";
  RunCommand(CliPath() + " generate --dataset=fb --scale=0.03 --triples=" +
             triples + " --numeric=" + numeric);
  const std::string out = RunCommand(CliPath() + " analyze --triples=" + triples +
                                     " --numeric=" + numeric);
  EXPECT_NE(out.find("entities:"), std::string::npos) << out;
  EXPECT_NE(out.find("avg degree:"), std::string::npos);
  EXPECT_NE(out.find("reachable in 3 hops"), std::string::npos);
  std::remove(triples.c_str());
  std::remove(numeric.c_str());
}

TEST(CliTest, TrainWritesMetricsAndTraceJson) {
  if (!CliAvailable()) GTEST_SKIP() << "CLI binary not found";
  const std::string triples = "/tmp/cf_cli_triples3.tsv";
  const std::string numeric = "/tmp/cf_cli_numeric3.tsv";
  const std::string metrics_path = "/tmp/cf_cli_metrics.json";
  const std::string trace_path = "/tmp/cf_cli_trace.json";
  RunCommand(CliPath() + " generate --dataset=yago --scale=0.03 --triples=" +
             triples + " --numeric=" + numeric);
  const std::string out = RunCommand(
      CliPath() + " train --triples=" + triples + " --numeric=" + numeric +
      " --epochs=1 --train-queries=30 --num-walks=24 --top-k=6"
      " --hidden-dim=16 --filter-dim=8 --eval-threads=2 --verbose=false"
      " --metrics-json=" + metrics_path + " --trace-json=" + trace_path +
      " --stats");
  EXPECT_NE(out.find("trained"), std::string::npos) << out;
  EXPECT_NE(out.find("-- counters --"), std::string::npos) << out;  // --stats

  // Metrics JSON: parseable, with nonzero train.epochs and stage counters.
  std::ifstream mf(metrics_path);
  ASSERT_TRUE(mf.good()) << "metrics JSON missing: " << out;
  std::stringstream ms;
  ms << mf.rdbuf();
  const std::string metrics_json = ms.str();
  EXPECT_TRUE(test_json::IsValidJson(metrics_json)) << metrics_json;
  double v = 0.0;
  ASSERT_TRUE(test_json::FindNumberAfterKey(metrics_json, "train.epochs", &v));
  EXPECT_GT(v, 0.0) << metrics_json;
  for (const char* stage :
       {"pipeline.retrieval.calls", "pipeline.filter.calls",
        "pipeline.encode.calls", "pipeline.project.calls",
        "pipeline.aggregate.calls", "kg.load.calls", "eval.queries"}) {
    ASSERT_TRUE(test_json::FindNumberAfterKey(metrics_json, stage, &v))
        << stage << " missing from " << metrics_json;
    EXPECT_GT(v, 0.0) << stage;
  }

  // Trace JSON: parseable Chrome trace with pipeline spans.
  std::ifstream tf(trace_path);
  ASSERT_TRUE(tf.good()) << "trace JSON missing: " << out;
  std::stringstream ts;
  ts << tf.rdbuf();
  const std::string trace_json = ts.str();
  EXPECT_TRUE(test_json::IsValidJson(trace_json));
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  for (const char* span : {"retrieval", "filter", "encode", "train.epoch"}) {
    EXPECT_NE(trace_json.find(std::string("\"name\": \"") + span + "\""),
              std::string::npos)
        << span << " span missing";
  }
  std::remove(triples.c_str());
  std::remove(numeric.c_str());
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

std::string ServePath() { return "../tools/chainsformer_serve"; }

/// Output lines of `text`, without their newlines.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(CliTest, ServeStdinAnswersEveryRequestLineWithOneJsonLine) {
  if (!CliAvailable() || !std::ifstream(ServePath()).good()) {
    GTEST_SKIP() << "CLI binaries not found";
  }
  const std::string triples = "/tmp/cf_cli_triples4.tsv";
  const std::string numeric = "/tmp/cf_cli_numeric4.tsv";
  const std::string checkpoint = "/tmp/cf_cli_model4.cfsm";
  const std::string requests = "/tmp/cf_cli_requests4.ndjson";
  RunCommand(CliPath() + " generate --dataset=yago --scale=0.03 --triples=" +
             triples + " --numeric=" + numeric);
  const std::string trained = RunCommand(
      CliPath() + " train --triples=" + triples + " --numeric=" + numeric +
      " --epochs=1 --train-queries=30 --num-walks=24 --top-k=6"
      " --hidden-dim=16 --filter-dim=8 --verbose=false --checkpoint=" +
      checkpoint);
  ASSERT_NE(trained.find("trained"), std::string::npos) << trained;

  // A model query, an unknown entity whose name holds a tab (the error
  // echoes it, so it must come back escaped), a health check, and a blank
  // line, which gets no answer.
  const kg::Dataset ds = kg::LoadTsvDataset("cli-test", triples, numeric);
  ASSERT_FALSE(ds.split.test.empty());
  const auto& query = ds.split.test.front();
  {
    std::ofstream out(requests);
    out << "{\"id\": 1, \"entity\": \"" << ds.graph.EntityName(query.entity)
        << "\", \"attribute\": \""
        << ds.graph.AttributeName(query.attribute) << "\"}\n"
        << "{\"id\": 2, \"entity\": \"no\tsuch\", \"attribute\": \""
        << ds.graph.AttributeName(query.attribute) << "\"}\n"
        << "{\"cmd\": \"healthz\"}\n"
        << "\n";
  }
  const std::string flags = " --checkpoint=" + checkpoint +
                            " --triples=" + triples + " --numeric=" + numeric;
  // stdout only: the server logs its startup to stderr.
  const std::string out = RunCommand("(" + ServePath() + flags +
                                     " --serve-threads=2 < " + requests +
                                     " 2>/dev/null)");
  // Answers arrive in completion order, so match them by content.
  const std::vector<std::string> lines = Lines(out);
  ASSERT_EQ(lines.size(), 3u) << out;
  int model = 0, unknown = 0, health = 0;
  for (const std::string& line : lines) {
    EXPECT_TRUE(test_json::IsValidJson(line)) << line;
    if (line.find("\"id\": 1,") != std::string::npos &&
        line.find("\"value\"") != std::string::npos) {
      ++model;
    }
    if (line.find("\"id\": 2,") != std::string::npos &&
        line.find("unknown entity: no\\u0009such") != std::string::npos) {
      ++unknown;
    }
    if (line == "{\"ok\": true}") ++health;
  }
  EXPECT_EQ(model, 1) << out;
  EXPECT_EQ(unknown, 1) << out;
  EXPECT_EQ(health, 1) << out;

  // No worker means no answers: refused with the usage error, in every role.
  // `timeout` ends a server that starts anyway, so a regression fails here
  // instead of serving forever.
  for (const std::string& role :
       {flags, flags + " --port=1", std::string(" --router=127.0.0.1:1 --port=1")}) {
    const int status = std::system(("timeout 30 " + ServePath() + role +
                                    " --serve-threads=0 < /dev/null > /dev/null 2>&1")
                                       .c_str());
    ASSERT_TRUE(WIFEXITED(status)) << role;
    EXPECT_EQ(WEXITSTATUS(status), 2) << role;
  }
  for (const std::string& path : {triples, numeric, checkpoint, requests}) {
    std::remove(path.c_str());
  }
}

// The router role ends in the same serve path as the model roles: it answers
// stdin without --port and writes --metrics-json on exit. Port 1 refuses
// every connection, so both queries degrade answer-shaped.
TEST(CliTest, RouterAnswersStdinAndWritesMetrics) {
  if (!std::ifstream(ServePath()).good()) GTEST_SKIP() << "serve binary not found";
  const std::string requests = "/tmp/cf_cli_requests5.ndjson";
  const std::string metrics_path = "/tmp/cf_cli_router_metrics5.json";
  {
    std::ofstream out(requests);
    out << "{\"id\": 1, \"entity\": \"e1\", \"attribute\": \"a\"}\n"
        << "{\"id\": 2, \"entity\": \"e2\", \"attribute\": \"a\"}\n"
        << "{\"cmd\": \"healthz\"}\n";
  }
  // stdout only; `timeout` ends a router that outlives its stdin.
  const std::string out =
      RunCommand("(timeout 60 " + ServePath() +
                 " --router=127.0.0.1:1 --metrics-json=" + metrics_path +
                 " < " + requests + " 2>/dev/null)");
  const std::vector<std::string> lines = Lines(out);
  ASSERT_EQ(lines.size(), 3u) << out;
  int shard_down = 0;
  for (const std::string& line : lines) {
    EXPECT_TRUE(test_json::IsValidJson(line)) << line;
    if (line.find("\"source\": \"shard_down\"") != std::string::npos) {
      ++shard_down;
    }
  }
  EXPECT_EQ(shard_down, 2) << out;

  std::stringstream metrics_json;
  metrics_json << std::ifstream(metrics_path).rdbuf();
  double v = 0.0;
  ASSERT_TRUE(test_json::FindNumberAfterKey(metrics_json.str(), "router.requests", &v))
      << "metrics JSON missing or incomplete: " << metrics_json.str();
  EXPECT_EQ(v, 3.0);
  ASSERT_TRUE(test_json::FindNumberAfterKey(metrics_json.str(), "router.degraded", &v))
      << metrics_json.str();
  EXPECT_EQ(v, 2.0);
  std::remove(requests.c_str());
  std::remove(metrics_path.c_str());
}

TEST(CliTest, UsageOnUnknownCommand) {
  if (!CliAvailable()) GTEST_SKIP() << "CLI binary not found";
  const std::string out = RunCommand(CliPath() + " frobnicate");
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

}  // namespace
}  // namespace chainsformer
