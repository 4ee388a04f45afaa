// Pure logic of the benchmark: seeded schedules, tail statistics, the
// max-rate search, and the answer oracle's comparison. No sockets, no
// processes and no ChainsFormer types, so perfbench_selftest can pin every
// rule here without a fixture.
#ifndef PERFBENCH_LOGIC_H_
#define PERFBENCH_LOGIC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's only random source, so a schedule depends on
/// the workload seed alone (not on the standard library's distributions).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform();

 private:
  uint64_t state_;
};

/// Derives an independent sub-seed (one per phase or step) from a seed.
uint64_t MixSeed(uint64_t seed, uint64_t tag);

/// Draws key indices in [0, n): uniform, or Zipf with exponent `s` over
/// ranks 0..n-1 (rank 0 hottest).
class KeySampler {
 public:
  static KeySampler Uniform(uint32_t n);
  static KeySampler Zipf(uint32_t n, double s);
  uint32_t Sample(SplitMix64& rng) const;
  uint32_t size() const { return n_; }

 private:
  uint32_t n_ = 0;
  std::vector<double> cdf_;  // empty = uniform
};

/// One request of an open-loop schedule: when it is due (ns after the phase
/// starts) and which key it asks for.
struct Arrival {
  int64_t t_ns = 0;
  uint32_t key = 0;
  bool operator==(const Arrival& o) const {
    return t_ns == o.t_ns && key == o.key;
  }
};

/// `count` Poisson arrivals at `rate_qps`, keys from `keys`; a function of
/// (seed, rate, count, sampler) only. Phases are sized in requests, not
/// seconds, so every phase has the samples its percentiles need.
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_qps,
                                     int64_t count, const KeySampler& keys);

/// Nearest-rank percentile `q` in (0, 1) of `samples`, or nullopt when
/// fewer than `min_beyond` samples lie beyond it (a tail estimate resting
/// on a handful of points is not reported).
std::optional<double> TailPercentile(std::vector<double> samples, double q,
                                     int64_t min_beyond = 10);

/// Median (mean of the middle two for even counts); 0 for no samples.
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// True when latencies (in send order) trend upward through a step: the
/// median of the last quarter exceeds both twice the first quarter's and
/// half the latency limit. A queue that grows without bound does this; a
/// stable queue does not.
bool BacklogGrowing(const std::vector<double>& latencies_ms, double limit_ms);

/// Outcome of one fixed-rate step of the max-rate search.
struct StepResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  // answers received / send window
  std::optional<double> p99_ms;
  int64_t sent = 0;
  int64_t failed = 0;
  bool backlog_growing = false;
};

struct SearchCriteria {
  double p99_limit_ms = 0.0;
  double max_fail_share = 0.0;
};

/// The three conditions of max_rate_qps: p99 reported and under the limit,
/// failures within the allowance, backlog not growing.
bool StepPasses(const StepResult& step, const SearchCriteria& criteria);

struct SearchResult {
  /// Achieved rate of the highest passing step; 0 when none passed.
  double max_rate_qps = 0.0;
  double max_offered_qps = 0.0;
  std::vector<StepResult> steps;
};

/// Finds the highest offered rate that passes: grows by `growth` from
/// `start_qps` until a step fails (shrinks when the first step fails), then
/// bisects geometrically between the best pass and the lowest fail until
/// they are within `rel_tol`, `max_steps` steps ran, or `run_step` returns
/// nullopt (the caller's time budget is spent).
SearchResult SearchMaxRate(
    double start_qps, int max_steps, double growth, double rel_tol,
    const SearchCriteria& criteria,
    const std::function<std::optional<StepResult>(double)>& run_step);

/// A parsed flat JSON object (the NDJSON response grammar: string, number,
/// true/false/null values; no nesting). Numbers keep their source text so a
/// %.17g value converts back to the exact double.
struct FlatJson {
  std::map<std::string, std::string> strings;
  std::map<std::string, std::string> numbers;
  std::map<std::string, bool> bools;

  bool Has(const std::string& key) const;
  std::optional<double> Number(const std::string& key) const;
  std::string String(const std::string& key) const;  // "" when absent
  bool Bool(const std::string& key) const;            // false when absent
};

/// Strict parse of one line; false on anything that is not a single flat
/// JSON object (the response then counts as failed).
bool ParseFlatJson(std::string_view line, FlatJson* out);

/// What the in-benchmark oracle computed for a key.
struct Expected {
  bool empty_toc = false;  // oracle Tree of Chains is empty
  double value = 0.0;      // PredictOnChainSets value (meaningless if empty)
};

enum class Verdict {
  kOk,
  kTransport,  // no answer (connection lost or drain timeout); set by callers
  kBadJson,
  kError,     // {"error": ...}
  kDegraded,  // deadline / shutdown / shard_down / any other fallback
  kWrong,     // model answer not bitwise equal, or empty_toc not expected
};

const char* VerdictName(Verdict v);

/// Checks one response line against the oracle: a "model" answer must equal
/// `expected.value` bit for bit; "empty_toc" is accepted only when the
/// oracle's Tree of Chains is empty; every other source is a failure.
Verdict CheckAnswer(std::string_view line, const Expected& expected,
                    FlatJson* parsed = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_LOGIC_H_
