#include "logic.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace perfbench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  SplitMix64 rng(seed ^ (tag * 0xD1B54A32D192ED03ull));
  return rng.Next();
}

KeySampler KeySampler::Uniform(uint32_t n) {
  KeySampler s;
  s.n_ = n;
  return s;
}

KeySampler KeySampler::Zipf(uint32_t n, double exponent) {
  KeySampler s;
  s.n_ = n;
  s.cdf_.resize(n);
  double total = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    s.cdf_[i] = total;
  }
  for (double& c : s.cdf_) c /= total;
  return s;
}

uint32_t KeySampler::Sample(SplitMix64& rng) const {
  const double u = rng.Uniform();
  if (cdf_.empty()) {
    return std::min(n_ - 1, static_cast<uint32_t>(u * n_));
  }
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(n_ - 1, static_cast<size_t>(it - cdf_.begin())));
}

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_qps,
                                     int64_t count, const KeySampler& keys) {
  std::vector<Arrival> out;
  if (rate_qps <= 0.0 || count <= 0 || keys.size() == 0) return out;
  out.reserve(static_cast<size_t>(count));
  SplitMix64 rng(seed);
  double t_ns = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    // Exponential gap; 1 - u is in (0, 1], so the log is finite.
    t_ns += -std::log(1.0 - rng.Uniform()) / rate_qps * 1e9;
    out.push_back({static_cast<int64_t>(t_ns), keys.Sample(rng)});
  }
  return out;
}

std::optional<double> TailPercentile(std::vector<double> samples, double q,
                                     int64_t min_beyond) {
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0) return std::nullopt;
  // Nearest rank (1-based); the small epsilon keeps q n = integer exact.
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples) s += x;
  return s / static_cast<double>(samples.size());
}

bool BacklogGrowing(const std::vector<double>& latencies_ms, double limit_ms) {
  const size_t n = latencies_ms.size();
  if (n < 8) return false;
  const size_t quarter = n / 4;
  const double first = Median(std::vector<double>(
      latencies_ms.begin(), latencies_ms.begin() + quarter));
  const double last = Median(
      std::vector<double>(latencies_ms.end() - quarter, latencies_ms.end()));
  return last > 2.0 * first && last > 0.5 * limit_ms;
}

bool StepPasses(const StepResult& step, const SearchCriteria& criteria) {
  if (!step.p99_ms.has_value() || *step.p99_ms >= criteria.p99_limit_ms) {
    return false;
  }
  if (step.sent <= 0) return false;
  const double fail_share =
      static_cast<double>(step.failed) / static_cast<double>(step.sent);
  if (fail_share > criteria.max_fail_share) return false;
  return !step.backlog_growing;
}

SearchResult SearchMaxRate(
    double start_qps, int max_steps, double growth, double rel_tol,
    const SearchCriteria& criteria,
    const std::function<std::optional<StepResult>(double)>& run_step) {
  SearchResult result;
  double lo = 0.0;  // best passing offered rate
  double hi = 0.0;  // lowest failing offered rate
  double rate = start_qps;
  for (int step = 0; step < max_steps; ++step) {
    std::optional<StepResult> step_result = run_step(rate);
    if (!step_result.has_value()) break;
    StepResult r = *step_result;
    r.offered_qps = rate;
    const bool pass = StepPasses(r, criteria);
    result.steps.push_back(r);
    if (pass) {
      if (rate > lo) {
        lo = rate;
        result.max_offered_qps = rate;
        result.max_rate_qps = r.achieved_qps;
      }
    } else if (hi == 0.0 || rate < hi) {
      hi = rate;
    }
    if (lo > 0.0 && hi > 0.0 && hi / lo - 1.0 <= rel_tol) break;
    if (hi == 0.0) {
      rate = lo * growth;
    } else if (lo == 0.0) {
      rate = hi / growth;
    } else {
      rate = std::sqrt(lo * hi);
    }
  }
  return result;
}

// --- Flat JSON ---------------------------------------------------------------

namespace {

class Cursor {
 public:
  explicit Cursor(std::string_view s) : s_(s) {}
  void SkipWs() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r' ||
            s_[i_] == '\n')) {
      ++i_;
    }
  }
  bool Eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool EatWord(std::string_view w) {
    if (s_.substr(i_, w.size()) == w) {
      i_ += w.size();
      return true;
    }
    return false;
  }
  bool AtEnd() const { return i_ >= s_.size(); }
  char Peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // Keys and values the benchmark reads are ASCII; other code
          // points are kept as a placeholder byte, not decoded.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool Number(std::string* out) {
    const size_t start = i_;
    Eat('-');
    if (Eat('0')) {
    } else if (Peek() >= '1' && Peek() <= '9') {
      while (Peek() >= '0' && Peek() <= '9') ++i_;
    } else {
      return false;
    }
    if (Eat('.')) {
      if (!(Peek() >= '0' && Peek() <= '9')) return false;
      while (Peek() >= '0' && Peek() <= '9') ++i_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++i_;
      if (Peek() == '+' || Peek() == '-') ++i_;
      if (!(Peek() >= '0' && Peek() <= '9')) return false;
      while (Peek() >= '0' && Peek() <= '9') ++i_;
    }
    *out = std::string(s_.substr(start, i_ - start));
    return true;
  }

 private:
  std::string_view s_;
  size_t i_ = 0;
};

}  // namespace

bool FlatJson::Has(const std::string& key) const {
  return strings.count(key) > 0 || numbers.count(key) > 0 ||
         bools.count(key) > 0;
}

std::optional<double> FlatJson::Number(const std::string& key) const {
  const auto it = numbers.find(key);
  if (it == numbers.end()) return std::nullopt;
  return std::strtod(it->second.c_str(), nullptr);
}

std::string FlatJson::String(const std::string& key) const {
  const auto it = strings.find(key);
  return it == strings.end() ? std::string() : it->second;
}

bool FlatJson::Bool(const std::string& key) const {
  const auto it = bools.find(key);
  return it != bools.end() && it->second;
}

bool ParseFlatJson(std::string_view line, FlatJson* out) {
  *out = FlatJson();
  Cursor c(line);
  c.SkipWs();
  if (!c.Eat('{')) return false;
  c.SkipWs();
  if (!c.Eat('}')) {
    while (true) {
      std::string key;
      c.SkipWs();
      if (!c.String(&key)) return false;
      if (out->Has(key)) return false;  // duplicate key
      c.SkipWs();
      if (!c.Eat(':')) return false;
      c.SkipWs();
      if (c.Peek() == '"') {
        std::string v;
        if (!c.String(&v)) return false;
        out->strings[key] = v;
      } else if (c.EatWord("true")) {
        out->bools[key] = true;
      } else if (c.EatWord("false")) {
        out->bools[key] = false;
      } else if (c.EatWord("null")) {
        out->strings[key] = "";
      } else {
        std::string num;
        if (!c.Number(&num)) return false;
        out->numbers[key] = num;
      }
      c.SkipWs();
      if (c.Eat(',')) continue;
      if (c.Eat('}')) break;
      return false;
    }
  }
  c.SkipWs();
  return c.AtEnd();
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kTransport: return "transport";
    case Verdict::kBadJson: return "bad_json";
    case Verdict::kError: return "error";
    case Verdict::kDegraded: return "degraded";
    case Verdict::kWrong: return "wrong";
  }
  return "?";
}

Verdict CheckAnswer(std::string_view line, const Expected& expected,
                    FlatJson* parsed) {
  FlatJson local;
  FlatJson& j = parsed != nullptr ? *parsed : local;
  if (!ParseFlatJson(line, &j)) return Verdict::kBadJson;
  if (j.Has("error")) return Verdict::kError;
  const std::string source = j.String("source");
  if (source == "model") {
    const std::optional<double> v = j.Number("value");
    if (!v.has_value() || expected.empty_toc) return Verdict::kWrong;
    return std::memcmp(&*v, &expected.value, sizeof(double)) == 0
               ? Verdict::kOk
               : Verdict::kWrong;
  }
  if (source == "empty_toc") {
    return expected.empty_toc ? Verdict::kOk : Verdict::kWrong;
  }
  if (source.empty() || !j.Has("value")) return Verdict::kWrong;
  return Verdict::kDegraded;
}

}  // namespace perfbench
