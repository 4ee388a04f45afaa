// cf_lint — project-specific static lint for the ChainsFormer sources.
//
// Usage: cf_lint <dir> [<dir>...]
//        cf_lint --docs <repo_root>
//        cf_lint --suppressions-baseline <baseline_file> <dir> [<dir>...]
//
// In the default (source) mode, walks every .h/.cc file under the given
// directories and enforces the repo's coding invariants that the compiler
// cannot:
//
//   no-rand              libc rand()/srand() — all randomness must go through
//                        util/rng.h so runs are seedable and reproducible.
//   no-cout              std::cout/std::cerr in library code — the library
//                        logs through CF_LOG and returns data; only tools/,
//                        tests/ and bench/ own stdout.
//   no-naked-new-array   naked `new T[n]` — raw array news leak on every
//                        early return; use std::vector or std::unique_ptr.
//   unchecked-data-index raw `.data()[i]` indexing with no CF_CHECK* in the
//                        preceding window (20 lines) — pointer indexing
//                        bypasses the debug bounds of at()/set(), so the
//                        bounds must be established nearby.
//   include-cycle        #include cycles among project headers (quoted
//                        includes), found by DFS over the include graph.
//   graph-executor-tape-free
//                        src/graph/executor* must not include tensor/ops.h
//                        or tensor/nn.h — the compiled-plan executor is the
//                        tape-free hot path (DESIGN §6f) and may only use
//                        the shared tensor/kernels.h primitives.
//   raw-intrinsics-outside-kernels
//                        <immintrin.h> includes or _mm_*/_mm256_*/_mm512_*
//                        intrinsic calls anywhere but src/tensor/kernels.cc —
//                        all SIMD lives behind the kernels API so the scalar
//                        fallbacks and the runtime CPU dispatch remain the
//                        single portability seam (DESIGN §6g).
//   naked-mutex-outside-sync
//                        std::mutex / std::lock_guard / std::unique_lock /
//                        std::condition_variable (and their <mutex> /
//                        <condition_variable> includes) anywhere but inside
//                        util/sync.* suppressions — all locking goes through
//                        cf::Mutex so every acquisition is annotated for the
//                        Clang thread-safety analysis and hooked into the
//                        lock-order validator (DESIGN §6h).
//   unannotated-guarded-member
//                        member/variable declarations following a cf::Mutex
//                        member (until the first blank line, brace or access
//                        specifier) must carry CF_GUARDED_BY; atomics,
//                        cf::CondVar, cf::Mutex and std::thread members are
//                        exempt. Keeps the "every guarded member is
//                        annotated" invariant from rotting as structs grow.
//   implicit-seqcst-atomic
//                        atomic .load/.store/.exchange/.fetch_*/
//                        .compare_exchange_* calls must spell an explicit
//                        std::memory_order — the seq_cst default hides the
//                        cost and the intent on hot paths (metric updates,
//                        windowed or not, are documented as relaxed).
//   blocking-io-outside-net
//                        global-scope ::read/::write/::recv/::send/::accept/
//                        ::connect calls anywhere but util/net.cc — all
//                        socket I/O goes through the util/net helpers so the
//                        serving layers stay nonblocking state machines
//                        (DESIGN §6i) instead of regressing into
//                        thread-per-connection blocking loops.
//
// In --docs mode, checks the committed markdown (README.md, DESIGN.md,
// docs/ARCHITECTURE.md, docs/OPERATIONS.md, CHANGES.md) against the tree so
// the documentation cannot rot:
//
//   stale-path           every `src/...`, `tools/...`, `bench/...`,
//                        `tests/...`, `docs/...` path mentioned in a doc must
//                        exist (supports `*` globs, `{h,cc}` brace lists and
//                        extensionless module/target names).
//   unknown-flag         every `--flag` mentioned must appear as a "flag"
//                        string literal in the sources (FlagParser keys), or
//                        be on the short external-tool allowlist (cmake,
//                        ctest, …).
//   unknown-env-var      every `CF_*` environment variable mentioned must
//                        appear verbatim in the sources.
//   stale-metric         every dotted metric-style token under a subsystem
//                        prefix from src/util/metric_names.h (serve.,
//                        router., plan., …) must be a constant there, a
//                        prefix of one, or a dotted literal still present in
//                        the sources — renaming a metric without updating
//                        the runbook (docs/OPERATIONS.md) fails the check.
//
// --docs also prints a warn-only doc-coverage count for the public headers
// of src/core and src/serve (top-level classes/structs missing a `///` doc
// comment); warnings never affect the exit status.
//
// A finding on a line carrying the comment `// cf-lint: allow(<rule>)` is
// suppressed; the suppression names exactly one rule and documents itself at
// the offending site. Exit status is 1 if any finding survives, 0 otherwise,
// 2 on usage/IO errors — so the binary doubles as a ctest test (label
// `lint`).
//
// The lint is line-based on purpose: the rules target idioms that are
// textually stable in this codebase, and a lexer-free checker stays fast
// enough to run on every ctest invocation.

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  int line = 0;  // 1-based; 0 for file-level findings (cycles)
  std::string rule;
  std::string message;
};

/// True when line[pos] starts an identifier-boundary occurrence of `word`
/// (no [A-Za-z0-9_] immediately before or after).
bool IsWordAt(const std::string& line, size_t pos, const std::string& word) {
  if (pos > 0) {
    const char before = line[pos - 1];
    if (std::isalnum(static_cast<unsigned char>(before)) || before == '_') {
      return false;
    }
  }
  const size_t end = pos + word.size();
  if (end < line.size()) {
    const char after = line[end];
    if (std::isalnum(static_cast<unsigned char>(after)) || after == '_') {
      return false;
    }
  }
  return true;
}

/// First identifier-boundary occurrence of `word`, or npos.
size_t FindWord(const std::string& line, const std::string& word) {
  size_t pos = line.find(word);
  while (pos != std::string::npos) {
    if (IsWordAt(line, pos, word)) return pos;
    pos = line.find(word, pos + 1);
  }
  return std::string::npos;
}

/// Strips a trailing // comment (naive: does not parse string literals, which
/// is fine for the idioms linted here) and returns the code part.
std::string CodePart(const std::string& line) {
  const size_t pos = line.find("//");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

/// True when the line carries `// cf-lint: allow(<rule>)` for this rule.
bool Suppressed(const std::string& line, const std::string& rule) {
  const size_t pos = line.find("cf-lint: allow(");
  if (pos == std::string::npos) return false;
  const size_t open = line.find('(', pos);
  const size_t close = line.find(')', open);
  if (close == std::string::npos) return false;
  return line.substr(open + 1, close - open - 1) == rule;
}

/// `new <type>[` — a naked array new. Placement/array forms through smart
/// pointers don't match because they don't spell `new T[`.
bool HasNakedNewArray(const std::string& code) {
  size_t pos = code.find("new");
  while (pos != std::string::npos) {
    if (IsWordAt(code, pos, "new")) {
      size_t i = pos + 3;
      while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) ++i;
      // Consume a type-ish token: identifiers, ::, <>, spaces between them.
      size_t j = i;
      while (j < code.size() &&
             (std::isalnum(static_cast<unsigned char>(code[j])) ||
              code[j] == '_' || code[j] == ':' || code[j] == '<' ||
              code[j] == '>' || code[j] == ',' || code[j] == ' ')) {
        ++j;
      }
      if (j > i && j < code.size() && code[j] == '[') return true;
    }
    pos = code.find("new", pos + 1);
  }
  return false;
}

/// Path of a quoted #include directive, or "" if the line is not one.
std::string QuotedInclude(const std::string& line) {
  size_t i = 0;
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
  if (i >= line.size() || line[i] != '#') return "";
  ++i;
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
  if (line.compare(i, 7, "include") != 0) return "";
  const size_t open = line.find('"', i + 7);
  if (open == std::string::npos) return "";
  const size_t close = line.find('"', open + 1);
  if (close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

/// Leading/trailing-whitespace trim.
std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Raw standard-library synchronization tokens banned outside util/sync.*
/// (suppressions inside sync.{h,cc} document the one legitimate home).
constexpr const char* kNakedMutexTokens[] = {
    "std::mutex",       "std::recursive_mutex", "std::timed_mutex",
    "std::shared_mutex", "std::lock_guard",     "std::unique_lock",
    "std::scoped_lock", "std::condition_variable",
    "<mutex>",          "<condition_variable>", "<shared_mutex>",
};

/// Blocking I/O syscalls whose global-scope spellings are confined to
/// util/net.cc (the sanctioned socket-helper TU).
constexpr const char* kBlockingIoCalls[] = {
    "::read(", "::write(", "::recv(", "::send(", "::accept(", "::connect(",
};

/// Atomic member functions whose one-argument form defaults to seq_cst.
constexpr const char* kAtomicOps[] = {
    "load(",       "store(",     "exchange(",
    "fetch_add(",  "fetch_sub(", "fetch_and(",
    "fetch_or(",   "fetch_xor(", "compare_exchange_weak(",
    "compare_exchange_strong(",
};

class Linter {
 public:
  void LintFile(const fs::path& path, const fs::path& root) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cf_lint: cannot read " << path.string() << "\n";
      io_error_ = true;
      return;
    }
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);

    // Key headers by their include path (path relative to the lint root's
    // parent, e.g. "tensor/ops.h" for src/tensor/ops.h) so the include graph
    // edges match the quoted #include spellings.
    const std::string rel = fs::relative(path, root).generic_string();
    const std::string display = path.generic_string();
    if (path.extension() == ".h") {
      header_lines_[rel] = display;
    }

    // Most recent line index (0-based) holding a CF_CHECK*/CF_LOG guard, for
    // the unchecked-data-index window.
    int last_check = -1000;
    for (size_t n = 0; n < lines.size(); ++n) {
      const std::string& raw = lines[n];
      const std::string code = CodePart(raw);
      const int lineno = static_cast<int>(n) + 1;

      if (code.find("CF_CHECK") != std::string::npos) {
        last_check = static_cast<int>(n);
      }

      const std::string inc = QuotedInclude(code);
      if (!inc.empty()) includes_[rel].push_back(inc);

      auto report = [&](const std::string& rule, const std::string& message) {
        if (Suppressed(raw, rule)) return;
        findings_.push_back({display, lineno, rule, message});
      };

      if (!inc.empty() && rel.rfind("graph/executor", 0) == 0 &&
          (inc == "tensor/ops.h" || inc == "tensor/nn.h")) {
        report("graph-executor-tape-free",
               "the compiled-plan executor must stay off the tape layer; "
               "replace " + inc + " with tensor/kernels.h primitives");
      }

      // SIMD containment: vector intrinsics outside the kernels TU would
      // fork the portability seam — every new user would need its own scalar
      // fallback and CPU dispatch. The immintrin.h include is an angle
      // include, so QuotedInclude() above does not see it.
      if (rel != "tensor/kernels.cc") {
        bool raw_simd = code.find("immintrin.h") != std::string::npos;
        for (const char* prefix : {"_mm_", "_mm256_", "_mm512_"}) {
          if (raw_simd) break;
          size_t pos = code.find(prefix);
          while (pos != std::string::npos) {
            const char before = pos > 0 ? code[pos - 1] : ' ';
            if (!std::isalnum(static_cast<unsigned char>(before)) &&
                before != '_') {
              raw_simd = true;
              break;
            }
            pos = code.find(prefix, pos + 1);
          }
        }
        if (raw_simd) {
          report("raw-intrinsics-outside-kernels",
                 "raw SIMD intrinsics belong in tensor/kernels.cc behind the "
                 "dispatched kernels API");
        }
      }

      if (FindWord(code, "rand") != std::string::npos &&
          code.find("rand()") != std::string::npos) {
        report("no-rand",
               "libc rand() is not seedable per-run; use util/rng.h");
      }
      if (FindWord(code, "srand") != std::string::npos) {
        report("no-rand", "srand() seeds global libc state; use util/rng.h");
      }
      if (code.find("std::cout") != std::string::npos ||
          code.find("std::cerr") != std::string::npos) {
        report("no-cout",
               "library code must log via CF_LOG, not std::cout/std::cerr");
      }
      if (HasNakedNewArray(code)) {
        report("no-naked-new-array",
               "naked new[] leaks on early return; use std::vector");
      }
      if (code.find(".data()[") != std::string::npos &&
          static_cast<int>(n) - last_check > kCheckWindow) {
        std::ostringstream os;
        os << "raw .data()[...] indexing with no CF_CHECK in the preceding "
           << kCheckWindow << " lines";
        report("unchecked-data-index", os.str());
      }

      // Socket I/O goes through util/net (DESIGN §6i): a blocking ::read
      // in serving code is exactly how the pre-PR-10 listener ended up
      // unable to accept while one connection dribbled a request in.
      if (rel != "util/net.cc") {
        for (const char* call : kBlockingIoCalls) {
          size_t pos = code.find(call);
          bool hit = false;
          while (pos != std::string::npos && !hit) {
            // Global-scope spelling only: "std::read(" has an identifier
            // before the "::" and is someone else's function.
            const char before = pos > 0 ? code[pos - 1] : ' ';
            if (!std::isalnum(static_cast<unsigned char>(before)) &&
                before != '_' && before != ':') {
              hit = true;
            }
            pos = code.find(call, pos + 1);
          }
          if (hit) {
            report("blocking-io-outside-net",
                   std::string(call) +
                       "...) outside util/net.cc; use the util/net.h "
                       "helpers so socket I/O stays behind the nonblocking "
                       "seam");
            break;
          }
        }
      }

      // Locking goes through the annotated cf::Mutex layer (DESIGN §6h); a
      // raw std::mutex is invisible to both the Clang thread-safety check
      // and the lock-order validator.
      for (const char* token : kNakedMutexTokens) {
        if (code.find(token) != std::string::npos) {
          report("naked-mutex-outside-sync",
                 std::string(token) +
                     " outside util/sync.*; use cf::Mutex / cf::MutexLock / "
                     "cf::CondVar so the acquisition is annotated and "
                     "order-validated");
          break;
        }
      }

      // Atomic ops must spell their memory order: the statement (this line
      // through the terminating ';', a few lines of lookahead for wrapped
      // calls) must mention std::memory_order_*.
      for (const char* op : kAtomicOps) {
        size_t pos = code.find(op);
        bool hit = false;
        while (pos != std::string::npos && !hit) {
          const char before = pos > 0 ? code[pos - 1] : ' ';
          if (before == '.' || before == '>') {
            std::string stmt = code;
            for (size_t m = n + 1;
                 m < lines.size() && m <= n + 3 &&
                 stmt.find(';') == std::string::npos;
                 ++m) {
              stmt += CodePart(lines[m]);
            }
            if (stmt.find("memory_order") == std::string::npos) hit = true;
          }
          pos = code.find(op, pos + 1);
        }
        if (hit) {
          report("implicit-seqcst-atomic",
                 std::string("atomic ") + op +
                     "...) without an explicit std::memory_order — the "
                     "seq_cst default hides intent; spell the order (relaxed "
                     "for counters, acquire/release for handoffs)");
          break;
        }
      }

      // Metric names must come from util/metric_names.h: a typo'd dotted
      // literal silently registers a brand-new, forever-empty series that
      // no test can catch. Flags Get{Counter,Gauge,Histogram}("...") on the
      // metrics registry, windowed registrations included.
      for (const char* getter : {"GetCounter", "GetGauge", "GetHistogram"}) {
        const size_t pos = FindWord(code, getter);
        if (pos == std::string::npos) continue;
        size_t i = pos + std::strlen(getter);
        if (i >= code.size() || code[i] != '(') continue;
        ++i;
        while (i < code.size() &&
               std::isspace(static_cast<unsigned char>(code[i]))) {
          ++i;
        }
        if (i < code.size() && code[i] == '"') {
          report("metric-name-literal",
                 std::string(getter) +
                     " takes a string literal; name the metric through a "
                     "util/metric_names.h constant instead");
        }
      }
    }

    CheckGuardedMembers(lines, rel, display);
  }

  /// unannotated-guarded-member: declarations following a `cf::Mutex name...;`
  /// member, up to the first blank line / closing brace / access specifier /
  /// non-declaration statement, must carry CF_GUARDED_BY. Atomics (their own
  /// synchronization), cf::CondVar / cf::Mutex (lock machinery) and
  /// std::thread (joined, not guarded) are exempt — anything else sitting
  /// next to a mutex is presumed protected by it, and an unannotated
  /// protected member is invisible to the Clang thread-safety analysis.
  void CheckGuardedMembers(const std::vector<std::string>& lines,
                           const std::string& rel, const std::string& display) {
    if (rel == "util/sync.h" || rel == "util/sync.cc") return;
    for (size_t n = 0; n < lines.size(); ++n) {
      const std::string code = CodePart(lines[n]);
      const size_t pos = FindWord(code, "cf::Mutex");
      if (pos == std::string::npos) continue;
      // Only value declarations open a guarded block; pointers/references,
      // heap news and function signatures do not declare adjacent members.
      if (code.find("cf::Mutex*") != std::string::npos ||
          code.find("cf::Mutex&") != std::string::npos ||
          code.find("new cf::Mutex") != std::string::npos ||
          code.find(';') == std::string::npos) {
        continue;
      }
      std::string stmt;
      bool suppressed = false;
      int stmt_line = 0;
      for (size_t m = n + 1; m < lines.size(); ++m) {
        const std::string& raw = lines[m];
        std::string codem = Trim(CodePart(raw));
        if (stmt.empty()) {
          if (codem.empty()) {
            if (Trim(raw).empty()) break;  // blank line ends the block
            continue;                      // comment-only line
          }
          if (codem[0] == '}' || codem.rfind("public", 0) == 0 ||
              codem.rfind("private", 0) == 0 ||
              codem.rfind("protected", 0) == 0 ||
              codem.rfind("return", 0) == 0) {
            break;
          }
          stmt_line = static_cast<int>(m) + 1;
        }
        stmt += (stmt.empty() ? "" : " ") + codem;
        suppressed =
            suppressed || Suppressed(raw, "unannotated-guarded-member");
        if (codem.find(';') == std::string::npos) continue;  // wrapped decl
        const bool exempt = stmt.find("CF_GUARDED_BY") != std::string::npos ||
                            stmt.find("CF_PT_GUARDED_BY") != std::string::npos ||
                            stmt.find("std::atomic") != std::string::npos ||
                            stmt.find("cf::CondVar") != std::string::npos ||
                            stmt.find("cf::Mutex") != std::string::npos ||
                            stmt.find("std::thread") != std::string::npos ||
                            stmt.rfind("using ", 0) == 0 ||
                            stmt.rfind("static ", 0) == 0;
        // A parenthesis in an unannotated statement means a function
        // declaration or executable code — the member block is over.
        if (!exempt && stmt.find('(') != std::string::npos) break;
        if (!exempt && !suppressed) {
          findings_.push_back(
              {display, stmt_line, "unannotated-guarded-member",
               "member declared next to a cf::Mutex without CF_GUARDED_BY; "
               "annotate it (or justify with a suppression) so the "
               "thread-safety analysis can see the protocol"});
        }
        stmt.clear();
        suppressed = false;
      }
    }
  }

  /// DFS over the quoted-include graph restricted to headers seen under the
  /// lint roots; any back edge is a cycle.
  void CheckIncludeCycles() {
    std::map<std::string, int> state;  // 0 unvisited, 1 on stack, 2 done
    std::vector<std::string> stack;
    for (const auto& entry : header_lines_) {
      if (state[entry.first] == 0) Dfs(entry.first, state, stack);
    }
  }

  int Report() const {
    for (const Finding& f : findings_) {
      std::cerr << f.file;
      if (f.line > 0) std::cerr << ":" << f.line;
      std::cerr << ": [" << f.rule << "] " << f.message << "\n";
    }
    if (io_error_) return 2;
    if (!findings_.empty()) {
      std::cerr << "cf_lint: " << findings_.size() << " finding(s)\n";
      return 1;
    }
    return 0;
  }

  bool io_error() const { return io_error_; }

 private:
  static constexpr int kCheckWindow = 20;

  void Dfs(const std::string& node, std::map<std::string, int>& state,
           std::vector<std::string>& stack) {
    state[node] = 1;
    stack.push_back(node);
    auto it = includes_.find(node);
    if (it != includes_.end()) {
      for (const std::string& dep : it->second) {
        if (header_lines_.count(dep) == 0) continue;  // outside the lint roots
        if (state[dep] == 1) {
          std::ostringstream os;
          os << "include cycle: ";
          const auto pos = std::find(stack.begin(), stack.end(), dep);
          for (auto p = pos; p != stack.end(); ++p) os << *p << " -> ";
          os << dep;
          findings_.push_back(
              {header_lines_.at(dep), 0, "include-cycle", os.str()});
        } else if (state[dep] == 0) {
          Dfs(dep, state, stack);
        }
      }
    }
    stack.pop_back();
    state[node] = 2;
  }

  std::map<std::string, std::vector<std::string>> includes_;
  std::map<std::string, std::string> header_lines_;  // include path -> display
  std::vector<Finding> findings_;
  bool io_error_ = false;
};

// --- Doc-drift checking (--docs mode) ---------------------------------------

/// The committed markdown kept honest against the tree. Missing files are
/// skipped (ARCHITECTURE.md predates some checkouts), present ones must be
/// clean.
constexpr const char* kDocFiles[] = {"README.md", "DESIGN.md",
                                     "docs/ARCHITECTURE.md",
                                     "docs/OPERATIONS.md", "CHANGES.md"};

/// Directory prefixes that mark a doc token as a repo path claim.
constexpr const char* kPathPrefixes[] = {"src/",   "tools/", "bench/",
                                         "tests/", "docs/",  "examples/"};

/// Flags that legitimately belong to external tools (cmake, ctest, …), not
/// to a ChainsFormer binary's FlagParser.
const std::set<std::string>& ExternalFlags() {
  static const std::set<std::string> flags = {
      "build", "target", "output-on-failure", "parallel", "config",
      "test-dir", "label-regex", "tests-regex", "gtest_filter",
      "benchmark_filter", "version", "help",
  };
  return flags;
}

bool IsPathChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '/' || c == '*' || c == '{' || c == '}' || c == ',' || c == '-';
}

/// Expands one level of `{a,b,c}` brace alternatives ("serialize.{h,cc}").
std::vector<std::string> ExpandBraces(const std::string& token) {
  const size_t open = token.find('{');
  if (open == std::string::npos) return {token};
  const size_t close = token.find('}', open);
  if (close == std::string::npos) return {token};
  std::vector<std::string> out;
  std::string alt;
  std::istringstream alts(token.substr(open + 1, close - open - 1));
  while (std::getline(alts, alt, ',')) {
    out.push_back(token.substr(0, open) + alt + token.substr(close + 1));
  }
  return out;
}

class DocsChecker {
 public:
  explicit DocsChecker(const fs::path& root) : root_(root) {
    CollectTree();
    CollectSources();
    CollectMetricNames();
  }

  void CheckDoc(const std::string& doc_rel) {
    std::ifstream in(root_ / doc_rel);
    if (!in) return;  // absent docs are not drift
    ++docs_checked_;
    std::string line;
    for (int lineno = 1; std::getline(in, line); ++lineno) {
      CheckPaths(doc_rel, lineno, line);
      CheckFlags(doc_rel, lineno, line);
      CheckEnvVars(doc_rel, lineno, line);
      CheckMetricNames(doc_rel, lineno, line);
    }
  }

  /// Warn-only coverage of /// doc comments on top-level classes/structs in
  /// the public core + serve headers. Never affects the exit status.
  void ReportDocCoverage() {
    int total = 0, documented = 0;
    std::vector<std::string> missing;
    for (const char* dir : {"src/core", "src/graph", "src/serve"}) {
      std::error_code ec;
      for (const auto& entry : fs::directory_iterator(root_ / dir, ec)) {
        if (entry.path().extension() != ".h") continue;
        std::ifstream in(entry.path());
        std::vector<std::string> lines;
        for (std::string l; std::getline(in, l);) lines.push_back(l);
        for (size_t i = 0; i < lines.size(); ++i) {
          const std::string& l = lines[i];
          // Top-level definitions only (column 0, with a body on this or a
          // later line; forward declarations end in ';' immediately).
          if (l.rfind("class ", 0) != 0 && l.rfind("struct ", 0) != 0) continue;
          if (l.find(';') != std::string::npos &&
              l.find('{') == std::string::npos) {
            continue;
          }
          ++total;
          bool has_doc = false;
          for (size_t back = i; back > 0; --back) {
            const std::string& prev = lines[back - 1];
            if (prev.rfind("///", 0) == 0) has_doc = true;
            if (prev.rfind("//", 0) != 0) break;  // non-comment line above
          }
          if (has_doc) {
            ++documented;
          } else {
            std::istringstream name(l);
            std::string kw, id;
            name >> kw >> id;
            missing.push_back(fs::relative(entry.path(), root_).generic_string() +
                              ": " + id);
          }
        }
      }
    }
    std::cerr << "cf_lint docs: /// coverage " << documented << "/" << total
              << " top-level types in src/core + src/graph + src/serve "
                 "headers\n";
    for (const std::string& m : missing) {
      std::cerr << "cf_lint docs: warning: undocumented type " << m << "\n";
    }
  }

  int Report() const {
    for (const Finding& f : findings_) {
      std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
    if (!findings_.empty()) {
      std::cerr << "cf_lint docs: " << findings_.size() << " finding(s)\n";
      return 1;
    }
    std::cout << "cf_lint docs: " << docs_checked_ << " docs clean\n";
    return 0;
  }

 private:
  void CollectTree() {
    for (const char* prefix : kPathPrefixes) {
      const fs::path dir = root_ / std::string(prefix, strlen(prefix) - 1);
      std::error_code ec;
      if (!fs::is_directory(dir, ec)) continue;
      tree_.insert(fs::relative(dir, root_).generic_string());
      for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        tree_.insert(fs::relative(entry.path(), root_).generic_string());
      }
    }
  }

  /// Concatenates every source file that can define a FlagParser key or read
  /// a CF_* environment variable, for string-literal existence checks.
  void CollectSources() {
    for (const char* dir : {"src", "tools", "bench", "tests"}) {
      std::error_code ec;
      if (!fs::is_directory(root_ / dir, ec)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(root_ / dir)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".h" && ext != ".cc" && ext != ".sh") continue;
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        source_text_ += text.str();
      }
    }
  }

  /// Parses the dotted string literals out of src/util/metric_names.h —
  /// the single source of truth for metric names. Docs are checked against
  /// this set, so renaming a metric without updating the runbook fails the
  /// docs test instead of leaving operators grepping for a dead series.
  void CollectMetricNames() {
    std::ifstream in(root_ / "src/util/metric_names.h");
    if (!in) return;  // no registry, no metric checking
    for (std::string line; std::getline(in, line);) {
      size_t open = line.find('"');
      while (open != std::string::npos) {
        const size_t close = line.find('"', open + 1);
        if (close == std::string::npos) break;
        const std::string name = line.substr(open + 1, close - open - 1);
        const size_t dot = name.find('.');
        if (dot != std::string::npos && dot > 0) {
          metric_names_.insert(name);
          metric_prefixes_.insert(name.substr(0, dot));
        }
        open = line.find('"', close + 1);
      }
    }
  }

  bool MatchesGlob(const std::string& pattern) const {
    // Translate the `*` glob (within one path segment) to a linear scan; the
    // tree is small enough that regex machinery is not worth it.
    const size_t star = pattern.find('*');
    if (star == std::string::npos) return tree_.count(pattern) > 0;
    const std::string prefix = pattern.substr(0, star);
    const std::string suffix = pattern.substr(star + 1);
    for (const std::string& p : tree_) {
      if (p.size() < prefix.size() + suffix.size()) continue;
      if (p.compare(0, prefix.size(), prefix) != 0) continue;
      if (p.compare(p.size() - suffix.size(), suffix.size(), suffix) != 0)
        continue;
      // The starred span must not cross a directory boundary.
      const std::string mid =
          p.substr(prefix.size(), p.size() - prefix.size() - suffix.size());
      if (mid.find('/') == std::string::npos) return true;
    }
    return false;
  }

  bool PathExists(const std::string& token) const {
    for (const std::string& variant : ExpandBraces(token)) {
      std::string t = variant;
      while (!t.empty() && t.back() == '/') t.pop_back();
      if (MatchesGlob(t)) continue;
      // Extensionless module/target names ("src/baselines/simple",
      // "bench/bench_serve") accept any file extension.
      const bool has_ext =
          t.find('.', t.find_last_of('/') + 1) != std::string::npos;
      if (!has_ext && MatchesGlob(t + ".*")) continue;
      return false;
    }
    return true;
  }

  void CheckPaths(const std::string& doc, int lineno, const std::string& line) {
    for (const char* prefix : kPathPrefixes) {
      const size_t plen = strlen(prefix);
      size_t pos = line.find(prefix);
      while (pos != std::string::npos) {
        const bool boundary = pos == 0 || !IsPathChar(line[pos - 1]);
        if (boundary) {
          size_t end = pos;
          while (end < line.size() && IsPathChar(line[end])) ++end;
          std::string token = line.substr(pos, end - pos);
          // Trailing sentence punctuation is not part of the path.
          while (!token.empty() &&
                 (token.back() == '.' || token.back() == ',' ||
                  token.back() == '-')) {
            token.pop_back();
          }
          if (token.size() > plen && !PathExists(token)) {
            findings_.push_back({doc, lineno, "stale-path",
                                 "path does not exist in the tree: " + token});
          }
          pos = line.find(prefix, end);
        } else {
          pos = line.find(prefix, pos + 1);
        }
      }
    }
  }

  void CheckFlags(const std::string& doc, int lineno, const std::string& line) {
    size_t pos = line.find("--");
    while (pos != std::string::npos) {
      const bool boundary = pos == 0 || (line[pos - 1] != '-');
      size_t end = pos + 2;
      while (end < line.size() &&
             (std::islower(static_cast<unsigned char>(line[end])) ||
              std::isdigit(static_cast<unsigned char>(line[end])) ||
              line[end] == '-' || line[end] == '_')) {
        ++end;
      }
      // A flag starts with a lowercase letter ("--trace-json"); anything else
      // ("--", "---", em-dash art) is prose.
      if (boundary && end > pos + 2 &&
          std::islower(static_cast<unsigned char>(line[pos + 2]))) {
        const std::string name = line.substr(pos + 2, end - pos - 2);
        // Known if it is a FlagParser key ("docs") or a direct-argv literal
        // ("--docs", the idiom of binaries that do not use FlagParser).
        const bool known =
            source_text_.find("\"" + name + "\"") != std::string::npos ||
            source_text_.find("\"--" + name + "\"") != std::string::npos ||
            ExternalFlags().count(name) > 0;
        if (!known) {
          findings_.push_back(
              {doc, lineno, "unknown-flag",
               "--" + name + " is not a FlagParser key in any source file"});
        }
      }
      pos = line.find("--", end);
    }
  }

  /// stale-metric: a dotted token whose first segment matches a metric
  /// subsystem prefix (serve., router., plan., ...) must either be a
  /// name from src/util/metric_names.h, a prefix of one (docs legitimately
  /// say "the serve.phase histograms"), or a dotted string literal that
  /// still exists in the sources (cf::Mutex site names share the dotted
  /// namespace). Renaming a metric without touching the runbook fails here.
  void CheckMetricNames(const std::string& doc, int lineno,
                        const std::string& line) {
    auto is_token_char = [](char c) {
      return std::islower(static_cast<unsigned char>(c)) ||
             std::isdigit(static_cast<unsigned char>(c)) || c == '_' ||
             c == '.';
    };
    for (size_t pos = 0; pos < line.size();) {
      if (!is_token_char(line[pos])) {
        ++pos;
        continue;
      }
      const bool boundary =
          pos == 0 ||
          (!std::isalnum(static_cast<unsigned char>(line[pos - 1])) &&
           line[pos - 1] != '_' && line[pos - 1] != '.' &&
           line[pos - 1] != '/' && line[pos - 1] != '-');
      size_t end = pos;
      while (end < line.size() && is_token_char(line[end])) ++end;
      std::string token = line.substr(pos, end - pos);
      pos = end;
      if (!boundary) continue;
      // Trailing sentence punctuation is not part of the name.
      while (!token.empty() && token.back() == '.') token.pop_back();
      const size_t dot = token.find('.');
      if (dot == std::string::npos || dot == 0) continue;
      if (metric_prefixes_.count(token.substr(0, dot)) == 0) continue;
      // Path-like tokens ("serve.cc") are the stale-path rule's business.
      const std::string last = token.substr(token.find_last_of('.') + 1);
      if (last == "h" || last == "cc" || last == "md" || last == "json" ||
          last == "sh" || last == "tsv" || last == "cfsm") {
        continue;
      }
      if (metric_names_.count(token) > 0) continue;
      const auto at_or_after = metric_names_.lower_bound(token);
      if (at_or_after != metric_names_.end() &&
          at_or_after->compare(0, token.size(), token) == 0) {
        continue;  // prefix of a real name ("serve.phase")
      }
      if (source_text_.find("\"" + token) != std::string::npos) {
        continue;  // a live dotted literal (mutex site names etc.)
      }
      findings_.push_back(
          {doc, lineno, "stale-metric",
           token + " is not a metric in src/util/metric_names.h (nor a "
                   "dotted literal in the sources)"});
    }
  }

  void CheckEnvVars(const std::string& doc, int lineno, const std::string& line) {
    size_t pos = line.find("CF_");
    while (pos != std::string::npos) {
      const bool boundary =
          pos == 0 || !(std::isalnum(static_cast<unsigned char>(line[pos - 1])) ||
                        line[pos - 1] == '_');
      size_t end = pos + 3;
      while (end < line.size() &&
             (std::isupper(static_cast<unsigned char>(line[end])) ||
              std::isdigit(static_cast<unsigned char>(line[end])) ||
              line[end] == '_')) {
        ++end;
      }
      // Needs at least one character after CF_ (skips the literal "CF_*").
      if (boundary && end > pos + 3) {
        const std::string name = line.substr(pos, end - pos);
        if (source_text_.find(name) == std::string::npos) {
          findings_.push_back({doc, lineno, "unknown-env-var",
                               name + " does not appear in any source file"});
        }
      }
      pos = line.find("CF_", end);
    }
  }

  fs::path root_;
  std::set<std::string> tree_;
  std::string source_text_;
  std::set<std::string> metric_names_;     // full names from metric_names.h
  std::set<std::string> metric_prefixes_;  // their first dotted segments
  std::vector<Finding> findings_;
  int docs_checked_ = 0;
};

// --- Suppressions-baseline checking (--suppressions-baseline mode) ----------

/// Counts `// cf-lint: allow(<rule>)` suppressions per rule across the .h/.cc
/// files under `roots` and compares against a checked-in baseline (lines of
/// `<rule> <count>`, `#` comments allowed). A count above baseline fails:
/// new suppressions must be paid for by an explicit baseline edit in the same
/// change, so the escape hatch stays reviewed. Counts below baseline are
/// reported as a nudge to ratchet the file down.
int SuppressionsMain(const fs::path& baseline_path,
                     const std::vector<fs::path>& roots) {
  std::map<std::string, int> counts;
  int files = 0;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
      std::cerr << "cf_lint: not a directory: " << root.string() << "\n";
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      if (p.extension() != ".h" && p.extension() != ".cc") continue;
      std::ifstream in(p);
      if (!in) {
        std::cerr << "cf_lint: cannot read " << p.string() << "\n";
        return 2;
      }
      ++files;
      for (std::string line; std::getline(in, line);) {
        size_t pos = line.find("cf-lint: allow(");
        while (pos != std::string::npos) {
          const size_t open = line.find('(', pos);
          const size_t close = line.find(')', open);
          if (close == std::string::npos) break;
          ++counts[line.substr(open + 1, close - open - 1)];
          pos = line.find("cf-lint: allow(", close);
        }
      }
    }
  }

  std::ifstream in(baseline_path);
  if (!in) {
    std::cerr << "cf_lint: cannot read baseline " << baseline_path.string()
              << "\n";
    return 2;
  }
  std::map<std::string, int> baseline;
  for (std::string line; std::getline(in, line);) {
    const std::string t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream fields(t);
    std::string rule;
    int count = 0;
    if (fields >> rule >> count) baseline[rule] = count;
  }

  int failures = 0;
  for (const auto& [rule, count] : counts) {
    const auto it = baseline.find(rule);
    const int allowed = it == baseline.end() ? 0 : it->second;
    if (count > allowed) {
      std::cerr << "cf_lint: suppression count for [" << rule << "] grew: "
                << count << " > baseline " << allowed
                << " — remove the new cf-lint: allow(" << rule
                << ") or deliberately raise " << baseline_path.string()
                << "\n";
      ++failures;
    } else if (count < allowed) {
      std::cout << "cf_lint: suppressions for [" << rule << "] shrank to "
                << count << " (baseline " << allowed
                << "); consider ratcheting the baseline down\n";
    }
  }
  if (failures > 0) return 1;
  std::cout << "cf_lint: suppressions within baseline across " << files
            << " files\n";
  return 0;
}

int DocsMain(const fs::path& root) {
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::cerr << "cf_lint: not a directory: " << root.string() << "\n";
    return 2;
  }
  DocsChecker checker(root);
  for (const char* doc : kDocFiles) checker.CheckDoc(doc);
  checker.ReportDocCoverage();
  return checker.Report();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: cf_lint <dir> [<dir>...] | cf_lint --docs "
                 "<repo_root> | cf_lint --suppressions-baseline "
                 "<baseline_file> <dir> [<dir>...]\n";
    return 2;
  }
  if (std::string(argv[1]) == "--docs") {
    if (argc != 3) {
      std::cerr << "usage: cf_lint --docs <repo_root>\n";
      return 2;
    }
    return DocsMain(argv[2]);
  }
  if (std::string(argv[1]) == "--suppressions-baseline") {
    if (argc < 4) {
      std::cerr << "usage: cf_lint --suppressions-baseline <baseline_file> "
                   "<dir> [<dir>...]\n";
      return 2;
    }
    std::vector<fs::path> roots;
    for (int i = 3; i < argc; ++i) roots.emplace_back(argv[i]);
    return SuppressionsMain(argv[2], roots);
  }
  Linter linter;
  int files = 0;
  for (int i = 1; i < argc; ++i) {
    const fs::path root(argv[i]);
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
      std::cerr << "cf_lint: not a directory: " << root.string() << "\n";
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      if (p.extension() != ".h" && p.extension() != ".cc") continue;
      linter.LintFile(p, root);
      ++files;
    }
  }
  linter.CheckIncludeCycles();
  const int rc = linter.Report();
  if (rc == 0) std::cout << "cf_lint: " << files << " files clean\n";
  return rc;
}
