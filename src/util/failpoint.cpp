#include "util/failpoint.hpp"

#include <cstdlib>
#include <map>
#include <mutex>

namespace drcshap {

namespace {

struct Rule {
  enum class Kind { kFailAtCount, kThrowOnKey };
  Kind kind = Kind::kFailAtCount;
  std::uint64_t at_count = 0;  ///< fail@N: fire when hits >= N
  std::string key;             ///< throw@KEY
  std::uint64_t hits = 0;      ///< evaluations since configure
};

struct Config {
  std::mutex mu;
  std::map<std::string, Rule, std::less<>> rules;
  // Hits of every site while some rule is armed (see failpoint_hits).
  std::map<std::string, std::uint64_t, std::less<>> hit_counts;
};

Config& config() {
  static Config* instance = new Config();
  return *instance;
}

void parse_spec_locked(Config& cfg, std::string_view spec) {
  cfg.rules.clear();
  cfg.hit_counts.clear();
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    const std::size_t at = entry.find('@');
    if (eq == std::string_view::npos || at == std::string_view::npos ||
        at < eq) {
      throw std::invalid_argument("failpoints: malformed entry '" +
                                  std::string(entry) +
                                  "' (want name=action@operand)");
    }
    const std::string name(entry.substr(0, eq));
    const std::string_view action = entry.substr(eq + 1, at - eq - 1);
    const std::string operand(entry.substr(at + 1));
    Rule rule;
    if (action == "fail") {
      rule.kind = Rule::Kind::kFailAtCount;
      char* end = nullptr;
      rule.at_count = std::strtoull(operand.c_str(), &end, 10);
      if (end == operand.c_str() || *end != '\0' || rule.at_count == 0) {
        throw std::invalid_argument(
            "failpoints: fail@N needs a positive count, got '" + operand +
            "'");
      }
    } else if (action == "throw") {
      rule.kind = Rule::Kind::kThrowOnKey;
      rule.key = operand;
    } else {
      throw std::invalid_argument("failpoints: unknown action '" +
                                  std::string(action) + "' (want fail|throw)");
    }
    cfg.rules[name] = std::move(rule);
  }
}

void hit_impl(std::string_view name, const std::string_view* key) {
  if (!failpoints_armed()) return;
  Config& cfg = config();
  std::string fired;
  {
    std::lock_guard lock(cfg.mu);
    auto counter = cfg.hit_counts.find(name);
    if (counter == cfg.hit_counts.end()) {
      cfg.hit_counts.emplace(std::string(name), 1);
    } else {
      ++counter->second;
    }
    const auto it = cfg.rules.find(name);
    if (it == cfg.rules.end()) return;
    Rule& rule = it->second;
    ++rule.hits;
    switch (rule.kind) {
      case Rule::Kind::kFailAtCount:
        if (rule.hits >= rule.at_count) fired = it->first;
        break;
      case Rule::Kind::kThrowOnKey:
        if (key != nullptr && *key == rule.key) fired = it->first;
        break;
    }
  }
  if (!fired.empty()) throw FailpointError(std::move(fired));
}

}  // namespace

void failpoints_configure(std::string_view spec) {
  Config& cfg = config();
  std::lock_guard lock(cfg.mu);
  parse_spec_locked(cfg, spec);
  detail::g_failpoints_armed.store(!cfg.rules.empty(),
                                   std::memory_order_relaxed);
}

void failpoints_clear() { failpoints_configure(""); }

std::uint64_t failpoint_hits(std::string_view name) {
  Config& cfg = config();
  std::lock_guard lock(cfg.mu);
  const auto it = cfg.hit_counts.find(name);
  return it == cfg.hit_counts.end() ? 0 : it->second;
}

void failpoint_hit(std::string_view name) { hit_impl(name, nullptr); }

void failpoint_hit(std::string_view name, std::string_view key) {
  hit_impl(name, &key);
}

}  // namespace drcshap
