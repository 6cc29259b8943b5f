#pragma once
// Deterministic fault injection for crash-recovery tests. Named failpoints
// sit at I/O commit points and experiment-loop tasks in every build, and
// only code can arm them (tests, through ScopedFailpoints):
//
//   ScopedFailpoints armed("ckpt.store=fail@2,pipeline.design=throw@fft_1");
//
// Spec grammar: comma-separated `<name>=<action>` entries with actions
//   fail@N     throw FailpointError from the N-th hit of <name> onward
//              (counted from 1 — models a process that dies and stays dead)
//   throw@KEY  throw when the site is hit with key operand == KEY
//              (poisons one design/fold/unit, leaving siblings healthy)
//
// A disarmed site costs one relaxed load of an "any armed" flag, checked
// inline before any call is made or any key operand is evaluated.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace drcshap {

/// Thrown when an armed failpoint fires. Carries the failpoint name so
/// recovery tests can assert which commit point "crashed".
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(std::string name)
      : std::runtime_error("failpoint '" + name + "' fired"),
        name_(std::move(name)) {}

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

/// Replace the active configuration with `spec` (see grammar above) and
/// reset all hit counters. Empty spec disarms everything. Throws
/// std::invalid_argument on a malformed spec.
void failpoints_configure(std::string_view spec);

/// Disarm all failpoints and reset counters.
void failpoints_clear();

/// Times the named failpoint was hit while some rule was armed, since the
/// last configure/clear. Hits while nothing is armed are not counted, so a
/// sweep test sizes its kill schedule by arming a rule that never fires.
std::uint64_t failpoint_hits(std::string_view name);

/// Failpoint sites (used via the macros below). May throw FailpointError.
void failpoint_hit(std::string_view name);
void failpoint_hit(std::string_view name, std::string_view key);

namespace detail {
inline std::atomic<bool> g_failpoints_armed{false};
}  // namespace detail

/// True while some rule is armed; the macros below test it inline.
inline bool failpoints_armed() {
  return detail::g_failpoints_armed.load(std::memory_order_relaxed);
}

/// RAII: configure on construction, clear on destruction (tests).
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(std::string_view spec) {
    failpoints_configure(spec);
  }
  ~ScopedFailpoints() { failpoints_clear(); }

  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;
};

#define DRCSHAP_FAILPOINT(name)                                        \
  do {                                                                 \
    if (::drcshap::failpoints_armed()) ::drcshap::failpoint_hit(name); \
  } while (0)
#define DRCSHAP_FAILPOINT_KEYED(name, key)                                  \
  do {                                                                      \
    if (::drcshap::failpoints_armed()) ::drcshap::failpoint_hit(name, key); \
  } while (0)

}  // namespace drcshap
