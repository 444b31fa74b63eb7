// Bug reports: what the bug detector "dumps ... to help users reproduce
// the bugs" (§II-B).
//
// A report carries everything replay needs: the failure classification and
// evidence (kernel snapshot, wait-for cycle, CP records, trace tail) plus
// the session's seed and merged pattern, which — because the whole
// simulation is deterministic — replays to the identical failure.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ptest/pattern/pattern.hpp"
#include "ptest/pcore/kernel.hpp"

namespace ptest::core {

enum class BugKind : std::uint8_t {
  kSlaveCrash = 0,   // kernel panic (e.g. the GC corruption of case 1)
  kDeadlock,         // wait-for cycle among blocked tasks (case 2)
  kUnresponsive,     // remote command unacknowledged past the timeout
  kNoTermination,    // tasks alive/spinning past the termination horizon
  kStarvation,       // ready task unscheduled past the starvation horizon
};

[[nodiscard]] const char* to_string(BugKind kind) noexcept;

struct BugReport {
  BugKind kind = BugKind::kSlaveCrash;
  sim::Tick detected_at = 0;
  std::string description;
  /// Tasks involved (wait-for cycle for deadlock, starved task, ...).
  std::vector<pcore::TaskId> culprits;
  /// Slave state at detection time.
  pcore::KernelSnapshot kernel;
  /// CP records (Definition 2), rendered.
  std::string state_records;
  /// Tail of the simulation trace.
  std::string trace_tail;
  /// Replay bundle: seed and the exact merged pattern that was driven.
  std::uint64_t seed = 0;
  pattern::MergedPattern merged;

  /// Human-readable multi-line rendering.
  [[nodiscard]] std::string render(const pfa::Alphabet& alphabet) const;

  /// Stable failure signature for replay verification: kind + sorted
  /// culprits + (for crashes) the panic reason.
  [[nodiscard]] std::string signature() const;
};

}  // namespace ptest::core
