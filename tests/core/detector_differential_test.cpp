// Differential test of the event-driven bug detector.
//
// BugDetector searches the wait-for graph only on ticks where the
// kernel's wait-graph version moved, and checks starvation against the
// TCBs in place.  The reference below is the detector as it was before
// that change: it runs the cycle search on every tick and checks
// starvation from a fresh KernelSnapshot.  It is attached after the real
// detector, so both observe the same post-tick state.  For every catalog
// scenario (buggy and benign plans) over a sweep of seeds, the two must
// agree on whether, when and what they report.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/core/session.hpp"
#include "ptest/pcore/programs.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::core {
namespace {

constexpr std::uint64_t kSeedsPerPlan = 64;

struct Verdict {
  BugKind kind = BugKind::kSlaveCrash;
  sim::Tick detected_at = 0;
  std::string description;
  std::vector<pcore::TaskId> culprits;
};

/// The per-tick detector: every check runs on every tick.  Never stops
/// the run; the real detector decides that.
class ReferenceDetector final : public sim::Device {
 public:
  ReferenceDetector(const DetectorConfig& config,
                    const pcore::PcoreKernel& kernel,
                    const master::Committer& committer)
      : config_(config), kernel_(&kernel), committer_(&committer) {}

  bool tick(sim::Soc& soc) override {
    if (verdict_ || passed_) return true;
    const sim::Tick now = soc.now();

    if (kernel_->panicked()) {
      file(now, BugKind::kSlaveCrash,
           "slave kernel panicked: " + kernel_->panic_reason(), {});
      return true;
    }

    if (auto cycle = BugDetector::find_deadlock_cycle(*kernel_);
        !cycle.empty()) {
      std::string desc = "wait-for cycle:";
      for (const auto t : cycle) desc += " task" + std::to_string(t);
      file(now, BugKind::kDeadlock, desc, std::move(cycle));
      return true;
    }

    for (const auto& [seq, issue] : committer_->outstanding()) {
      if (now - issue.issued_at > config_.command_timeout) {
        file(now, BugKind::kUnresponsive,
             "command seq=" + std::to_string(seq) + " (" +
                 bridge::mnemonic(issue.service) + ") unacknowledged for " +
                 std::to_string(now - issue.issued_at) + " ticks",
             {});
        return true;
      }
    }

    if (committer_->finished()) {
      if (!committer_finished_at_) committer_finished_at_ = now;
      const std::size_t live = kernel_->live_task_count();
      if (live == 0) {
        passed_ = true;
        return true;
      }
      if (now - *committer_finished_at_ > config_.termination_horizon) {
        std::vector<pcore::TaskId> culprits;
        for (const auto& task : kernel_->snapshot().tasks) {
          culprits.push_back(task.id);
        }
        file(now, BugKind::kNoTermination,
             std::to_string(live) +
                 " task(s) did not terminate within the horizon",
             std::move(culprits));
        return true;
      }
    }

    if (config_.starvation_horizon != 0) {
      for (const auto& task : kernel_->snapshot().tasks) {
        if (task.state != pcore::TaskState::kReady) continue;
        if (now - task.last_progress > config_.starvation_horizon) {
          file(now, BugKind::kStarvation,
               "task " + std::to_string(task.id) +
                   " ready but unscheduled for " +
                   std::to_string(now - task.last_progress) + " ticks",
               {task.id});
          return true;
        }
      }
    }
    return true;
  }

  [[nodiscard]] const std::optional<Verdict>& verdict() const noexcept {
    return verdict_;
  }
  [[nodiscard]] bool passed() const noexcept { return passed_; }

 private:
  void file(sim::Tick now, BugKind kind, std::string description,
            std::vector<pcore::TaskId> culprits) {
    verdict_ = Verdict{kind, now, std::move(description), std::move(culprits)};
  }

  DetectorConfig config_;
  const pcore::PcoreKernel* kernel_;
  const master::Committer* committer_;
  std::optional<Verdict> verdict_;
  bool passed_ = false;
  std::optional<sim::Tick> committer_finished_at_;
};

struct SweepTally {
  std::size_t sessions = 0;
  std::size_t deadlocks = 0;
  std::size_t starvations = 0;
  std::size_t passes = 0;
};

void sweep_plan(const std::string& label, const PtestConfig& config,
                const WorkloadSetup& setup, SweepTally& tally) {
  const CompiledTestPlanPtr plan = compile(config);
  pfa::WalkScratch scratch;
  for (std::uint64_t k = 0; k < kSeedsPerPlan; ++k) {
    const std::uint64_t seed = support::derive_seed(config.seed, k);
    SCOPED_TRACE(label + " run " + std::to_string(k));
    const AdaptiveTestResult sampled = generate_and_merge(*plan, seed, scratch);
    PtestConfig session_config = plan->config;
    session_config.seed = seed;
    TestSession session(session_config, plan->alphabet, sampled.merged,
                        sampled.patterns, setup);
    ReferenceDetector reference(session_config.detector, session.kernel(),
                                session.committer());
    session.soc().attach(reference);
    const SessionResult result = session.run();
    ++tally.sessions;

    ASSERT_EQ(result.report.has_value(), reference.verdict().has_value())
        << "real: " << to_string(result.outcome) << ", reference: "
        << (reference.verdict() ? to_string(reference.verdict()->kind)
                                : "none");
    EXPECT_EQ(result.outcome == Outcome::kPassed, reference.passed());
    if (!result.report) {
      if (result.outcome == Outcome::kPassed) ++tally.passes;
      continue;
    }
    const BugReport& report = *result.report;
    const Verdict& expected = *reference.verdict();
    EXPECT_EQ(report.kind, expected.kind);
    EXPECT_EQ(report.detected_at, expected.detected_at);
    EXPECT_EQ(report.description, expected.description);
    EXPECT_EQ(report.culprits, expected.culprits);
    if (report.kind == BugKind::kDeadlock) ++tally.deadlocks;
    if (report.kind == BugKind::kStarvation) ++tally.starvations;
  }
}

TEST(DetectorDifferentialTest, EveryCatalogPlanMatchesThePerTickDetector) {
  SweepTally tally;
  for (const scenario::Scenario& entry :
       scenario::ScenarioRegistry::builtin().all()) {
    sweep_plan(entry.name, entry.config, entry.setup, tally);
    if (entry.has_benign()) {
      sweep_plan(entry.name + " (benign)", entry.benign_plan(),
                 entry.benign_workload(), tally);
    }
  }
  // Non-vacuous: the sweep exercises both rewritten checks and clean runs.
  EXPECT_GT(tally.deadlocks, 0u);
  EXPECT_GT(tally.starvations, 0u);
  EXPECT_GT(tally.passes, 0u);
  EXPECT_GE(tally.sessions,
            scenario::ScenarioRegistry::builtin().all().size() *
                kSeedsPerPlan);
}

// Two tasks starve on the same tick, on either side of the task that
// starves them: both detectors must name the lower slot.
TEST(DetectorDifferentialTest, StarvationNamesTheSameFirstTask) {
  pcore::PcoreKernel kernel;
  kernel.register_program(1, [](std::uint32_t) {
    return std::make_unique<pcore::IdleProgram>();
  });
  pfa::Alphabet alphabet;
  master::Committer committer(pattern::MergedPattern{}, alphabet, {});
  StateRecorder recorder(alphabet);
  DetectorConfig config;
  config.starvation_horizon = 10;
  BugDetector detector(config, kernel, committer, recorder);
  ReferenceDetector reference(config, kernel, committer);
  sim::Soc soc;
  soc.attach(kernel);
  soc.attach(detector);
  soc.attach(reference);

  pcore::TaskId low_a = pcore::kInvalidTask, busy = pcore::kInvalidTask,
                low_b = pcore::kInvalidTask;
  ASSERT_EQ(kernel.task_create(1, 0, 2, low_a), pcore::Status::kOk);
  ASSERT_EQ(kernel.task_create(1, 0, 9, busy), pcore::Status::kOk);
  ASSERT_EQ(kernel.task_create(1, 0, 2, low_b), pcore::Status::kOk);
  (void)soc.run(100);

  ASSERT_TRUE(detector.bug_found());
  ASSERT_TRUE(reference.verdict().has_value());
  EXPECT_EQ(detector.report()->kind, BugKind::kStarvation);
  EXPECT_EQ(detector.report()->culprits, std::vector<pcore::TaskId>{low_a});
  EXPECT_EQ(reference.verdict()->culprits, detector.report()->culprits);
  EXPECT_EQ(reference.verdict()->detected_at, detector.report()->detected_at);
  EXPECT_EQ(reference.verdict()->description, detector.report()->description);
}

}  // namespace
}  // namespace ptest::core
