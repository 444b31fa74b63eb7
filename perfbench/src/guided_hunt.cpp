// guided-hunt: the user's time to the first bug.  Each hunt is a guided
// campaign started from a deliberately wrong prior (the priors of
// bench/bench_guided.cpp) that refines its plan every 3-session epoch
// and stops when the scenario's oracle matches, within 96 sessions.
#include <optional>

#include "mirror.hpp"
#include "ptest/guided/campaign.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ptest;

/// Churn-heavy wrong prior for Eq. 2 lifecycle plans.
constexpr const char* kChurnPriorPd =
    "TC -> TCH = 0.3; TC -> TS = 0.02; TC -> TD = 1.0; TC -> TY = 1.0;"
    "TCH -> TCH = 0.3; TCH -> TS = 0.02; TCH -> TD = 1.0; TCH -> TY = 1.0;"
    "TS -> TR = 1.0;"
    "TR -> TCH = 0.3; TR -> TS = 0.02; TR -> TD = 1.0; TR -> TY = 1.0";

/// Suspend-starved wrong prior for terminal-free hang plans.
constexpr const char* kNoSuspendPriorPd =
    "TC -> TCH = 1.0; TC -> TS = 0.02;"
    "TCH -> TCH = 1.0; TCH -> TS = 0.02;"
    "TS -> TR = 1.0;"
    "TR -> TCH = 1.0; TR -> TS = 0.02";

struct HuntScenario {
  const char* name;
  const char* prior;
};

constexpr HuntScenario kScenarios[] = {
    {"deadlock-pair", kChurnPriorPd},
    {"philosophers-deadlock", kChurnPriorPd},
    {"aba-stack", kChurnPriorPd},
    {"lost-wakeup", kNoSuspendPriorPd},
    {"livelock-backoff", kNoSuspendPriorPd},
    {"fig1-livelock", kNoSuspendPriorPd},
};

constexpr std::size_t kSessionsPerEpoch = 3;
constexpr std::size_t kBudget = 96;
/// Hunts per scenario of the fixed sweep behind the fingerprint,
/// sessions_to_bug_mean and bug_found_ratio (deterministic per seed).
constexpr std::size_t kSweepPerScenario = 400;
/// Hunts per scenario, the first of the sweep's, that every timed pass
/// runs again: each hunt's time to bug is its fastest wall over the passes.
/// 6 x 330 hunts less the ~1.3% that miss stays just under 2,000, where
/// the tail is p99 with about 20 hunts beyond it (at 2,000 it would jump
/// to p99.5 with only 10).
constexpr std::size_t kTimedPerScenario = 330;
constexpr std::size_t kMinPasses = 8;
/// Sweep hunts also run at jobs=2, which must not change them.
constexpr std::size_t kPooledHunts = 60;

struct Hunt {
  const scenario::Scenario* scenario = nullptr;
  core::PtestConfig config;
  // The serial outcome, once run.
  std::optional<std::size_t> sessions_to_bug;
  std::size_t sessions = 0;
  std::size_t epochs = 0;
  std::uint64_t ticks = 0;
};

guided::GuidedOptions hunt_options(const scenario::Scenario& s,
                                   std::size_t jobs) {
  guided::GuidedOptions options;
  options.sessions_per_epoch = kSessionsPerEpoch;
  options.max_epochs = kBudget / kSessionsPerEpoch;
  options.refiner.exploration_share = 0.6;
  options.plateau_window = 0;  // pure sessions-to-first-bug
  options.jobs = jobs;
  options.counts_as_bug = [&s](const core::BugReport& report) {
    return s.oracle.matches(report);
  };
  return options;
}

guided::GuidedResult run_hunt(const Hunt& hunt, std::size_t jobs) {
  guided::GuidedCampaign campaign(hunt.config, hunt.scenario->setup,
                                  hunt_options(*hunt.scenario, jobs));
  return campaign.run();
}

bool same_hunt(const Hunt& hunt, const guided::GuidedResult& result) {
  return result.sessions_to_first_bug == hunt.sessions_to_bug &&
         result.campaign.total_runs == hunt.sessions &&
         result.epochs.size() == hunt.epochs &&
         result.campaign.metrics.ticks == hunt.ticks;
}

/// The hunt replayed from public pieces: GuidedCampaign::run's epoch
/// loop (compile, refine + recompile per epoch, a 3-session batch, fold
/// coverage, stop on the oracle) with every session mirrored.
void trace_hunt(const Mirror& mirror, const Hunt& hunt, LayerTotals& layers,
                Report& report) {
  const guided::GuidedOptions options = hunt_options(*hunt.scenario, 1);
  std::uint64_t start = now_ns();
  const core::CompiledTestPlanPtr base_plan = core::compile(hunt.config);
  layers.compile_ns += static_cast<double>(now_ns() - start);
  ++layers.compiles;
  core::CompiledTestPlanPtr plan = base_plan;
  pattern::CoverageTracker tracker(base_plan->pfa, options.ngram);
  pattern::CoverageTracker untraced_tracker(base_plan->pfa, options.ngram);
  const guided::PlanRefiner refiner(options.refiner);
  pfa::WalkScratch scratch;

  std::optional<std::size_t> sessions_to_bug;
  std::size_t run_index = 0, epochs = 0;
  for (std::size_t epoch = 0; epoch < options.max_epochs && !sessions_to_bug;
       ++epoch) {
    ++epochs;
    if (epoch > 0) {
      start = now_ns();
      pfa::DistributionSpec refined =
          refiner.refine(*plan, tracker.transitions_seen(), nullptr);
      const std::uint64_t compile_start = now_ns();
      plan = core::compile_with_spec(hunt.config, std::move(refined));
      const std::uint64_t end = now_ns();
      layers.refine_ns += static_cast<double>(end - start);
      layers.compile_ns += static_cast<double>(end - compile_start);
      ++layers.refines;
      ++layers.compiles;
    }
    for (std::size_t i = 0; i < options.sessions_per_epoch; ++i, ++run_index) {
      const std::uint64_t seed =
          support::derive_seed(hunt.config.seed, run_index);
      std::string difference;
      const MirroredSession mirrored =
          run_both(mirror, *plan, seed, hunt.scenario->setup, scratch,
                   &untraced_tracker, &tracker, layers, run_index, difference);
      ++report.attempted;
      if (!difference.empty()) {
        report.fail(hunt.scenario->name + ": mirrored hunt session: " +
                    difference);
      }
      const auto& session = mirrored.result.session;
      if (!sessions_to_bug && session.outcome == core::Outcome::kBug &&
          session.report && options.counts_as_bug(*session.report)) {
        sessions_to_bug = run_index + 1;
      }
    }
  }
  ++layers.hunts;
  layers.hunt_epochs += epochs;
  if (sessions_to_bug != hunt.sessions_to_bug || epochs != hunt.epochs) {
    report.fail(hunt.scenario->name + ": mirrored hunt differs from "
                "GuidedCampaign::run");
  }
}

/// Hunt k of scenario a (kScenarios order) for a run seeded `seed`.
Hunt make_hunt(const scenario::Scenario& s, std::size_t a, std::uint64_t seed,
               std::size_t k) {
  Hunt hunt;
  hunt.scenario = &s;
  hunt.config = s.config;
  hunt.config.distributions = kScenarios[a].prior;
  hunt.config.seed = support::derive_seed(support::derive_seed(seed, a), k);
  return hunt;
}

void record(Hunt& hunt, const guided::GuidedResult& result) {
  hunt.sessions_to_bug = result.sessions_to_first_bug;
  hunt.sessions = result.campaign.total_runs;
  hunt.epochs = result.epochs.size();
  hunt.ticks = result.campaign.metrics.ticks;
}

/// One from-scratch set-up of every hunt scenario: registry lookup, plan
/// compile and guided campaign construction.
double time_setup(const std::vector<Hunt>& hunts) {
  const std::uint64_t start = now_ns();
  for (const HuntScenario& entry : kScenarios) {
    const scenario::Scenario* s =
        scenario::ScenarioRegistry::builtin().find(entry.name);
    core::PtestConfig config = s->config;
    config.distributions = entry.prior;
    config.seed = hunts.front().config.seed;
    const core::CompiledTestPlanPtr plan = core::compile(config);
    const guided::GuidedCampaign campaign(config, s->setup,
                                          hunt_options(*s, 1));
  }
  return static_cast<double>(now_ns() - start) * 1e-9;
}

}  // namespace

Report run_guided_hunt(const RunOptions& options) {
  Report report;
  std::vector<const scenario::Scenario*> scenarios;
  for (const HuntScenario& entry : kScenarios) {
    scenarios.push_back(scenario::ScenarioRegistry::builtin().find(entry.name));
    if (scenarios.back() == nullptr) {
      report.fail(std::string("unknown scenario ") + entry.name);
      return report;
    }
  }

  // The fixed sweep, serially: the deterministic figures.
  std::vector<Hunt> sweep;
  for (std::size_t a = 0; a < scenarios.size(); ++a) {
    for (std::size_t k = 0; k < kSweepPerScenario; ++k) {
      sweep.push_back(make_hunt(*scenarios[a], a, options.seed, k));
    }
  }
  std::uint64_t sessions = 0, ticks = 0;
  std::size_t found = 0;
  double sessions_to_bug = 0;
  for (Hunt& hunt : sweep) {
    ++report.attempted;
    record(hunt, run_hunt(hunt, 1));
    sessions += hunt.sessions;
    ticks += hunt.ticks;
    if (!hunt.sessions_to_bug) continue;
    ++found;
    sessions_to_bug += static_cast<double>(*hunt.sessions_to_bug);
  }
  double events = 0;
  for (std::size_t a = 0; a < scenarios.size(); ++a) {
    const Hunt& first = sweep[a * kSweepPerScenario];
    events += trace_events_per_session(first.config, first.scenario->setup, 8);
  }
  report.fingerprint.ticks_per_session =
      static_cast<double>(ticks) / static_cast<double>(sessions);
  report.fingerprint.sessions_to_bug_mean =
      found == 0 ? 0 : sessions_to_bug / static_cast<double>(found);
  report.fingerprint.bug_miss_ratio =
      1.0 - static_cast<double>(found) / static_cast<double>(sweep.size());
  report.fingerprint.trace_events_per_session =
      events / static_cast<double>(scenarios.size());

  // jobs=2 identity on a slice of the sweep; its pool idle share is the
  // traced pass's support.worker_idle_share.
  double idle_share_sum = 0;
  for (std::size_t i = 0; i < kPooledHunts; ++i) {
    const Hunt& hunt = sweep[(i % scenarios.size()) * kSweepPerScenario + i];
    ++report.attempted;
    const guided::GuidedResult parallel = run_hunt(hunt, 2);
    if (!same_hunt(hunt, parallel)) {
      report.fail(hunt.scenario->name + ": guided jobs=2 differs from jobs=1");
    }
    idle_share_sum += worker_idle_share(parallel.campaign.metrics);
  }

  if (options.trace) {
    const Mirror mirror;
    LayerTotals layers;
    run_passes(options.seconds, 1, [&](std::size_t pass) {
      // One sweep hunt per scenario, a different one each pass.
      for (std::size_t a = 0; a < scenarios.size(); ++a) {
        trace_hunt(mirror,
                   sweep[a * kSweepPerScenario + pass % kSweepPerScenario],
                   layers, report);
      }
    });
    add_layer_metrics(report, layers, FleetLayer{},
                      idle_share_sum / static_cast<double>(kPooledHunts));
    return report;
  }

  std::vector<const Hunt*> timed;
  std::uint64_t timed_sessions = 0;
  for (std::size_t a = 0; a < scenarios.size(); ++a) {
    for (std::size_t k = 0; k < kTimedPerScenario; ++k) {
      timed.push_back(&sweep[a * kSweepPerScenario + k]);
      timed_sessions += timed.back()->sessions;
    }
  }
  std::vector<std::vector<double>> wall_ms(timed.size());
  EndToEnd e2e;
  SetupSampler setup([&] { return time_setup(sweep); });
  const std::size_t passes =
      run_passes(options.seconds, kMinPasses, [&](std::size_t pass) {
        std::uint64_t serial_ns = 0;
        {
          const CpuTurn turn(pass);
          // A guided pass is long, so it takes three set-up batches.
          for (int batch = 0; batch < 3; ++batch) {
            e2e.setup_s.push_back(setup.sample());
          }
          for (std::size_t i = 0; i < timed.size(); ++i) {
            ++report.attempted;
            const std::uint64_t start = now_ns();
            const guided::GuidedResult result = run_hunt(*timed[i], 1);
            const std::uint64_t elapsed = now_ns() - start;
            serial_ns += elapsed;
            wall_ms[i].push_back(static_cast<double>(elapsed) / 1e6);
            if (!same_hunt(*timed[i], result)) {
              report.fail(timed[i]->scenario->name + ": hunt not repeatable");
            }
          }
        }
        // The parallel form of a hunt workload: two callers, each
        // running hunts at jobs=1 (a 3-session epoch leaves a jobs=2
        // pool mostly idle, so this is how two cores serve hunts).
        std::vector<char> same(timed.size(), 0);
        const std::uint64_t parallel_ns =
            run_two_callers(timed.size(), [&](std::size_t i) {
              same[i] = same_hunt(*timed[i], run_hunt(*timed[i], 1));
            });
        for (std::size_t i = 0; i < timed.size(); ++i) {
          ++report.attempted;
          if (!same[i]) {
            report.fail(timed[i]->scenario->name +
                        ": concurrent hunt differs from the serial one");
          }
        }
        e2e.pass_rates.push_back(static_cast<double>(timed_sessions) * 1e9 /
                                 static_cast<double>(serial_ns));
        e2e.pass_efficiencies.push_back(
            static_cast<double>(serial_ns) /
            (2.0 * static_cast<double>(parallel_ns)));
      });
  // Time to bug of the hunts that found it; a miss is in bug_found_ratio.
  double fastest_ms = 0;
  for (std::size_t i = 0; i < timed.size(); ++i) {
    fastest_ms += fastest(wall_ms[i]);
    if (timed[i]->sessions_to_bug) {
      e2e.time_to_bug_ms.push_back(fastest(wall_ms[i]));
    }
  }
  e2e.sessions_per_s = static_cast<double>(timed_sessions) * 1e3 / fastest_ms;
  e2e.scaling_efficiency = median(e2e.pass_efficiencies);
  e2e.sessions_to_bug_mean = report.fingerprint.sessions_to_bug_mean;
  e2e.bug_found_ratio = 1.0 - report.fingerprint.bug_miss_ratio;
  e2e.tail_q = tail_percentile(e2e.time_to_bug_ms.size());
  add_end_to_end(report, e2e);
  report.notes.push_back(
      std::to_string(passes) + " timed passes of the same " +
      std::to_string(timed.size()) +
      " sweep hunts (one caller, then two); the " +
      std::to_string(sweep.size()) + "-hunt sweep misses the " +
      std::to_string(kBudget) + "-session budget " +
      std::to_string(sweep.size() - found) + " times");
  return report;
}

}  // namespace perfbench
