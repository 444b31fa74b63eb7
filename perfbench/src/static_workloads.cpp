// short-sessions and long-sessions: static single-arm catalog campaigns
// at jobs=1.  The two share one implementation and differ only in the scenarios
// (about 20 versus about 1,350 ticks per session) and the campaign sizes.
// A run repeats a fixed set of campaigns, 20 or more per scenario, so
// time_to_bug takes each campaign's fastest wall over the passes and its
// tail percentile ranges over distinct campaigns, not over host hiccups.
#include "mirror.hpp"
#include "ptest/core/session.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ptest;

/// Campaign seeds per bug scenario behind sessions_to_bug_mean.
constexpr std::size_t kHuntSeeds = 512;
constexpr std::size_t kMinPasses = 5;

struct StaticSpec {
  std::vector<std::string> scenarios;
  std::size_t seeds_per_scenario = 0;  // campaigns per scenario
  std::size_t budget = 0;              // sessions per campaign
};

struct Unit {
  const scenario::Scenario* scenario = nullptr;
  std::uint64_t seed = 0;
  core::CampaignResult reference;  // the warm-up pass's serial result
  std::vector<double> wall_ms;     // serial wall of each timed pass
};

core::CampaignOptions campaign_options(std::size_t budget, std::size_t jobs) {
  core::CampaignOptions options;
  options.budget = budget;
  options.jobs = jobs;
  return options;
}

core::CampaignResult run_campaign(const Unit& unit, std::size_t budget,
                                  std::size_t jobs, Report& report) {
  ++report.attempted;
  auto result = core::Campaign::run_scenario(
      unit.scenario->name, campaign_options(budget, jobs), false, unit.seed);
  if (!result.ok()) {
    report.fail(unit.scenario->name + ": " + result.error());
    return {};
  }
  return std::move(result.value());
}

/// One from-scratch set-up of every campaign of the workload: registry
/// lookup, plan compile and campaign construction.
double time_setup(const StaticSpec& spec, std::uint64_t seed) {
  const std::uint64_t start = now_ns();
  for (const std::string& name : spec.scenarios) {
    const scenario::Scenario* entry =
        scenario::ScenarioRegistry::builtin().find(name);
    core::PtestConfig config = entry->config;
    config.seed = seed;
    const core::CompiledTestPlanPtr plan = core::compile(config);
    core::CampaignArm arm{entry->name, config.op, config.distributions};
    const core::Campaign campaign(config, {arm}, entry->setup,
                                  campaign_options(spec.budget, 1));
  }
  return static_cast<double>(now_ns() - start) * 1e-9;
}

Report run_static(const StaticSpec& spec, const RunOptions& options) {
  Report report;
  std::vector<Unit> units;
  for (std::size_t a = 0; a < spec.scenarios.size(); ++a) {
    const scenario::Scenario* entry =
        scenario::ScenarioRegistry::builtin().find(spec.scenarios[a]);
    if (entry == nullptr) {
      report.fail("unknown scenario " + spec.scenarios[a]);
      return report;
    }
    for (std::size_t j = 0; j < spec.seeds_per_scenario; ++j) {
      Unit unit;
      unit.scenario = entry;
      unit.seed = support::derive_seed(options.seed, a * kHuntSeeds + j);
      units.push_back(std::move(unit));
    }
  }

  // Warm-up pass: the serial reference of every campaign, its oracle
  // verdict against the catalog, and jobs=2 identity (whose pool idle
  // share is the traced pass's support.worker_idle_share).
  double idle_share_sum = 0;
  for (Unit& unit : units) {
    unit.reference = run_campaign(unit, spec.budget, 1, report);
    if (!unit.scenario->oracle.satisfied(unit.reference)) {
      report.fail(unit.scenario->name + ": oracle verdict differs from the "
                  "catalog (" + (unit.scenario->expects_bug()
                                     ? "bug did not fire"
                                     : "clean scenario fired") + ")");
    }
    const core::CampaignResult parallel =
        run_campaign(unit, spec.budget, 2, report);
    if (!same_outcome(parallel, unit.reference)) {
      report.fail(unit.scenario->name + ": jobs=2 differs from jobs=1");
    }
    idle_share_sum += worker_idle_share(parallel.metrics);
  }

  // Deterministic fingerprint.  Sessions-to-bug is taken over
  // kHuntSeeds campaign seeds per bug scenario (the timed campaigns'
  // seeds first), so its mean does not hinge on a few campaigns.
  std::uint64_t sessions = 0, ticks = 0;
  std::size_t hunts = 0, found = 0;
  double sessions_to_bug = 0, events = 0;
  for (const Unit& unit : units) {
    sessions += unit.reference.metrics.sessions;
    ticks += unit.reference.metrics.ticks;
    core::PtestConfig config = unit.scenario->config;
    config.seed = unit.seed;
    events += trace_events_per_session(config, unit.scenario->setup, 8);
  }
  for (std::size_t a = 0; a < spec.scenarios.size(); ++a) {
    const Unit& first_unit = units[a * spec.seeds_per_scenario];
    if (!first_unit.scenario->expects_bug()) continue;
    std::vector<std::uint64_t> seeds;
    for (std::size_t j = 0; j < kHuntSeeds; ++j) {
      seeds.push_back(support::derive_seed(options.seed, a * kHuntSeeds + j));
    }
    const auto firsts =
        campaign_first_bugs(*first_unit.scenario, seeds, spec.budget);
    for (std::size_t j = 0; j < firsts.size(); ++j) {
      ++hunts;
      if (firsts[j]) {
        ++found;
        sessions_to_bug += static_cast<double>(*firsts[j]);
      }
      if (j >= spec.seeds_per_scenario) continue;
      const Unit& unit = units[a * spec.seeds_per_scenario + j];
      const auto index =
          first_bug_index(unit.reference, unit.scenario->oracle, unit.seed);
      if (index.has_value() != firsts[j].has_value() ||
          (index && *index + 1 != *firsts[j])) {
        report.fail(unit.scenario->name +
                    ": campaign's first bug differs from its session prefix");
      }
    }
  }
  report.fingerprint.ticks_per_session =
      sessions == 0 ? 0 : static_cast<double>(ticks) / sessions;
  report.fingerprint.sessions_to_bug_mean =
      found == 0 ? 0 : sessions_to_bug / static_cast<double>(found);
  report.fingerprint.bug_miss_ratio =
      hunts == 0 ? 0
                 : 1.0 - static_cast<double>(found) /
                             static_cast<double>(hunts);
  report.fingerprint.trace_events_per_session =
      events / static_cast<double>(units.size());

  if (options.trace) {
    const Mirror mirror;
    LayerTotals layers;
    run_passes(options.seconds, 1, [&](std::size_t pass) {
      for (const Unit& unit : units) {
        core::PtestConfig config = unit.scenario->config;
        config.seed = unit.seed;
        const std::uint64_t start = now_ns();
        const core::CompiledTestPlanPtr plan = core::compile(config);
        layers.compile_ns += static_cast<double>(now_ns() - start);
        ++layers.compiles;
        trace_sessions(mirror, *plan, unit.seed, unit.scenario->setup,
                       pass % spec.budget, 1, layers, report);
      }
    });
    add_layer_metrics(report, layers, FleetLayer{},
                      idle_share_sum / static_cast<double>(units.size()));
    return report;
  }

  EndToEnd e2e;
  SetupSampler setup([&] { return time_setup(spec, options.seed); });
  const std::size_t passes = run_passes(
      options.seconds, kMinPasses, [&](std::size_t pass) {
        std::uint64_t serial_ns = 0;
        {
          const CpuTurn turn(pass);
          e2e.setup_s.push_back(setup.sample());
          for (Unit& unit : units) {
            const std::uint64_t start = now_ns();
            const core::CampaignResult result =
                run_campaign(unit, spec.budget, 1, report);
            const std::uint64_t elapsed = now_ns() - start;
            serial_ns += elapsed;
            unit.wall_ms.push_back(static_cast<double>(elapsed) / 1e6);
            if (!same_outcome(result, unit.reference)) {
              report.fail(unit.scenario->name + ": campaign not repeatable");
            }
          }
        }
        // The parallel form: two callers, each running whole campaigns
        // at jobs=1 (a jobs=2 pool on campaigns this small measured
        // mostly its thread start-up and round barriers).
        std::vector<char> same(units.size(), 0);
        const std::uint64_t parallel_ns =
            run_two_callers(units.size(), [&](std::size_t i) {
              auto result = core::Campaign::run_scenario(
                  units[i].scenario->name, campaign_options(spec.budget, 1),
                  false, units[i].seed);
              same[i] = result.ok() &&
                        same_outcome(result.value(), units[i].reference);
            });
        for (std::size_t i = 0; i < units.size(); ++i) {
          ++report.attempted;
          if (!same[i]) {
            report.fail(units[i].scenario->name +
                        ": concurrent campaign differs from the serial one");
          }
        }
        e2e.pass_rates.push_back(static_cast<double>(sessions) * 1e9 /
                                 static_cast<double>(serial_ns));
        e2e.pass_efficiencies.push_back(
            static_cast<double>(serial_ns) /
            (2.0 * static_cast<double>(parallel_ns)));
      });
  e2e.scaling_efficiency = median(e2e.pass_efficiencies);
  e2e.sessions_to_bug_mean = report.fingerprint.sessions_to_bug_mean;
  e2e.bug_found_ratio = 1.0 - report.fingerprint.bug_miss_ratio;
  double fastest_ms = 0;
  for (const Unit& unit : units) {
    fastest_ms += fastest(unit.wall_ms);
    if (unit.scenario->expects_bug()) {
      e2e.time_to_bug_ms.push_back(fastest(unit.wall_ms));
    }
  }
  e2e.sessions_per_s = static_cast<double>(sessions) * 1e3 / fastest_ms;
  e2e.tail_q = tail_percentile(e2e.time_to_bug_ms.size());
  add_end_to_end(report, e2e);
  report.notes.push_back(
      std::to_string(passes) + " timed passes of " +
      std::to_string(units.size()) + " campaigns x " +
      std::to_string(spec.budget) + " sessions (one caller, then two)");
  return report;
}

}  // namespace

CpuTurn::CpuTurn(std::size_t turn) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count <= 1) return;
  int target = static_cast<int>(turn % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || target-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

CpuTurn::~CpuTurn() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

std::vector<std::optional<std::size_t>> campaign_first_bugs(
    const scenario::Scenario& scenario,
    const std::vector<std::uint64_t>& campaign_seeds, std::size_t budget) {
  const core::CompiledTestPlanPtr plan = core::compile(scenario.config);
  pfa::WalkScratch scratch;
  std::vector<std::optional<std::size_t>> firsts;
  for (const std::uint64_t seed : campaign_seeds) {
    std::optional<std::size_t> first;
    for (std::size_t i = 0; i < budget && !first; ++i) {
      const core::AdaptiveTestResult result = core::execute(
          *plan, support::derive_seed(seed, i), scenario.setup, scratch);
      if (result.session.outcome == core::Outcome::kBug &&
          result.session.report &&
          scenario.oracle.matches(*result.session.report)) {
        first = i + 1;
      }
    }
    firsts.push_back(first);
  }
  return firsts;
}

double trace_events_per_session(const core::PtestConfig& config,
                                const core::WorkloadSetup& setup,
                                std::size_t count) {
  const core::CompiledTestPlanPtr plan = core::compile(config);
  pfa::WalkScratch scratch;
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = support::derive_seed(config.seed, i);
    core::AdaptiveTestResult result =
        core::generate_and_merge(*plan, seed, scratch);
    core::PtestConfig session_config = plan->config;
    session_config.seed = seed;
    core::TestSession session(session_config, plan->alphabet, result.merged,
                              result.patterns, setup);
    (void)session.run();
    events += session.soc().trace().total_recorded();
  }
  return count == 0 ? 0 : static_cast<double>(events) / count;
}

Report run_short_sessions(const RunOptions& options) {
  StaticSpec spec;
  spec.scenarios = {"quicksort-clean", "order-violation", "aba-stack",
                    "deadlock-pair",   "lost-update",     "queue-order",
                    "double-checked-lock"};
  spec.seeds_per_scenario = 20;
  spec.budget = 64;
  return run_static(spec, options);
}

Report run_long_sessions(const RunOptions& options) {
  StaticSpec spec;
  spec.scenarios = {"barrier-reuse", "fig1-livelock", "writer-starvation",
                    "priority-inversion"};
  spec.seeds_per_scenario = 32;
  spec.budget = 12;
  return run_static(spec, options);
}

}  // namespace perfbench
