#include "mirror.hpp"

#include <memory>

#include "ptest/bridge/committee.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/core/state_record.hpp"
#include "ptest/master/scheduler.hpp"
#include "ptest/support/rng.hpp"

namespace perfbench {

namespace {

using namespace ptest;

/// Tick sampling state shared by the timing devices.  One tick in
/// kSampleEvery, picked at random so the sample cannot alias with the
/// simulation's own periods, is timed through a chain of stamps: the
/// loop probe stamps the tick's start, each device stamps its end and
/// charges the time since the previous stamp to itself, and the next
/// tick's probe charges the rest of the cycle (the Soc::run loop) to the
/// loop.  The other ticks only pay a call and a branch per device.
constexpr std::uint64_t kSampleEvery = 8;

struct TickChain {
  std::uint64_t last = 0;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sampled_ticks = 0;
  bool sampled = false;  // the current tick is timed
  bool closing = false;  // a timed tick's loop interval is open

  /// Decides whether the coming tick is timed.
  void decide() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    sampled = rng % kSampleEvery == 0;
    if (sampled) ++sampled_ticks;
  }
};

/// Attached first: closes the previous timed tick's loop interval and
/// opens a timed tick.
class LoopProbe final : public sim::Device {
 public:
  LoopProbe(TickChain& chain, std::uint64_t& ns) : chain_(&chain), ns_(&ns) {}
  bool tick(sim::Soc&) override {
    if (chain_->closing || chain_->sampled) {
      const std::uint64_t t = now_ns();
      if (chain_->closing) *ns_ += t - chain_->last;
      chain_->closing = false;
      chain_->last = t;
    }
    return true;
  }

 private:
  TickChain* chain_;
  std::uint64_t* ns_;
};

/// Wraps one device; the last one attached (`decides`) also picks
/// whether the next tick is timed.
class TimedDevice final : public sim::Device {
 public:
  TimedDevice(sim::Device& inner, TickChain& chain, std::uint64_t& ns,
              bool decides = false)
      : inner_(&inner), chain_(&chain), ns_(&ns), decides_(decides) {}
  bool tick(sim::Soc& soc) override {
    const bool keep_running = inner_->tick(soc);
    if (chain_->sampled) {
      const std::uint64_t t = now_ns();
      *ns_ += t - chain_->last;
      chain_->last = t;
    }
    if (decides_) {
      chain_->closing = chain_->sampled;
      chain_->decide();
    }
    return keep_running;
  }

 private:
  sim::Device* inner_;
  TickChain* chain_;
  std::uint64_t* ns_;
  bool decides_;
};

/// TestSession's members, declared in its order so they are destroyed
/// in its order.
struct Stack {
  std::unique_ptr<sim::Soc> soc;
  std::unique_ptr<pcore::PcoreKernel> kernel;
  std::unique_ptr<bridge::Channel> channel;
  std::unique_ptr<bridge::Committee> committee;
  std::unique_ptr<master::MasterScheduler> master;
  master::Committer* committer = nullptr;
  std::unique_ptr<core::StateRecorder> recorder;
  std::unique_ptr<core::BugDetector> detector;
};

/// Mirror of TestSession's constructor (core/session.cpp), minus the
/// device attachment, which the caller does through timing devices.
void build(Stack& stack, const core::PtestConfig& config,
           const pfa::Alphabet& alphabet,
           const pattern::MergedPattern& merged,
           const std::vector<pattern::TestPattern>& patterns,
           const core::WorkloadSetup& setup) {
  stack.soc = std::make_unique<sim::Soc>();
  stack.kernel = std::make_unique<pcore::PcoreKernel>(config.kernel);
  if (setup) setup(*stack.kernel);
  stack.channel = std::make_unique<bridge::Channel>(*stack.soc);
  stack.committee =
      std::make_unique<bridge::Committee>(*stack.channel, *stack.kernel);
  stack.master = std::make_unique<master::MasterScheduler>(*stack.channel);
  stack.recorder = std::make_unique<core::StateRecorder>(alphabet);
  for (pattern::SlotIndex slot = 0; slot < patterns.size(); ++slot) {
    stack.recorder->assign(slot, patterns[slot].symbols);
  }
  master::CommitterOptions committer_options;
  committer_options.program_id = config.program_id;
  committer_options.program_arg = [](pattern::SlotIndex slot) {
    return static_cast<std::uint32_t>(slot);
  };
  if (config.noise_max_delay > 0 || config.command_spacing > 0) {
    auto noise_rng =
        std::make_shared<support::Rng>(config.seed ^ 0x6e6f697365ULL);
    const sim::Tick max_delay = config.noise_max_delay;
    const sim::Tick spacing = config.command_spacing;
    committer_options.issue_delay =
        [noise_rng, max_delay, spacing](const pattern::MergedElement&) {
          const sim::Tick jitter =
              max_delay > 0
                  ? static_cast<sim::Tick>(noise_rng->below(max_delay + 1))
                  : 0;
          return spacing + jitter;
        };
  }
  auto committer = std::make_unique<master::Committer>(
      merged, alphabet, std::move(committer_options), stack.recorder.get());
  stack.committer = committer.get();
  stack.master->add(std::move(committer));
  stack.detector = std::make_unique<core::BugDetector>(
      config.detector, *stack.kernel, *stack.committer, *stack.recorder);
}

/// Mirror of TestSession::run's result extraction.
core::SessionResult collect(const Stack& stack,
                            const core::PtestConfig& config,
                            const pattern::MergedPattern& merged,
                            sim::Tick ticks) {
  core::SessionResult result;
  result.stats.ticks = ticks;
  if (stack.detector->bug_found()) {
    result.outcome = core::Outcome::kBug;
    result.report = *stack.detector->report();
    result.report->seed = config.seed;
    result.report->merged = merged;
  } else if (stack.detector->passed()) {
    result.outcome = core::Outcome::kPassed;
  } else {
    result.outcome = core::Outcome::kTickLimit;
  }
  result.stats.commands_issued = stack.committer->issued();
  result.stats.commands_acked = stack.committer->acked();
  result.stats.commands_failed = stack.committer->failed();
  const auto snapshot = stack.kernel->snapshot();
  result.stats.kernel_service_calls = snapshot.service_calls;
  result.stats.context_switches = snapshot.context_switches;
  result.stats.gc_runs = snapshot.heap.gc_runs;
  return result;
}

double span(std::uint64_t begin, std::uint64_t end, double stamp) {
  return static_cast<double>(end - begin) - stamp;
}

}  // namespace

Mirror::Mirror() {
  // Two costs, each the median over batches of an idle Soc whose four
  // devices do nothing: the cost one stamp adds to the interval it
  // closes (a timed tick's idle device intervals), and the whole
  // per-tick cost of the timing devices (the instrumented idle Soc
  // against a bare one).
  class Idle final : public sim::Device {
   public:
    bool tick(sim::Soc&) override { return true; }
  };
  constexpr sim::Tick kTicks = 200000;
  std::vector<double> stamps, per_tick;
  for (int batch = 0; batch < 9; ++batch) {
    Idle idle;
    sim::Soc bare;
    for (int i = 0; i < 4; ++i) bare.attach(idle);
    std::uint64_t start = now_ns();
    bare.run(kTicks);
    const std::uint64_t bare_ns = now_ns() - start;

    sim::Soc soc;
    TickChain chain;
    std::uint64_t loop_ns = 0, device_ns = 0;
    LoopProbe probe(chain, loop_ns);
    TimedDevice a(idle, chain, device_ns), b(idle, chain, device_ns),
        c(idle, chain, device_ns), d(idle, chain, device_ns, true);
    soc.attach(probe);
    for (TimedDevice* device : {&a, &b, &c, &d}) soc.attach(*device);
    start = now_ns();
    chain.decide();
    soc.run(kTicks);
    const std::uint64_t timed_ns = now_ns() - start;
    stamps.push_back(static_cast<double>(device_ns) /
                     (4.0 * static_cast<double>(chain.sampled_ticks)));
    per_tick.push_back((static_cast<double>(timed_ns) -
                        static_cast<double>(bare_ns)) /
                       static_cast<double>(kTicks));
  }
  stamp_ns_ = median(stamps);
  tick_overhead_ns_ = median(per_tick);
}

MirroredSession Mirror::run(const core::CompiledTestPlan& plan,
                            std::uint64_t seed,
                            const core::WorkloadSetup& setup,
                            pfa::WalkScratch& scratch,
                            pattern::CoverageTracker* tracker,
                            LayerTotals& totals) const {
  const double c = stamp_ns_;
  TickChain chain;
  chain.rng ^= seed;
  std::uint64_t loop_ns = 0, master_ns = 0, bridge_ns = 0, pcore_ns = 0,
                detector_ns = 0;
  MirroredSession mirrored;
  core::AdaptiveTestResult& result = mirrored.result;

  const std::uint64_t w0 = now_ns();
  const std::uint64_t g0 = now_ns();
  result = core::generate_and_merge(plan, seed, scratch);
  const std::uint64_t g1 = now_ns();
  std::uint64_t c0 = 0, c1 = 0;
  if (tracker != nullptr) {
    c0 = now_ns();
    for (const pattern::TestPattern& sampled : result.patterns) {
      tracker->observe(sampled);
    }
    c1 = now_ns();
  }

  const std::uint64_t s0 = now_ns();
  core::PtestConfig config = plan.config;
  config.seed = seed;
  auto stack = std::make_unique<Stack>();
  build(*stack, config, plan.alphabet, result.merged, result.patterns, setup);
  const std::uint64_t s1 = now_ns();

  LoopProbe probe(chain, loop_ns);
  TimedDevice master(*stack->master, chain, master_ns);
  TimedDevice committee(*stack->committee, chain, bridge_ns);
  TimedDevice kernel(*stack->kernel, chain, pcore_ns);
  TimedDevice detector(*stack->detector, chain, detector_ns, true);
  stack->soc->attach(probe);
  stack->soc->attach(master);
  stack->soc->attach(committee);
  stack->soc->attach(kernel);
  stack->soc->attach(detector);

  const std::uint64_t r0 = now_ns();
  chain.decide();
  const sim::Tick ticks = stack->soc->run(config.max_ticks);
  const std::uint64_t r1 = now_ns();
  if (chain.closing) loop_ns += r1 - chain.last;
  // The decision made after the final tick timed nothing.
  if (chain.sampled) --chain.sampled_ticks;

  const std::uint64_t e0 = now_ns();
  result.session = collect(*stack, config, result.merged, ticks);
  mirrored.trace_events = stack->soc->trace().total_recorded();
  stack.reset();
  const std::uint64_t e1 = now_ns();
  const std::uint64_t w1 = now_ns();

  const double t = static_cast<double>(ticks);
  // Each of a timed tick's five intervals holds one stamp.
  const double timed = static_cast<double>(chain.sampled_ticks);
  const double session_stamps = tracker != nullptr ? 11.0 : 9.0;
  totals.generate_merge_ns += span(g0, g1, c);
  if (tracker != nullptr) totals.coverage_ns += span(c0, c1, c);
  totals.session_setup_ns += span(s0, s1, c);
  totals.master_ns += static_cast<double>(master_ns) - timed * c;
  totals.bridge_ns += static_cast<double>(bridge_ns) - timed * c;
  totals.pcore_ns += static_cast<double>(pcore_ns) - timed * c;
  totals.detector_ns += static_cast<double>(detector_ns) - timed * c;
  totals.loop_ns += static_cast<double>(loop_ns) - timed * c;
  totals.teardown_ns += span(e0, e1, c);
  totals.run_ns += static_cast<double>(r1 - r0) - t * tick_overhead_ns_ - c;
  totals.session_wall_ns += static_cast<double>(w1 - w0) -
                            session_stamps * c - t * tick_overhead_ns_;
  totals.traced_raw_ns += static_cast<double>(w1 - w0);

  ++totals.sessions;
  totals.ticks += ticks;
  totals.sampled_ticks += chain.sampled_ticks;
  totals.trace_events += mirrored.trace_events;
  totals.commands += result.session.stats.commands_issued;
  totals.commands_failed += result.session.stats.commands_failed;
  totals.context_switches += result.session.stats.context_switches;
  return mirrored;
}

std::string compare(const core::AdaptiveTestResult& reference,
                    const MirroredSession& mirrored) {
  const core::SessionResult& a = reference.session;
  const core::SessionResult& b = mirrored.result.session;
  if (a.outcome != b.outcome) return "outcome differs";
  if (a.stats.ticks != b.stats.ticks) return "ticks differ";
  if (a.stats.commands_issued != b.stats.commands_issued ||
      a.stats.commands_acked != b.stats.commands_acked ||
      a.stats.commands_failed != b.stats.commands_failed) {
    return "command counts differ";
  }
  if (a.stats.context_switches != b.stats.context_switches ||
      a.stats.kernel_service_calls != b.stats.kernel_service_calls) {
    return "kernel counts differ";
  }
  if (a.report.has_value() != b.report.has_value() ||
      (a.report && a.report->signature() != b.report->signature())) {
    return "bug report differs";
  }
  return {};
}

namespace {

/// core::execute plus the campaign's coverage observe, timed into
/// totals.untraced_ns.
core::AdaptiveTestResult run_untraced(const core::CompiledTestPlan& plan,
                                      std::uint64_t seed,
                                      const core::WorkloadSetup& setup,
                                      pfa::WalkScratch& scratch,
                                      pattern::CoverageTracker* tracker,
                                      LayerTotals& totals) {
  const std::uint64_t start = now_ns();
  core::AdaptiveTestResult result = core::execute(plan, seed, setup, scratch);
  if (tracker != nullptr) {
    for (const pattern::TestPattern& sampled : result.patterns) {
      tracker->observe(sampled);
    }
  }
  totals.untraced_ns += static_cast<double>(now_ns() - start);
  return result;
}

}  // namespace

MirroredSession run_both(const Mirror& mirror,
                         const core::CompiledTestPlan& plan,
                         std::uint64_t seed, const core::WorkloadSetup& setup,
                         pfa::WalkScratch& scratch,
                         pattern::CoverageTracker* untraced_tracker,
                         pattern::CoverageTracker* traced_tracker,
                         LayerTotals& totals, std::size_t index,
                         std::string& difference) {
  core::AdaptiveTestResult reference;
  MirroredSession mirrored;
  if (index % 2 == 0) {
    reference =
        run_untraced(plan, seed, setup, scratch, untraced_tracker, totals);
    mirrored = mirror.run(plan, seed, setup, scratch, traced_tracker, totals);
  } else {
    mirrored = mirror.run(plan, seed, setup, scratch, traced_tracker, totals);
    reference =
        run_untraced(plan, seed, setup, scratch, untraced_tracker, totals);
  }
  difference = compare(reference, mirrored);
  return mirrored;
}

void trace_sessions(const Mirror& mirror, const core::CompiledTestPlan& plan,
                    std::uint64_t plan_seed, const core::WorkloadSetup& setup,
                    std::size_t first, std::size_t count, LayerTotals& totals,
                    Report& report) {
  pfa::WalkScratch scratch;
  pattern::CoverageTracker untraced_tracker(plan.pfa);
  pattern::CoverageTracker traced_tracker(plan.pfa);
  for (std::size_t i = first; i < first + count; ++i) {
    std::string difference;
    (void)run_both(mirror, plan, support::derive_seed(plan_seed, i), setup,
                   scratch, &untraced_tracker, &traced_tracker, totals, i,
                   difference);
    ++report.attempted;
    if (!difference.empty()) {
      report.fail("mirrored session " + std::to_string(i) + " of plan seed " +
                  std::to_string(plan_seed) + ": " + difference);
    }
  }
  if (untraced_tracker.state() != traced_tracker.state()) {
    report.fail("mirrored coverage differs from the untraced sessions'");
  }
}

}  // namespace perfbench
