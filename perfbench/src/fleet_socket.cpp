// fleet-socket: one campaign split into hundreds of small shards, served
// by two in-process persistent worker daemons over loopback TCP (the
// options of bench/bench_fleet.cpp's socket leg).  Each pass also runs
// the campaign serially at jobs=1 and through a jobs=2 WorkerPool; the
// fleet result must be bit-identical to the serial one.
#include <memory>
#include <thread>

#include "mirror.hpp"
#include "ptest/fleet/coordinator.hpp"
#include "ptest/fleet/socket_transport.hpp"
#include "ptest/fleet/wire.hpp"
#include "ptest/fleet/worker.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ptest;

constexpr const char* kScenario = "philosophers-deadlock";
constexpr std::size_t kBudget = 600;
constexpr std::size_t kShards = 200;
constexpr std::size_t kMinPasses = 100;
constexpr std::size_t kTracedSessionsPerPass = 16;
/// Campaign seeds behind sessions_to_bug_mean.
constexpr std::size_t kHuntSeeds = 1024;

/// Two persistent worker daemons on loopback and one coordinator
/// connection to both: 3 threads, 2 connections.
class SocketFleet {
 public:
  SocketFleet() {
    for (auto& daemon : daemons_) {
      daemon = std::make_unique<fleet::SocketTransport>(
          fleet::SocketTransport::Listen{0});
    }
    int node = 0;
    for (auto& daemon : daemons_) {
      fleet::WorkerOptions options;
      options.idle_sleep_us = 100;
      options.persistent = true;
      options.poll_limit = 600'000;  // a minute of idling at the most
      options.node = "perfbench-w" + std::to_string(node++);
      threads_.emplace_back([transport = daemon.get(), options] {
        (void)fleet::Worker(options).serve(*transport);
      });
    }
    coordinator_ = std::make_unique<fleet::SocketTransport>(
        fleet::SocketTransport::Connect{
            {"127.0.0.1:" + std::to_string(daemons_[0]->port()),
             "127.0.0.1:" + std::to_string(daemons_[1]->port())}});
  }

  ~SocketFleet() {
    const std::size_t peers = coordinator_->peers();
    for (std::size_t i = 0; i < peers; ++i) {
      while (!coordinator_->send(fleet::encode_shutdown())) {
        std::this_thread::yield();
      }
    }
    for (std::thread& thread : threads_) thread.join();
  }

  SocketFleet(const SocketFleet&) = delete;
  SocketFleet& operator=(const SocketFleet&) = delete;

  [[nodiscard]] fleet::Transport& coordinator() { return *coordinator_; }

 private:
  std::unique_ptr<fleet::SocketTransport> daemons_[2];
  std::vector<std::thread> threads_;
  std::unique_ptr<fleet::SocketTransport> coordinator_;
};

/// Times the coordinator's transport calls and keeps the frames it
/// received for the encode/decode measurement.
class TimedTransport final : public fleet::Transport {
 public:
  TimedTransport(fleet::Transport& inner, FleetLayer& layer,
                 std::vector<std::string>& frames)
      : inner_(&inner), layer_(&layer), frames_(&frames) {}

  bool send(const std::string& frame) override {
    const std::uint64_t start = now_ns();
    const bool sent = inner_->send(frame);
    if (sent) {
      layer_->send_ns += static_cast<double>(now_ns() - start);
      ++layer_->sends;
    }
    return sent;
  }
  std::optional<std::string> receive() override {
    const std::uint64_t start = now_ns();
    std::optional<std::string> frame = inner_->receive();
    const std::uint64_t elapsed = now_ns() - start;
    ++layer_->polls;
    if (!frame) {
      ++layer_->empty_polls;
      return frame;
    }
    layer_->receive_ns += static_cast<double>(elapsed);
    ++layer_->receives;
    frames_->push_back(*frame);
    return frame;
  }
  std::size_t peers() override { return inner_->peers(); }

 private:
  fleet::Transport* inner_;
  FleetLayer* layer_;
  std::vector<std::string>* frames_;
};

fleet::CoordinatorOptions coordinator_options(std::uint64_t seed) {
  fleet::CoordinatorOptions options;
  options.shards = kShards;
  options.budget = kBudget;
  options.seed = seed;
  options.idle_sleep_us = 100;
  options.shard_deadline = 600'000;
  options.expected_workers = 2;
  options.drain = fleet::DrainMode::kCampaignEnd;
  return options;
}

core::CampaignResult run_campaign(std::uint64_t seed, std::size_t jobs,
                                  Report& report) {
  ++report.attempted;
  core::CampaignOptions options;
  options.budget = kBudget;
  options.jobs = jobs;
  auto result = core::Campaign::run_scenario(kScenario, options, false, seed);
  if (!result.ok()) {
    report.fail(result.error());
    return {};
  }
  return std::move(result.value());
}

/// Runs one fleet campaign and checks it against the serial reference:
/// results and the exported corpus must be bit-identical.
fleet::FleetResult run_fleet(fleet::Transport& transport, std::uint64_t seed,
                             const core::CampaignResult& serial,
                             const std::string& serial_corpus,
                             Report& report) {
  ++report.attempted;
  auto result =
      fleet::Coordinator(kScenario, coordinator_options(seed)).run(transport);
  if (!result.ok()) {
    report.fail("fleet campaign: " + result.error());
    return {};
  }
  if (!same_outcome(result.value().result, serial)) {
    report.fail("fleet result differs from the serial run");
  } else if (result.value().corpus.to_json() != serial_corpus) {
    report.fail("fleet corpus differs from the serial run");
  }
  return std::move(result.value());
}

/// One from-scratch set-up: registry lookup, plan compile, campaign
/// construction, two listening daemons, their worker threads and the
/// coordinator's connections.  The teardown is not timed.
double time_setup(std::uint64_t seed) {
  const std::uint64_t start = now_ns();
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(kScenario);
  core::PtestConfig config = entry->config;
  config.seed = seed;
  const core::CompiledTestPlanPtr plan = core::compile(config);
  core::CampaignArm arm{entry->name, config.op, config.distributions};
  const core::Campaign campaign(config, {arm}, entry->setup);
  const SocketFleet fleet;
  return static_cast<double>(now_ns() - start) * 1e-9;
}

}  // namespace

Report run_fleet_socket(const RunOptions& options) {
  Report report;
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(kScenario);
  if (entry == nullptr) {
    report.fail(std::string("unknown scenario ") + kScenario);
    return report;
  }
  const std::uint64_t seed = support::derive_seed(options.seed, 0);

  // References: the serial campaign, its oracle verdict, its corpus.
  const core::CampaignResult serial = run_campaign(seed, 1, report);
  if (!entry->oracle.satisfied(serial)) {
    report.fail("fleet scenario's oracle did not fire");
  }
  auto corpus = fleet::shard_corpus(kScenario, {0, 0, kBudget}, serial, seed);
  if (!corpus.ok()) {
    report.fail(corpus.error());
    return report;
  }
  const std::string serial_corpus = corpus.value().to_json();
  const core::CampaignResult parallel = run_campaign(seed, 2, report);
  if (!same_outcome(parallel, serial)) {
    report.fail("jobs=2 differs from jobs=1");
  }

  // Sessions-to-bug over kHuntSeeds campaign seeds, the fleet
  // campaign's own first; its prefix must agree with the serial result.
  std::vector<std::uint64_t> seeds;
  for (std::size_t j = 0; j < kHuntSeeds; ++j) {
    seeds.push_back(support::derive_seed(options.seed, j));
  }
  const auto firsts = campaign_first_bugs(*entry, seeds, kBudget);
  const auto first = first_bug_index(serial, entry->oracle, seed);
  if (first.has_value() != firsts[0].has_value() ||
      (first && *first + 1 != *firsts[0])) {
    report.fail("campaign's first bug differs from its session prefix");
  }
  double sessions_to_bug = 0;
  std::size_t found = 0;
  for (const auto& index : firsts) {
    if (!index) continue;
    ++found;
    sessions_to_bug += static_cast<double>(*index);
  }
  report.fingerprint.ticks_per_session =
      static_cast<double>(serial.metrics.ticks) /
      static_cast<double>(serial.metrics.sessions);
  report.fingerprint.sessions_to_bug_mean =
      found == 0 ? 0.0 : sessions_to_bug / static_cast<double>(found);
  report.fingerprint.bug_miss_ratio =
      1.0 - static_cast<double>(found) / static_cast<double>(kHuntSeeds);
  core::PtestConfig config = entry->config;
  config.seed = seed;
  report.fingerprint.trace_events_per_session =
      trace_events_per_session(config, entry->setup, 8);

  if (options.trace) {
    const Mirror mirror;
    LayerTotals layers;
    FleetLayer fleet_layer;
    SocketFleet fleet;
    run_passes(options.seconds, 1, [&](std::size_t pass) {
      std::vector<std::string> frames;
      TimedTransport timed(fleet.coordinator(), fleet_layer, frames);
      const fleet::FleetResult result =
          run_fleet(timed, seed, serial, serial_corpus, report);
      const auto& metrics = result.result.metrics;
      fleet_layer.corpus_merge_ns +=
          static_cast<double>(metrics.fleet_corpus_merge_ns);
      fleet_layer.shard_imbalance += metrics.fleet_shard_imbalance();
      fleet_layer.retries += metrics.fleet_retries;
      ++fleet_layer.campaigns;
      for (const std::string& text : frames) {
        const std::uint64_t decode_start = now_ns();
        auto decoded = fleet::decode(text);
        const std::uint64_t decode_end = now_ns();
        if (!decoded.ok() ||
            decoded.value().kind != fleet::FrameKind::kResult) {
          continue;
        }
        const std::string encoded = fleet::encode(decoded.value().result);
        fleet_layer.encode_ns += static_cast<double>(now_ns() - decode_end);
        fleet_layer.decode_ns +=
            static_cast<double>(decode_end - decode_start);
        fleet_layer.frame_bytes += static_cast<double>(encoded.size());
        ++fleet_layer.frames;
      }

      const std::uint64_t start = now_ns();
      const core::CompiledTestPlanPtr plan = core::compile(config);
      layers.compile_ns += static_cast<double>(now_ns() - start);
      ++layers.compiles;
      trace_sessions(mirror, *plan, seed, entry->setup,
                     (pass * kTracedSessionsPerPass) % kBudget,
                     kTracedSessionsPerPass, layers, report);
    });
    add_layer_metrics(report, layers, fleet_layer,
                      worker_idle_share(parallel.metrics));
    return report;
  }

  EndToEnd e2e;
  SetupSampler setup([&] { return time_setup(seed); });

  SocketFleet fleet;
  std::vector<double> pool_efficiencies, serial_ms;
  const std::size_t passes =
      run_passes(options.seconds, kMinPasses, [&](std::size_t pass) {
        // Every tenth pass: each set-up opens sockets and threads, and a
        // batch every pass slowed the fleet passes and split their walls
        // into two modes.
        if (pass % 10 == 0) e2e.setup_s.push_back(setup.sample());
        std::uint64_t start = now_ns();
        const core::CampaignResult again = run_campaign(seed, 1, report);
        const std::uint64_t serial_ns = now_ns() - start;
        serial_ms.push_back(static_cast<double>(serial_ns) / 1e6);
        if (!same_outcome(again, serial)) {
          report.fail("serial campaign not repeatable");
        }
        start = now_ns();
        const core::CampaignResult pooled = run_campaign(seed, 2, report);
        const std::uint64_t pooled_ns = now_ns() - start;
        if (!same_outcome(pooled, serial)) {
          report.fail("jobs=2 differs from jobs=1");
        }
        start = now_ns();
        (void)run_fleet(fleet.coordinator(), seed, serial, serial_corpus,
                        report);
        const std::uint64_t fleet_ns = now_ns() - start;
        // A fleet campaign hands back its bug reports when it ends, so
        // time to bug here is the campaign's wall: kBudget over this
        // pass's rate, not a separate measurement.
        e2e.time_to_bug_ms.push_back(static_cast<double>(fleet_ns) / 1e6);
        e2e.pass_rates.push_back(static_cast<double>(kBudget) * 1e9 /
                                 static_cast<double>(fleet_ns));
        e2e.pass_efficiencies.push_back(
            static_cast<double>(serial_ns) /
            (2.0 * static_cast<double>(fleet_ns)));
        pool_efficiencies.push_back(static_cast<double>(serial_ns) /
                                    (2.0 * static_cast<double>(pooled_ns)));
      });
  // The one campaign is the only unit: its rate is its fastest pass, its
  // scaling that rate against the fastest serial pass, and its time to
  // bug the median and tail of its walls over the passes.
  const double fleet_ms = fastest(e2e.time_to_bug_ms);
  e2e.sessions_per_s = static_cast<double>(kBudget) * 1e3 / fleet_ms;
  e2e.scaling_efficiency = fastest(serial_ms) / (2.0 * fleet_ms);
  e2e.sessions_to_bug_mean = report.fingerprint.sessions_to_bug_mean;
  e2e.bug_found_ratio = 1.0 - report.fingerprint.bug_miss_ratio;
  e2e.tail_q = tail_percentile(kMinPasses);
  add_end_to_end(report, e2e);
  report.notes.push_back(
      std::to_string(passes) + " timed passes of one " +
      std::to_string(kBudget) + "-session campaign in " +
      std::to_string(kShards) +
      " shards (serial, jobs=2 pool, then the socket fleet); jobs=2 pool "
      "efficiency " + std::to_string(median(pool_efficiencies)));
  return report;
}

}  // namespace perfbench
