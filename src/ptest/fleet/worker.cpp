#include "ptest/fleet/worker.hpp"

#include <chrono>

#include "ptest/fleet/wire.hpp"
#include "ptest/obs/trace.hpp"

namespace ptest::fleet {

namespace {

/// Send attempts a persistent daemon spends on one result before
/// dropping it (the coordinator is gone; its deadline re-issues the
/// slice to a live worker).
constexpr std::uint64_t kDaemonSendBudget = 10'000;

}  // namespace

support::Result<std::size_t, std::string> Worker::serve(Transport& transport) {
  std::size_t executed = 0;
  std::uint64_t idle_polls = 0;
  while (true) {
    const auto text = transport.receive();
    if (!text) {
      if (++idle_polls > options_.poll_limit) {
        return std::string(
            "fleet: worker idle past poll limit (coordinator gone?)");
      }
      idle_wait(options_.idle_sleep_us);
      continue;
    }
    idle_polls = 0;
    auto frame = decode(*text);
    if (!frame.ok()) {
      // A daemon must not die because one campaign's coordinator spoke
      // garbage; a one-shot worker reports the error and exits.
      if (options_.persistent) continue;
      return frame.error();
    }
    if (frame.value().kind == FrameKind::kShutdown) return executed;
    if (frame.value().kind == FrameKind::kCampaignEnd) {
      // End of one campaign.  A persistent daemon stays up for the next
      // coordinator; anyone else treats it exactly like a shutdown.
      if (options_.persistent) continue;
      return executed;
    }
    if (frame.value().kind != FrameKind::kAssign) {
      if (options_.persistent) continue;
      return std::string("fleet: worker received a non-assign frame");
    }
    const AssignFrame& assign = frame.value().assign;

    ResultFrame reply;
    reply.seq = assign.seq;
    reply.shard = assign.slice.index;
    reply.node = options_.node;
    // Trace the slice when asked: enable before the run so the compile
    // and session spans land in the ring, drain after, and rebase the
    // shipped events to the slice start so the coordinator can anchor
    // the fragment at its own issue instant.
    const bool tracing = assign.trace && options_.ship_trace;
    std::uint64_t trace_base_ns = 0;
    if (tracing) {
      auto& recorder = obs::TraceRecorder::instance();
      if (!recorder.enabled()) recorder.enable();
      trace_base_ns = obs::TraceRecorder::now_ns();
    }
    const auto wall_start = std::chrono::steady_clock::now();
    core::CampaignOptions campaign_options;
    campaign_options.jobs = assign.jobs;
    if (plan_cache_.scenario != assign.scenario ||
        plan_cache_.seed != assign.seed) {
      plan_cache_ = {assign.scenario, assign.seed, nullptr};
    }
    auto result = core::Campaign::run_scenario_slice(
        assign.scenario, assign.slice, campaign_options, false, assign.seed,
        &plan_cache_.plan);
    if (!result.ok()) {
      reply.error = result.error();
    } else {
      reply.result = std::move(result.value());
    }
    reply.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    if (tracing) {
      // run_scenario_slice joins its session pool before returning, so
      // every producer thread is quiescent — drain()'s contract holds.
      reply.trace_json = obs::trace_fragment_json(
          obs::TraceRecorder::instance().drain(), trace_base_ns);
    }

    const std::string encoded = encode(reply);
    std::uint64_t send_polls = 0;
    bool sent = true;
    // A daemon whose coordinator vanished must not wait out the (huge)
    // daemon poll limit holding one result: the coordinator's shard
    // deadline re-issues the slice anyway, so give up much sooner.
    const std::uint64_t send_budget =
        options_.persistent ? std::min<std::uint64_t>(options_.poll_limit,
                                                      kDaemonSendBudget)
                            : options_.poll_limit;
    while (!transport.send(encoded)) {
      if (++send_polls > send_budget) {
        if (!options_.persistent) {
          return std::string(
              "fleet: result send backpressured past poll limit");
        }
        sent = false;  // drop the result, keep serving
        break;
      }
      idle_wait(options_.idle_sleep_us);
    }
    if (sent) ++executed;
  }
}

}  // namespace ptest::fleet
