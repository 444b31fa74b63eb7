// Campaign::run_scenario — the campaign-layer entry point into the
// scenario registry.  Declared in core/campaign.hpp but defined here so
// the core module's translation units stay below the scenario layer (the
// member needs the registry, which needs core; defining it next to the
// registry keeps the include graph acyclic).
#include "ptest/core/campaign.hpp"
#include "ptest/scenario/registry.hpp"

namespace ptest::core {

namespace {

/// Builds the scenario's single-arm campaign, or an error message.
support::Result<Campaign, std::string> scenario_campaign(
    std::string_view name, CampaignOptions& options, bool benign,
    std::optional<std::uint64_t> seed_override) {
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(name);
  if (entry == nullptr) {
    return std::string("unknown scenario '") + std::string(name) +
           "' (see --list-scenarios)";
  }
  if (benign && !entry->has_benign()) {
    return std::string("scenario '") + entry->name +
           "' has no benign variant";
  }
  PtestConfig config = benign ? entry->benign_plan() : entry->config;
  if (seed_override) config.seed = *seed_override;
  if (options.budget == 0) options.budget = entry->default_budget;
  const WorkloadSetup& setup =
      benign ? entry->benign_workload() : entry->setup;
  // The arm must carry the *chosen* plan's (op, PD): Campaign::arm_config
  // reapplies the arm's pair on top of the base config, so reusing the
  // buggy arm under a benign run would silently undo the benign plan.
  CampaignArm arm;
  arm.name = entry->name + (benign ? "/benign" : "");
  arm.op = config.op;
  arm.distributions = config.distributions;
  return Campaign(config, {arm}, setup, options);
}

}  // namespace

support::Result<CampaignResult, std::string> Campaign::run_scenario(
    std::string_view name, CampaignOptions options, bool benign,
    std::optional<std::uint64_t> seed_override) {
  auto campaign = scenario_campaign(name, options, benign, seed_override);
  if (!campaign) return campaign.error();
  return campaign.value().run();
}

support::Result<CampaignResult, std::string> Campaign::run_scenario_slice(
    std::string_view name, const ShardSlice& slice, CampaignOptions options,
    bool benign, std::optional<std::uint64_t> seed_override,
    CompiledTestPlanPtr* plan) {
  auto campaign = scenario_campaign(name, options, benign, seed_override);
  if (!campaign) return campaign.error();
  if (plan != nullptr) campaign.value().plans_ = {*plan};
  CampaignResult result = campaign.value().run_slice(slice);
  if (plan != nullptr) *plan = campaign.value().plans_[0];
  return result;
}

}  // namespace ptest::core
