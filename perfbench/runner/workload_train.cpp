// train_offline: the offline pipeline behind `automdt train --preset read`
// (exploration, link estimates, simulator build, PPO training), run through
// core::AutoMdt::train_offline on the bottleneck_read preset with shipped
// PpoConfig defaults except for the lane count and a fixed episode budget
// (see pipeline()).
//
// A session is one train_offline call with a budget of kSessionEpisodes
// episodes; sessions run back to back for the run's time, each with its own
// pipeline and PPO seed drawn from the workload seed. Set-up is the call's
// wall time minus training.wall_time_s. A traced run spends the second half
// of its time on sessions with the trainer's span exporter and telemetry
// registry attached, then times SimulatorEnv::step and PpoAgent::act on the
// last trained scenario and agent.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/observation.hpp"
#include "common/rng.hpp"
#include "core/automdt.hpp"
#include "telemetry/trace.hpp"
#include "testbed/dataset.hpp"
#include "testbed/environment.hpp"
#include "testbed/presets.hpp"

namespace perfbench {
namespace {

using namespace automdt;

// Eight PPO batches of the shipped episodes_per_batch: long enough that a
// short stall of the host moves a call's time by a few percent only.
constexpr int kSessionEpisodes = 32;
constexpr int kMinSessions = 10;
constexpr int kLayerSamples = 5000;
// One rollout record: observation, 3-d action, reward and log-prob.
constexpr double kExperienceBytesPerStep = (kObservationSize + 5) * 8.0;

core::PipelineConfig pipeline(std::uint64_t seed,
                              const testbed::ScenarioPreset& preset) {
  core::PipelineConfig cfg;
  cfg.seed = seed;
  cfg.ppo.seed = seed;
  // Serial lanes: training results are identical for any lane count, but
  // on a shared 4-thread host the 4-lane pool's wall time swung 2.5x
  // between identical runs while the serial loop held within 3%.
  cfg.ppo.num_threads = 1;
  // A fixed budget (no early stop): every session does the same work.
  cfg.ppo.max_episodes = kSessionEpisodes;
  cfg.ppo.stagnation_episodes = kSessionEpisodes;
  cfg.max_threads = preset.config.max_threads;
  cfg.buffers = {preset.config.sender_buffer_bytes,
                 preset.config.receiver_buffer_bytes};
  return cfg;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

void run_train(const Options& options, Report& report) {
  const testbed::ScenarioPreset preset = testbed::bottleneck_read();
  Rng seeds(options.seed);
  Spans untraced_spans(nullptr);
  Spans traced_spans(options.exporter);
  const int track = traced_spans.track("train");
  core::OfflineTrainingReport last;
  std::shared_ptr<rl::PpoAgent> agent;
  // Serial training runs on one thread, and on a shared VM one vCPU can run
  // a third slower than another for a whole run. Calls take the CPUs in
  // turn, so every run samples each of them.
  const std::vector<int> cpus = allowed_cpus();
  std::size_t calls = 0;

  // One session plus its gate; false once the gate failed.
  const auto session = [&](bool traced) {
    if (!cpus.empty()) pin_thread(cpus[calls++ % cpus.size()]);
    core::PipelineConfig cfg = pipeline(seeds.next_u64(), preset);
    Spans& spans = traced ? traced_spans : untraced_spans;
    telemetry::MetricsRegistry registry;
    if (traced) {
      cfg.trace_exporter = options.exporter;
      cfg.telemetry_registry = &registry;
    }
    testbed::EmulatedEnvironment env(preset.config,
                                     testbed::Dataset::infinite());
    core::OfflineTrainingReport trained;
    const double cpu0 = process_cpu_s();
    const Spans::Span span = spans.open(track, "core.train_offline");
    const core::AutoMdt mdt = core::AutoMdt::train_offline(env, cfg, &trained);
    const double wall_s = static_cast<double>(spans.close(span)) * 1e-9;
    const double cpu_s = process_cpu_s() - cpu0;
    // The trained agent and its scenario are still live here.
    const double rss_mib = resident_mib();

    const rl::TrainResult& training = trained.training;
    report.attempted += 1;
    const bool finite = std::all_of(training.episode_rewards.begin(),
                                    training.episode_rewards.end(),
                                    [](double r) { return std::isfinite(r); });
    if (training.episodes_run != kSessionEpisodes || !finite) {
      report.failed += 1;
      report.gate(false,
                  "training stopped early or produced a non-finite reward");
      return false;
    }
    const double steps = static_cast<double>(training.episodes_run) *
                         cfg.ppo.steps_per_episode;
    const double experience_mib = steps * kExperienceBytesPerStep / kMiB;
    const std::string phase = traced ? "traced." : "";
    report.sample(phase + "setup_s", wall_s - training.wall_time_s);
    report.sample(phase + "session_ms", wall_s * 1e3);
    report.sample(phase + "goodput_mib_s",
                  experience_mib / training.wall_time_s);
    report.sample(phase + "cpu_ms_per_mib", cpu_s * 1e3 / experience_mib);
    report.sample(phase + "rss_mib", rss_mib);
    report.sample(traced ? "rl.traced_steps_per_s" : "rl.untraced_steps_per_s",
                  steps / training.wall_time_s);
    if (!report.values.count("rl.converge_episode")) {
      // The run's first session: repeats exactly for a seed.
      report.values["rl.converge_episode"] = training.convergence_episode;
      report.values["rl.best_reward"] = training.best_reward;
    }
    if (traced) {
      const std::uint64_t snap0 = telemetry::now_ns();
      registry.snapshot();
      report.sample("snapshot_us",
                    static_cast<double>(telemetry::now_ns() - snap0) * 1e-3);
    }
    agent = mdt.agent();
    last = std::move(trained);
    return true;
  };

  // Untraced sessions for the run's time (half of it when traced), then
  // traced sessions for the other half.
  const auto calls_for = [&](double seconds, bool traced) {
    const auto t0 = Clock::now();
    for (int n = 0;
         n < kMinSessions || seconds_between(t0, Clock::now()) < seconds; ++n)
      if (!session(traced)) return false;
    return true;
  };
  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  if (!calls_for(untraced_s, false) || !options.trace) return;
  if (!calls_for(options.seconds / 2, true)) return;

  // sim.step on a seeded action sequence, rl.act on the observations those
  // steps produced.
  sim::SimulatorEnv sim_env(last.scenario, core::PipelineConfig{}.sim_options);
  Rng rng(options.seed ^ 0x5eedULL);
  std::vector<std::vector<double>> observations;
  observations.reserve(kLayerSamples);
  sim_env.reset(rng);
  const int n_max = last.scenario.max_threads;
  for (int i = 0; i < kLayerSamples; ++i) {
    const ConcurrencyTuple action{rng.uniform_int(1, n_max),
                                  rng.uniform_int(1, n_max),
                                  rng.uniform_int(1, n_max)};
    const std::uint64_t t0 = telemetry::now_ns();
    EnvStep out = sim_env.step(action);
    report.sample("sim.step_us",
                  static_cast<double>(telemetry::now_ns() - t0) * 1e-3);
    observations.push_back(std::move(out.observation));
  }
  for (const auto& obs : observations) {
    const std::uint64_t t0 = telemetry::now_ns();
    const ConcurrencyTuple action = agent->act(obs, rng);
    report.sample("rl.act_us",
                  static_cast<double>(telemetry::now_ns() - t0) * 1e-3);
    (void)action;
  }
}

}  // namespace perfbench
