#include "runtime/system.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "prof/hint_fault.hpp"

namespace vulcan::runtime {

std::string TieredSystem::validate(const Config& c) {
  if (c.machine.cores == 0) return "machine.cores must be > 0";
  if (c.epoch == 0) return "epoch length must be > 0 cycles";
  if (c.samples_per_epoch == 0) return "samples_per_epoch must be > 0";
  if (c.cores_per_workload == 0) return "cores_per_workload must be > 0";
  if (!(c.heat_decay > 0.0) || c.heat_decay > 1.0) {
    return "heat_decay must be in (0, 1]";
  }
  if (c.timeseries.window == 0) return "timeseries.window must be > 0 cycles";
  if (c.timeseries.retention == 0) {
    return "timeseries.retention must be > 0 windows";
  }
  if (!(c.timeseries.ewma_alpha > 0.0) || c.timeseries.ewma_alpha > 1.0) {
    return "timeseries.ewma_alpha must be in (0, 1]";
  }
  if (c.flight_epochs == 0) return "flight_epochs must be > 0";
  for (const obs::SloSpec& rule : c.slo_rules) {
    if (rule.name.empty()) return "SLO rules must be named";
    if (!(rule.sustain_s > 0.0)) {
      return "SLO rule \"" + rule.name + "\" must sustain for > 0 s";
    }
  }
  if (c.custom_tiers) {
    const auto& tiers = *c.custom_tiers;
    if (tiers.empty()) return "custom tier list must not be empty";
    if (tiers.size() > mem::kMaxTiers) {
      return "custom tier list has " + std::to_string(tiers.size()) +
             " tiers; at most " + std::to_string(mem::kMaxTiers) +
             " are supported";
    }
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      if (tiers[t].capacity_pages == 0) {
        return "tier \"" + tiers[t].name + "\" has zero capacity";
      }
      if (t > 0 &&
          tiers[t].unloaded_latency_ns < tiers[0].unloaded_latency_ns) {
        return "tier 0 must be the fastest tier: \"" + tiers[t].name +
               "\" has lower unloaded latency than \"" + tiers[0].name +
               "\"";
      }
    }
  }
  return {};
}

namespace {

// Validates in the member-initializer list without moving `config`: the
// members after config_ are still built from the constructor's parameter.
const TieredSystem::Config& checked(const TieredSystem::Config& config) {
  if (std::string error = TieredSystem::validate(config); !error.empty()) {
    throw std::invalid_argument(error);
  }
  return config;
}

}  // namespace

TieredSystem::TieredSystem(Config config,
                           std::unique_ptr<policy::SystemPolicy> policy)
    : config_(checked(config)),
      trace_(config.trace_capacity),
      provenance_(config.provenance),
      policy_(std::move(policy)),
      topo_(std::make_unique<mem::Topology>(
          config.custom_tiers.has_value()
              ? mem::Topology(*config.custom_tiers,
                              config.machine.slow_bw_gbps)
              : mem::Topology::paper_testbed(config.machine))),
      cost_(config.cost_params),
      rng_(config.seed) {
  if (config_.record_spans) {
    spans_ = obs::SpanRecorder(&trace_, &now_);
    app_stats_ = obs::AppStats(&registry_);
    spans_.set_sink(&app_stats_);
  }
  obs::SpanRecorder* spans = config_.record_spans ? &spans_ : nullptr;
  const obs::Scope root(&registry_, &trace_, &now_, "", -1, spans);
  vm::Mmu::Config mmu_cfg;
  mmu_cfg.cores = config_.machine.cores;
  mmu_cfg.pwc_enabled = config_.pwc;
  mmu_ = std::make_unique<vm::Mmu>(mmu_cfg);
  mmu_->set_obs(root.sub("vm.tlb"));
  shootdowns_ = std::make_unique<vm::ShootdownController>(cost_, *mmu_);
  shootdowns_->set_obs(root.sub("vm.shootdown"));
  policy_->set_obs(root.sub("policy"));
  if (config_.admission.enabled) {
    // One controller shared by every workload's migrator, so the veto
    // ledger and adm.* counters aggregate fleet-wide. Constructed only
    // when enabled: an admission-off run registers no adm.* keys and its
    // snapshot stays byte-identical to an admission-free build.
    admission_.emplace(config_.admission, config_.cost_params);
    admission_->set_obs(root.sub("adm"), std::string(policy_->name()));
  }
  tier_utilization_.assign(topo_->tier_count(), 0.0);
  // Telemetry storey (obs/timeseries, obs/slo, obs/flightrec): the store
  // reads the registry at epoch boundaries, the monitor is opt-in via
  // slo_rules (its counters enter the snapshot), and the flight recorder
  // watches everything through non-owning pointers to the members above.
  obs::TimeSeriesConfig ts_cfg = config_.timeseries;
  ts_cfg.enabled = ts_cfg.enabled && config_.telemetry;
  timeseries_ = obs::TimeSeriesStore(ts_cfg);
  if (config_.telemetry && !config_.slo_rules.empty()) {
    slo_.emplace(config_.slo_rules, config_.epoch);
  }
  if (config_.telemetry) {
    obs::FlightConfig flight_cfg;
    flight_cfg.epochs = config_.flight_epochs;
    flight_cfg.epoch = config_.epoch;
    flight_cfg.dump_path = config_.flight_dump_path;
    flight_ = obs::FlightRecorder(flight_cfg, &registry_, &trace_,
                                  &timeseries_, slo_ ? &*slo_ : nullptr,
                                  &last_audit_,
                                  provenance_.enabled() ? &provenance_
                                                        : nullptr);
  }
  // Half the inter-tier link bandwidth (capacity-scaled) over one epoch:
  // kernels throttle migration so demand traffic is never fully starved,
  // and migration bytes feed back into the loaded-latency model.
  const double epoch_s = sim::CpuClock::to_seconds(config_.epoch);
  const double bytes = 0.5 * config_.machine.slow_bw_gbps * 1e9 /
                       static_cast<double>(sim::kCapacityScale) * epoch_s;
  migration_budget_ = std::max<std::uint64_t>(
      16, static_cast<std::uint64_t>(bytes / sim::kPageSize));
}

TieredSystem::~TieredSystem() = default;

std::unique_ptr<prof::Profiler> TieredSystem::make_profiler(
    prof::HeatTracker& tracker, ProfilerKind kind) {
  // The simulated access stream is itself a sample of the real stream, so
  // sampling periods are kept low relative to hardware-PEBS settings.
  switch (kind) {
    case ProfilerKind::kPebs:
      return std::make_unique<prof::PebsProfiler>(tracker, /*period=*/8);
    case ProfilerKind::kPtScan:
      return std::make_unique<prof::PtScanProfiler>(tracker);
    case ProfilerKind::kHintFault:
      return std::make_unique<prof::HintFaultProfiler>(tracker, cost_,
                                                       /*poison=*/0.10);
    case ProfilerKind::kTelescope:
      return std::make_unique<prof::TelescopeProfiler>(tracker);
    case ProfilerKind::kChrono:
      return std::make_unique<prof::ChronoProfiler>(tracker);
    case ProfilerKind::kHybrid:
      break;
  }
  return std::make_unique<prof::HybridProfiler>(tracker, cost_,
                                                /*pebs_period=*/4,
                                                /*poison_fraction=*/0.05);
}

unsigned TieredSystem::add_workload(std::unique_ptr<wl::Workload> workload,
                                    std::optional<ProfilerKind> profiler) {
  const auto index = static_cast<unsigned>(workloads_.size());
  auto mw = std::make_unique<ManagedWorkload>();
  mw->workload = std::move(workload);
  const auto& spec = mw->workload->spec();

  vm::AddressSpace::Config as_cfg;
  as_cfg.pid = index + 1;
  as_cfg.rss_pages = spec.rss_pages;
  as_cfg.thp = config_.thp;
  // Per-thread replication follows the policy's mechanism choice.
  as_cfg.replicate_tables =
      policy_->migrator_config().mechanism.targeted_shootdown;
  mw->as = std::make_unique<vm::AddressSpace>(as_cfg, *topo_);
  for (unsigned t = 0; t < spec.threads; ++t) mw->as->add_thread();

  mw->tracker =
      std::make_unique<prof::HeatTracker>(spec.rss_pages, config_.heat_decay);
  mw->profiler =
      make_profiler(*mw->tracker, profiler.value_or(config_.profiler));

  // Dedicated cores, assigned round-robin over the socket.
  for (unsigned c = 0; c < config_.cores_per_workload; ++c) {
    mw->cores.push_back(
        static_cast<vm::CoreId>((next_core_ + c) % config_.machine.cores));
  }
  next_core_ = (next_core_ + config_.cores_per_workload) %
               config_.machine.cores;

  mig::Migrator::Config mig_cfg = policy_->migrator_config();
  mig_cfg.process_cores = mw->cores;
  mig_cfg.daemon_core = mw->cores.back();
  mw->migrator = std::make_unique<mig::Migrator>(*mw->as, *topo_,
                                                 *shootdowns_, cost_, mig_cfg);
  mw->migrator->set_obs(obs::Scope(
      &registry_, &trace_, &now_, "mig", static_cast<std::int32_t>(index),
      config_.record_spans ? &spans_ : nullptr));
  mw->migrator->set_provenance(&provenance_, static_cast<std::int32_t>(index));
  mw->migrator->set_admission(admission_ ? &*admission_ : nullptr);
  mw->migration_thread = std::make_unique<mig::MigrationThread>(*mw->migrator);

  policy::WorkloadView view;
  view.index = index;
  view.workload = workloads_.emplace_back(std::move(mw))->workload.get();
  auto& stored = *workloads_.back();
  view.as = stored.as.get();
  view.tracker = stored.tracker.get();
  view.migration = stored.migration_thread.get();
  view.ledger = provenance_.enabled() ? &provenance_ : nullptr;
  views_.push_back(view);
  return index;
}

void TieredSystem::remove_workload(unsigned w) {
  ManagedWorkload& mw = *workloads_[w];
  if (mw.departed) return;
  // Teardown order matters: queued plans first (they reference pages about
  // to vanish), then shadow frames (allocator-owned but unmapped), then the
  // ledger's residency view (while the pages are still mapped), then the
  // mappings themselves, and finally every cached translation for the pid.
  mw.migration_thread->clear_backlog();
  const std::uint64_t shadows_freed = mw.migrator->shadows().size();
  mw.migrator->shadows().clear();
  if (provenance_.enabled()) {
    const auto app = static_cast<std::int32_t>(w);
    // Collect first: recording a release erases the ledger's entry, so
    // transitions cannot be recorded mid-visit.
    std::vector<std::pair<std::uint64_t, std::int32_t>> resident;
    provenance_.for_each_residency(
        app, [&](std::uint64_t page, std::int32_t tier) {
          resident.emplace_back(page, tier);
        });
    for (const auto& [page, tier] : resident) {
      provenance_.record_transition(app, page, tier, /*to_tier=*/-1,
                                    /*cause=*/0);
    }
  }
  const std::uint64_t released = mw.as->release_all();
  mmu_->invalidate_process(mw.as->pid());
  policy_->on_workload_departed(w);
  mw.departed = true;
  const obs::Scope root(&registry_, &trace_, &now_, "runtime", -1,
                        config_.record_spans ? &spans_ : nullptr);
  root.for_workload(static_cast<std::int32_t>(w))
      .event(obs::EventKind::kWorkloadDeparted, released, shadows_freed);
  root.counter("workloads_departed").inc();
}

std::size_t TieredSystem::live_workload_count() const {
  std::size_t live = 0;
  for (const auto& mw : workloads_) {
    if (!mw->departed) ++live;
  }
  return live;
}

void TieredSystem::simulate_accesses(ManagedWorkload& mw,
                                     double epoch_seconds,
                                     std::uint64_t sample_quota) {
  wl::Workload& w = *mw.workload;
  const auto& spec = w.spec();
  const double rate =
      w.total_access_rate() * w.rate_multiplier(now_seconds());
  const double real_accesses = rate * epoch_seconds;
  const std::uint64_t samples = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(sample_quota,
                                 static_cast<std::uint64_t>(real_accesses)));
  const double weight = real_accesses / static_cast<double>(samples);

  const policy::WorkloadView view_for_placement = views_[mw.as->pid() - 1];
  vm::AddressSpace& as = *mw.as;
  const vm::Vpn base = as.base_vpn();
  const bool shadowing = mw.migrator->config().shadowing;

  // Loaded latencies from last epoch's utilisation (one-epoch lag).
  std::array<double, mem::kMaxTiers> tier_latency{};
  for (std::size_t t = 0; t < topo_->tier_count(); ++t) {
    tier_latency[t] = static_cast<double>(
        topo_->latency_model(static_cast<mem::TierId>(t))
            .loaded_latency_ns(tier_utilization_[t]));
  }

  // Batched pipeline through the vm::Mmu facade. Three phases per batch:
  //
  //   (a) generate   — drain the workload's access stream (workload RNG
  //                    only) into the reused batch buffer;
  //   (b) translate  — TLB lookup, PWC-accelerated walk, demand faults and
  //                    A/D recording, in stream order. The write hook runs
  //                    inline so shadow invalidation (which returns frames
  //                    to the allocator) interleaves exactly as in the
  //                    single-event pipeline;
  //   (c) account    — latency/tier accounting plus profiler observation,
  //                    the sole consumer of the system RNG.
  //
  // No phase reads state another phase of a *different* sample writes, so
  // the batch size is behavior-neutral (the fuzz oracle varies it).
  const double walk_ns = sim::CpuClock::to_nanos(cost_.tlb_miss_walk());
  const std::uint64_t batch_max =
      std::max<std::uint64_t>(1, config_.translate_batch);
  const vm::Mmu::PlacementFn place = [&](vm::Vpn) {
    return policy_->placement_tier(view_for_placement, *topo_);
  };
  vm::Mmu::AccessHook write_hook;
  if (shadowing) {
    write_hook = [&](const vm::Mmu::Access& a, const vm::Mmu::Translation&) {
      if (a.is_write) mw.migrator->on_write(a.vpn);
    };
  }

  // Round-robin thread cursor, carried across batches (== (done+i) %
  // threads without a per-sample modulo).
  unsigned thread_cursor = 0;
  for (std::uint64_t done = 0; done < samples;) {
    const std::uint64_t n = std::min(batch_max, samples - done);
    access_batch_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      const unsigned thread = thread_cursor;
      if (++thread_cursor == spec.threads) thread_cursor = 0;
      const wl::WorkloadAccess acc = w.next_access(thread);
      access_batch_.push_back(
          {.vpn = base + acc.page,
           .core = mw.cores[thread % mw.cores.size()],
           .thread = static_cast<vm::ThreadId>(thread),
           .is_write = acc.is_write});
    }

    mmu_->translate_batch(as, access_batch_, place, translation_batch_,
                          write_hook);

    for (std::uint64_t i = 0; i < n; ++i) {
      const vm::Mmu::Access& a = access_batch_[i];
      const vm::Mmu::Translation& t = translation_batch_[i];
      double extra_ns = 0.0;
      if (!t.tlb_hit) {
        extra_ns = walk_ns;
        // One demand fault per page, regardless of the sample's weight.
        // (A fault on the TLB-hit path — defensive, "cannot happen" — is
        // deliberately uncharged, matching the pre-facade engine.)
        if (t.faulted) {
          mw.epoch_inline_overhead += cost_.minor_fault();
          if (provenance_.enabled()) record_fault_alloc(as, a.vpn);
        }
      }

      const mem::TierId tier = mem::tier_of(t.pte.pfn());
      const double lat_ns = tier_latency[tier] + extra_ns;
      if (tier == mem::kFastTier) {
        mw.epoch_fast += weight;
      } else {
        mw.epoch_slow += weight;
      }
      mw.epoch_latency_weighted += lat_ns * weight;

      // Profiler-imposed costs (hint faults) fire once per physical event,
      // not once per represented access: charge unweighted.
      mw.epoch_inline_overhead += mw.profiler->observe(
          {.page = a.vpn - base,
           .thread = static_cast<unsigned>(a.thread),
           .is_write = a.is_write},
          weight, rng_);
    }
    done += n;
  }
}

void TieredSystem::run_one_epoch() {
  const double epoch_seconds = sim::CpuClock::to_seconds(config_.epoch);
  const obs::Scope root(&registry_, &trace_, &now_, "runtime", -1,
                        config_.record_spans ? &spans_ : nullptr);
  root.event(obs::EventKind::kEpochStart, epoch_index_, workloads_.size());
  provenance_.begin_epoch(epoch_index_);
  obs::ScopedSpan epoch_span =
      root.span(obs::SpanKind::kEpoch, static_cast<double>(epoch_index_));

  // (1) Access generation + accounting. Sample quotas are proportional to
  // each workload's access rate (the fastest workload gets the configured
  // budget), so sample *weights* — and therefore heat magnitudes and the
  // number of distinct pages observed per epoch — are comparable across
  // workloads, exactly as raw hardware events would be.
  double max_rate = 0.0;
  for (auto& mw : workloads_) {
    if (mw->departed) continue;
    max_rate = std::max(max_rate, mw->workload->total_access_rate() *
                                      mw->workload->rate_multiplier(
                                          now_seconds()));
  }
  for (auto& mw : workloads_) {
    // Scratch resets unconditionally so step 6 reads zeros for departed
    // slots instead of their final live epoch.
    mw->epoch_fast = mw->epoch_slow = 0.0;
    mw->epoch_latency_weighted = 0.0;
    mw->epoch_inline_overhead = 0;
    mw->epoch_migration = {};
    if (mw->departed) continue;
    mw->workload->on_epoch(now_seconds());
    const double rate = mw->workload->total_access_rate() *
                        mw->workload->rate_multiplier(now_seconds());
    const auto quota = static_cast<std::uint64_t>(
        static_cast<double>(config_.samples_per_epoch) *
        (max_rate > 0 ? rate / max_rate : 1.0));
    simulate_accesses(*mw, epoch_seconds, std::max<std::uint64_t>(1, quota));
  }

  // (2) Tier utilisation for next epoch's loaded latencies: 64 B per
  // demand access, plus the previous epoch's migration traffic — every
  // migrated byte is read from one tier and written to the other, so it
  // loads both. (This epoch's migrations run in step 5; like the demand
  // side, their load shows up with a one-epoch lag.)
  for (std::size_t t = 0; t < topo_->tier_count(); ++t) {
    double bytes = last_migration_bytes_;
    for (const auto& mw : workloads_) {
      const double accesses =
          t == mem::kFastTier ? mw->epoch_fast : mw->epoch_slow;
      bytes += accesses * 64.0;
    }
    // Capacity scaling shrinks footprints, not rates; bandwidth is
    // unscaled, so utilisation uses real byte rates.
    tier_utilization_[t] =
        topo_->latency_model(static_cast<mem::TierId>(t))
            .utilization(bytes, epoch_seconds * 1e9);
    // Publish so contention-aware policies (Colloid gating) can read it.
    topo_->set_utilization(static_cast<mem::TierId>(t),
                           tier_utilization_[t]);
  }

  // (3) Profiler epoch work (scans, re-poisoning).
  for (auto& mw : workloads_) {
    if (mw->departed) continue;
    mw->epoch_migration.daemon_cycles += mw->profiler->on_epoch(*mw->as);
  }

  // (4) Policy planning over fresh views (pointers were fixed at
  // add_workload; only the epoch census changes). The policy sees only the
  // live subset — a departed slot never reaches plan_epoch again — and the
  // planned quotas are copied back by index afterwards.
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    views_[i].epoch_fast_accesses = workloads_[i]->epoch_fast;
    views_[i].epoch_slow_accesses = workloads_[i]->epoch_slow;
  }
  active_views_.clear();
  for (std::size_t i = 0; i < views_.size(); ++i) {
    if (!workloads_[i]->departed) active_views_.push_back(views_[i]);
  }
  {
    // The policy span wraps whichever SystemPolicy is installed; Vulcan's
    // manager nests its per-workload plan spans inside it.
    obs::ScopedSpan policy_span = root.span(obs::SpanKind::kPolicy);
    policy_->plan_epoch(active_views_, *topo_, rng_);
  }
  for (const policy::WorkloadView& v : active_views_) views_[v.index] = v;
  // Quota decisions become part of the structured trace regardless of
  // which policy produced them (baselines leave quotas unbounded).
  for (std::size_t i = 0; i < views_.size(); ++i) {
    if (workloads_[i]->departed) continue;
    root.for_workload(static_cast<std::int32_t>(i))
        .event(obs::EventKind::kPolicyQuota, views_[i].fast_quota,
               workloads_[i]->as->pages_in_tier(mem::kFastTier));
  }

  // (5) Execute migrations within the epoch's link budget, split across
  // workloads proportionally to backlog.
  std::uint64_t total_backlog = 0;
  for (const auto& mw : workloads_) {
    if (mw->departed) continue;
    total_backlog += mw->migration_thread->backlog();
  }
  if (total_backlog > 0) {
    for (auto& mw : workloads_) {
      if (mw->departed) continue;
      const std::uint64_t share = std::max<std::uint64_t>(
          1, migration_budget_ * mw->migration_thread->backlog() /
                 total_backlog);
      mw->epoch_migration += mw->migration_thread->run_epoch(share, rng_);
    }
  }
  last_migration_bytes_ = 0.0;
  for (const auto& mw : workloads_) {
    // Capacity scaling shrinks footprints, not the per-page transfer, so
    // unscale to real link traffic.
    last_migration_bytes_ +=
        static_cast<double>(mw->epoch_migration.bytes_copied) *
        static_cast<double>(sim::kCapacityScale);
  }

  // (6) Metrics: one row per workload index; the recorder keeps the rows,
  // and AppStats and the CFI fold them. A departed workload keeps its
  // (zeroed, not live) row: it contributes nothing this epoch, but its
  // pre-departure cumulative weighted allocation stays in the Eq. 4
  // population.
  EpochMetrics epoch;
  epoch.time_s = now_seconds();
  epoch.workloads.resize(workloads_.size());
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    auto& mw = *workloads_[i];
    if (mw.departed) continue;
    obs::AppEpochRow& m = epoch.workloads[i];
    const double total_accesses = mw.epoch_fast + mw.epoch_slow;
    m.accesses = total_accesses;
    m.fthr = total_accesses > 0 ? mw.epoch_fast / total_accesses : 0.0;
    m.avg_latency_ns =
        total_accesses > 0 ? mw.epoch_latency_weighted / total_accesses : 0.0;

    const wl::Workload& w = *mw.workload;
    const double ideal_cpa = w.ideal_cycles_per_access(
        static_cast<double>(config_.machine.fast_latency_ns));
    double actual_cpa = w.cycles_per_access(m.avg_latency_ns);
    if (total_accesses > 0) {
      // Migration threads and profiling daemons run on the application's
      // dedicated cores (§3.2), so their cycles steal app throughput too.
      const double overhead = static_cast<double>(
          mw.epoch_migration.stall_cycles + mw.epoch_inline_overhead +
          mw.epoch_migration.daemon_cycles);
      actual_cpa += overhead / total_accesses;
    }
    m.performance = actual_cpa > 0 ? ideal_cpa / actual_cpa : 1.0;

    m.fast_pages = mw.as->pages_in_tier(mem::kFastTier);
    // "Slow" aggregates every non-top tier (exact for two tiers, the sum
    // of the lower tiers otherwise).
    m.slow_pages = mw.as->faulted_pages() - m.fast_pages;
    m.quota = views_[i].fast_quota;
    m.stall_cycles = mw.epoch_migration.stall_cycles;
    m.daemon_cycles = mw.epoch_migration.daemon_cycles;
    m.migrated = mw.epoch_migration.migrated;
    m.failed_migrations = mw.epoch_migration.failed;
    m.shadow_remaps = mw.epoch_migration.shadow_remaps;
    m.shootdown_ipis = mw.epoch_migration.shootdown_ipis;
  }
  cfi_.record_epoch(epoch.workloads);
  if (app_stats_.active()) app_stats_.record_epoch(epoch.workloads);
  metrics_.record(std::move(epoch));

  // Registry snapshot of the system-level signals the figures explain.
  root.counter("epochs").inc();
  registry_.gauge("core.fairness.cfi").set(cfi_.cfi());
  // Fleet churn signal: how many admitted workloads are still live. The
  // fleet battery windows this alongside the tail-fairness gauges.
  registry_.gauge("runtime.live_workloads")
      .set(static_cast<double>(live_workload_count()));
  for (std::size_t t = 0; t < topo_->tier_count(); ++t) {
    registry_
        .gauge("mem.tier_utilization{tier=" + std::to_string(t) + "}")
        .set(tier_utilization_[t]);
  }
  // Satellite of the trace ring: overflow is visible in the registry too,
  // so exporters (and CI) can warn that a serialized trace lost events.
  if (trace_.dropped() > dropped_reported_) {
    registry_.counter("obs.trace.dropped_events")
        .inc(trace_.dropped() - dropped_reported_);
    dropped_reported_ = trace_.dropped();
  }
  root.event(obs::EventKind::kEpochEnd, epoch_index_, workloads_.size(),
             cfi_.cfi());
  ++epoch_index_;

  // (7) Heat decay closes the epoch.
  for (auto& mw : workloads_) {
    if (!mw->departed) mw->tracker->decay_epoch();
  }

  // (8) Epoch-boundary telemetry. The time-series hook runs at the same
  // consistency point the invariant auditor audits — every counter below
  // is final for the epoch — so interleaved readers never observe a torn
  // window (obs_timeseries_test pins store totals to registry counters).
  if (timeseries_.enabled()) timeseries_.observe(registry_, now_);
  if (slo_) {
    const obs::SloEvalResult slo_eval =
        slo_->evaluate(timeseries_, registry_, &trace_, now_);
    if (slo_eval.fired > 0 &&
        slo_eval.max_fired == obs::SloSeverity::kCritical) {
      flight_.auto_dump({.reason = "slo_critical",
                         .cause = "SLO rule fired at critical severity",
                         .epoch = epoch_index_,
                         .now = now_});
    }
  }

  // (9) Invariant audit (check/invariants.hpp): cross-validate every
  // redundant view of machine state while the epoch's clock is current.
  if (config_.audit != check::AuditLevel::kOff && config_.audit_every > 0 &&
      epoch_index_ % config_.audit_every == 0) {
    run_audit_internal(config_.audit_throw);
  }

  now_ += config_.epoch;
  // Close the epoch span at the advanced clock (or at the timeline cursor
  // if in-epoch work overran the epoch), so consecutive epoch spans tile
  // the run without overlap.
  spans_.sync();
  epoch_span.end();
}

void TieredSystem::run_epochs(unsigned count) {
  for (unsigned i = 0; i < count; ++i) {
    try {
      run_one_epoch();
    } catch (const check::AuditFailure&) {
      throw;  // the audit site already took the flight dump
    } catch (const std::exception& e) {
      flight_.auto_dump({.reason = "engine_exception",
                         .cause = e.what(),
                         .epoch = epoch_index_,
                         .now = now_});
      throw;
    }
  }
}

bool TieredSystem::dump_flight(const std::string& path,
                               const std::string& reason,
                               const std::string& cause) {
  return flight_.dump_file(path, {.reason = reason,
                                  .cause = cause,
                                  .epoch = epoch_index_,
                                  .now = now_});
}

check::SystemView TieredSystem::audit_view() const {
  check::SystemView view;
  view.topology = topo_.get();
  view.workloads.reserve(workloads_.size());
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    check::WorkloadView w;
    w.index = i;
    w.as = workloads_[i]->as.get();
    w.migrator = workloads_[i]->migrator.get();
    w.departed = workloads_[i]->departed;
    view.workloads.push_back(w);
  }
  view.tlbs = &mmu_->tlbs();
  view.mmu = mmu_.get();
  view.shootdowns = shootdowns_.get();
  view.registry = &registry_;
  view.epochs_run = epoch_index_;
  view.provenance = provenance_.enabled() ? &provenance_ : nullptr;
  return view;
}

const check::AuditReport& TieredSystem::run_audit() {
  return run_audit_internal(config_.audit_throw);
}

const check::AuditReport& TieredSystem::run_audit_internal(
    bool throw_on_failure) {
  const check::InvariantAuditor auditor(config_.audit == check::AuditLevel::kOff
                                            ? check::AuditLevel::kFull
                                            : config_.audit);
  last_audit_ = auditor.audit(audit_view());
  const obs::Scope scope(&registry_, &trace_, &now_, "check", -1,
                         config_.record_spans ? &spans_ : nullptr);
  scope.counter("audits").inc();
  if (last_audit_.ok()) {
    scope.event(obs::EventKind::kAuditPass, last_audit_.checks,
                last_audit_.violations.size());
  } else {
    scope.counter("violations").inc(last_audit_.violations.size());
    for (const check::Violation& v : last_audit_.violations) {
      scope.for_workload(v.workload)
          .event(obs::EventKind::kAuditViolation,
                 static_cast<std::uint64_t>(v.rule), v.detail, v.value);
    }
  }
  if (throw_on_failure && !last_audit_.ok()) {
    // Black-box drill: capture the flight dump before the stack unwinds,
    // while every subsystem still holds the failing state.
    flight_.auto_dump({.reason = "audit_failure",
                       .cause = last_audit_.violations.front().message,
                       .epoch = epoch_index_,
                       .now = now_});
    throw check::AuditFailure(last_audit_);
  }
  return last_audit_;
}

void TieredSystem::prefault(unsigned w, unsigned fast_stride,
                            unsigned slow_stride) {
  auto& mw = *workloads_[w];
  vm::AddressSpace& as = *mw.as;
  const unsigned period = std::max(1u, fast_stride + slow_stride);
  for (std::uint64_t p = 0; p < as.rss_pages(); ++p) {
    const vm::Vpn vpn = as.vpn_at(p);
    if (as.mapped(vpn)) continue;
    const bool want_fast = (p % period) < fast_stride;
    const mem::TierId tier = want_fast && topo_->free_pages(mem::kFastTier) > 0
                                 ? mem::kFastTier
                                 : mem::kSlowTier;
    as.fault(vpn, static_cast<vm::ThreadId>(p % mw.workload->spec().threads),
             /*write=*/false, tier);
    if (provenance_.enabled()) record_fault_alloc(as, vpn);
  }
}

void TieredSystem::record_fault_alloc(vm::AddressSpace& as, vm::Vpn vpn) {
  const vm::Vpn base = as.base_vpn();
  const auto app = static_cast<std::int32_t>(as.pid() - 1);
  const std::uint64_t first =
      (vpn - base) & ~static_cast<std::uint64_t>(sim::kPagesPerHuge - 1);
  const std::uint64_t last =
      std::min<std::uint64_t>(first + sim::kPagesPerHuge, as.rss_pages());
  for (std::uint64_t p = first; p < last; ++p) {
    if (provenance_.known(app, p)) continue;
    const vm::Pte pte = as.tables().get(base + p);
    if (!pte.present()) continue;
    provenance_.record_transition(
        app, p, /*from_tier=*/-1,
        static_cast<std::int32_t>(mem::tier_of(pte.pfn())), /*cause=*/0);
  }
}

}  // namespace vulcan::runtime
