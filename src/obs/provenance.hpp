// obs::ProvenanceLedger — migration decision provenance (obs storey five).
//
// The rest of the observability stack answers "what happened": spans time
// the five phases, metrics count pages, the time-series store trends both.
// This storey answers "why": every policy decision is recorded with the
// evidence it was made on (heat, rank against the policy's own ordering,
// the admission threshold it cleared, queue bias) plus the predicted
// benefit, and the migrator later links the record to its outcome —
// completed, shadow-remapped, partially-moved chunk, or aborted with a
// shared MigAbortReason — including shootdown IPIs, latency cycles and the
// page's final residency. Alongside decisions, the ledger keeps a second
// column set of per-page tier *transitions* (alloc and every migration),
// from which lifecycle timelines, churn tables, thrash rankings and
// residency heatmaps are reconstructed (obs/pagescope.hpp, the
// vulcan_pagescope CLI).
//
// Storage is a columnar ring: parallel vectors per field, oldest rows
// dropped in blocks once capacity is hit. Ids are monotone and 1-based, so
// a MigrationRequest can carry "no provenance" as 0 and late outcome links
// for already-evicted rows are ignored. Everything is deterministic in the
// run: exports are byte-identical across --jobs counts.
//
// The ledger is OFF by default (SystemBuilder.provenance) — recording
// nothing, costing one branch per call site — so pinned fuzz digests and
// default artefacts stay byte-identical.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <vector>

#include "obs/exporter.hpp"
#include "obs/trace.hpp"

namespace vulcan::obs {

/// Lifecycle state of one recorded decision.
enum class DecisionStatus : std::uint8_t {
  kPending = 0,     ///< recorded, outcome not linked yet
  kCompleted,       ///< five-phase migration finished
  kShadowRemap,     ///< completed via the shadow-copy remap path
  kPartialChunk,    ///< chunk move ran out of frames after moving some pages
  kAborted,         ///< dropped; abort_reason says why
  kUnexecuted,      ///< still queued when the run ended (finalize())
  kVetoed,          ///< admission control rejected it; abort_reason says why
};

inline constexpr const char* decision_status_name(DecisionStatus s) {
  switch (s) {
    case DecisionStatus::kPending: return "pending";
    case DecisionStatus::kCompleted: return "completed";
    case DecisionStatus::kShadowRemap: return "shadow_remap";
    case DecisionStatus::kPartialChunk: return "partial_chunk";
    case DecisionStatus::kAborted: return "aborted";
    case DecisionStatus::kUnexecuted: return "unexecuted";
    case DecisionStatus::kVetoed: return "vetoed";
  }
  return "?";
}

/// The evidence a policy decided on. `rank` is the page's position in the
/// policy's own issue order that epoch (0 = first picked), `threshold` the
/// admission value the page was measured against (promote-min-heat, the
/// Memtis global cut, a cascade tier boundary, ...), `queue_bias` the
/// scheduling bias applied at enqueue (-1 urgent front-of-queue, 0 normal,
/// >=0 MLFQ level under Vulcan's biased queues). `predicted_benefit` is
/// the margin over the threshold, signed towards the move's direction.
struct DecisionFeatures {
  double heat = 0.0;
  std::uint64_t rank = 0;
  double threshold = 0.0;
  double queue_bias = 0.0;
  double predicted_benefit = 0.0;
};

/// What actually happened to a decision (linked by the migrator).
struct DecisionOutcome {
  DecisionStatus status = DecisionStatus::kPending;
  MigAbortReason abort_reason = MigAbortReason::kNone;
  std::uint64_t pages = 0;            ///< pages that actually moved
  std::uint64_t shootdown_ipis = 0;   ///< IPIs flushed executing it
  std::uint64_t latency_cycles = 0;   ///< stall + daemon cycles charged
  std::int32_t final_tier = -1;       ///< page's tier afterwards; -1 unknown
};

/// One fully-joined decision row (decision + linked outcome), as exported.
struct DecisionRow {
  std::uint64_t id = 0;       ///< 1-based, monotone
  std::uint64_t epoch = 0;    ///< epoch the decision was made in
  std::int32_t app = -1;
  std::uint64_t page = 0;     ///< 0-based page offset in the app's space
  std::int32_t from_tier = -1;
  std::int32_t to_tier = 0;
  bool sync = false;
  bool whole_chunk = false;
  DecisionFeatures features;
  DecisionStatus status = DecisionStatus::kPending;
  MigAbortReason abort_reason = MigAbortReason::kNone;
  std::uint64_t outcome_epoch = 0;
  std::uint64_t pages_moved = 0;
  std::uint64_t shootdown_ipis = 0;
  std::uint64_t latency_cycles = 0;
  std::int32_t final_tier = -1;
};

/// One per-page residency change. `from_tier` -1 means the page was just
/// allocated (demand fault or prefault); `cause` is the decision id that
/// moved it, 0 for faults.
struct TransitionRow {
  std::uint64_t seq = 0;      ///< 1-based, monotone
  std::uint64_t epoch = 0;
  std::int32_t app = -1;
  std::uint64_t page = 0;
  std::int32_t from_tier = -1;
  std::int32_t to_tier = 0;
  std::uint64_t cause = 0;
};

struct ProvenanceConfig {
  bool enabled = false;
  std::size_t decision_capacity = 1 << 18;
  std::size_t transition_capacity = 1 << 20;
};

class ProvenanceLedger {
 public:
  ProvenanceLedger() = default;
  explicit ProvenanceLedger(const ProvenanceConfig& cfg) : cfg_(cfg) {}

  bool enabled() const { return cfg_.enabled; }

  /// Called at every epoch boundary; stamps subsequent records.
  void begin_epoch(std::uint64_t epoch) { epoch_ = epoch; }
  std::uint64_t epoch() const { return epoch_; }

  /// Record one policy decision; returns its id (0 when disabled — the
  /// "no provenance" sentinel a MigrationRequest carries by default).
  std::uint64_t record_decision(std::int32_t app, std::uint64_t page,
                                std::int32_t from_tier, std::int32_t to_tier,
                                bool sync, bool whole_chunk,
                                const DecisionFeatures& features);

  /// Link a decision to its outcome. Unknown / already-evicted ids are
  /// ignored (the ring may have dropped the row).
  void link_outcome(std::uint64_t id, const DecisionOutcome& outcome);

  /// Record a residency change (alloc when from_tier is -1, release when
  /// to_tier is -1). Also updates the live per-app residency view the
  /// check:: cross-audit walks: a release erases the page from it.
  void record_transition(std::int32_t app, std::uint64_t page,
                         std::int32_t from_tier, std::int32_t to_tier,
                         std::uint64_t cause);

  /// Has an alloc/transition ever been recorded for this page?
  bool known(std::int32_t app, std::uint64_t page) const;

  /// The page's tier per the ledger, or nullopt if never recorded.
  std::optional<std::int32_t> last_tier(std::int32_t app,
                                        std::uint64_t page) const;

  /// Mark every still-pending decision kUnexecuted (its request was still
  /// queued when the run ended). Call once after the last epoch so "every
  /// DecisionRecord has a linked outcome" holds on export.
  void finalize();

  // -- introspection ------------------------------------------------------
  std::size_t decisions() const { return d_.id.size(); }
  std::size_t transitions() const { return t_.seq.size(); }
  std::uint64_t total_decisions() const { return next_id_ - 1; }
  std::uint64_t total_transitions() const { return next_seq_ - 1; }
  std::uint64_t dropped_decisions() const { return d_.id.empty() ? total_decisions() : d_.id.front() - 1; }
  std::size_t pending() const { return pending_; }

  /// i-th retained row, oldest first.
  DecisionRow decision(std::size_t i) const;
  TransitionRow transition(std::size_t i) const;

  std::size_t resident_pages(std::int32_t app) const;

  /// Visit (page, tier) for one app's ledger-tracked residency, in page
  /// order (deterministic — the audit's violation order depends on it).
  template <typename Fn>
  void for_each_residency(std::int32_t app, Fn&& fn) const {
    if (app < 0 || static_cast<std::size_t>(app) >= residency_.size()) return;
    for (const auto& [page, tier] : residency_[app]) fn(page, tier);
  }

  // -- export / import ----------------------------------------------------
  /// Retained decision rows through any Exporter backend, oldest first.
  void write_decisions(Exporter& exporter) const;
  /// Retained transition rows through any Exporter backend, oldest first.
  void write_transitions(Exporter& exporter) const;
  void write_decisions_jsonl(std::ostream& out) const;
  void write_transitions_jsonl(std::ostream& out) const;
  /// The newest `max_rows` retained decision rows as JSONL (the flight
  /// recorder's ledger tail).
  void write_decisions_tail_jsonl(std::ostream& out,
                                  std::size_t max_rows) const;

  /// Parse rows previously written by the JSONL writers (round-trip).
  /// Unparseable lines are skipped, like TraceRing::read_jsonl.
  static std::vector<DecisionRow> read_decisions_jsonl(std::istream& in);
  static std::vector<TransitionRow> read_transitions_jsonl(std::istream& in);

 private:
  void drop_oldest_decisions();
  void drop_oldest_transitions();
  void write_decision_rows(Exporter& exporter, std::size_t from) const;

  ProvenanceConfig cfg_;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::size_t pending_ = 0;

  /// Columnar decision store; parallel vectors, d_.id.front() gives the id
  /// of the oldest retained row so id -> index is a subtraction.
  struct DecisionColumns {
    std::vector<std::uint64_t> id, epoch, page, rank;
    std::vector<std::int32_t> app, from, to, final_tier;
    std::vector<std::uint8_t> flags;  // 1 = sync, 2 = whole_chunk
    std::vector<double> heat, threshold, queue_bias, benefit;
    std::vector<std::uint8_t> status, reason;
    std::vector<std::uint64_t> out_epoch, pages_moved, ipis, latency;
  } d_;

  struct TransitionColumns {
    std::vector<std::uint64_t> seq, epoch, page, cause;
    std::vector<std::int32_t> app, from, to;
  } t_;

  /// Live per-app page -> tier view (ordered so audits iterate
  /// deterministically). Survives ring eviction: it tracks current state,
  /// not history.
  std::vector<std::map<std::uint64_t, std::int32_t>> residency_;
};

}  // namespace vulcan::obs
