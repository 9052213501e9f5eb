#include "obs/provenance.hpp"

#include <algorithm>
#include <string>
#include <string_view>

#include "obs/jsonl_scan.hpp"

namespace vulcan::obs {

namespace {

constexpr std::uint8_t kFlagSync = 1;
constexpr std::uint8_t kFlagChunk = 2;

DecisionStatus status_by_name(std::string_view name) {
  for (int s = 0; s <= static_cast<int>(DecisionStatus::kVetoed); ++s) {
    const auto status = static_cast<DecisionStatus>(s);
    if (name == decision_status_name(status)) return status;
  }
  return DecisionStatus::kPending;
}

MigAbortReason reason_by_name(std::string_view name) {
  for (int r = 0; r <= static_cast<int>(MigAbortReason::kVetoPressure); ++r) {
    const auto reason = static_cast<MigAbortReason>(r);
    if (name == mig_abort_reason_name(reason)) return reason;
  }
  return MigAbortReason::kNone;
}

const std::vector<std::string>& decision_columns() {
  static const std::vector<std::string> kColumns = {
      "id",     "epoch",     "app",     "page",   "from",
      "to",     "mode",      "chunk",   "heat",   "rank",
      "threshold", "queue_bias", "benefit", "status", "reason",
      "outcome_epoch", "pages", "ipis", "latency_cycles", "final"};
  return kColumns;
}

const std::vector<std::string>& transition_columns() {
  static const std::vector<std::string> kColumns = {
      "seq", "epoch", "app", "page", "from", "to", "cause"};
  return kColumns;
}

}  // namespace

std::uint64_t ProvenanceLedger::record_decision(
    std::int32_t app, std::uint64_t page, std::int32_t from_tier,
    std::int32_t to_tier, bool sync, bool whole_chunk,
    const DecisionFeatures& features) {
  if (!cfg_.enabled) return 0;
  if (d_.id.size() >= cfg_.decision_capacity) drop_oldest_decisions();
  const std::uint64_t id = next_id_++;
  d_.id.push_back(id);
  d_.epoch.push_back(epoch_);
  d_.app.push_back(app);
  d_.page.push_back(page);
  d_.from.push_back(from_tier);
  d_.to.push_back(to_tier);
  d_.flags.push_back(static_cast<std::uint8_t>((sync ? kFlagSync : 0) |
                                               (whole_chunk ? kFlagChunk : 0)));
  d_.heat.push_back(features.heat);
  d_.rank.push_back(features.rank);
  d_.threshold.push_back(features.threshold);
  d_.queue_bias.push_back(features.queue_bias);
  d_.benefit.push_back(features.predicted_benefit);
  d_.status.push_back(static_cast<std::uint8_t>(DecisionStatus::kPending));
  d_.reason.push_back(static_cast<std::uint8_t>(MigAbortReason::kNone));
  d_.out_epoch.push_back(0);
  d_.pages_moved.push_back(0);
  d_.ipis.push_back(0);
  d_.latency.push_back(0);
  d_.final_tier.push_back(-1);
  ++pending_;
  return id;
}

void ProvenanceLedger::link_outcome(std::uint64_t id,
                                    const DecisionOutcome& outcome) {
  if (!cfg_.enabled || id == 0 || d_.id.empty()) return;
  const std::uint64_t first = d_.id.front();
  if (id < first || id >= first + d_.id.size()) return;
  const std::size_t i = static_cast<std::size_t>(id - first);
  if (d_.status[i] == static_cast<std::uint8_t>(DecisionStatus::kPending) &&
      pending_ > 0) {
    --pending_;
  }
  d_.status[i] = static_cast<std::uint8_t>(outcome.status);
  d_.reason[i] = static_cast<std::uint8_t>(outcome.abort_reason);
  d_.out_epoch[i] = epoch_;
  d_.pages_moved[i] = outcome.pages;
  d_.ipis[i] = outcome.shootdown_ipis;
  d_.latency[i] = outcome.latency_cycles;
  d_.final_tier[i] = outcome.final_tier;
}

void ProvenanceLedger::record_transition(std::int32_t app, std::uint64_t page,
                                         std::int32_t from_tier,
                                         std::int32_t to_tier,
                                         std::uint64_t cause) {
  if (!cfg_.enabled) return;
  if (t_.seq.size() >= cfg_.transition_capacity) drop_oldest_transitions();
  t_.seq.push_back(next_seq_++);
  t_.epoch.push_back(epoch_);
  t_.app.push_back(app);
  t_.page.push_back(page);
  t_.from.push_back(from_tier);
  t_.to.push_back(to_tier);
  t_.cause.push_back(cause);
  if (app >= 0) {
    if (static_cast<std::size_t>(app) >= residency_.size()) {
      residency_.resize(static_cast<std::size_t>(app) + 1);
    }
    // A negative destination is a release (workload departure / unmap):
    // the page leaves the live residency view entirely, so departed apps
    // converge back to resident_pages() == 0.
    if (to_tier < 0) {
      residency_[static_cast<std::size_t>(app)].erase(page);
    } else {
      residency_[static_cast<std::size_t>(app)][page] = to_tier;
    }
  }
}

bool ProvenanceLedger::known(std::int32_t app, std::uint64_t page) const {
  return last_tier(app, page).has_value();
}

std::optional<std::int32_t> ProvenanceLedger::last_tier(
    std::int32_t app, std::uint64_t page) const {
  if (app < 0 || static_cast<std::size_t>(app) >= residency_.size()) {
    return std::nullopt;
  }
  const auto& pages = residency_[static_cast<std::size_t>(app)];
  const auto it = pages.find(page);
  if (it == pages.end()) return std::nullopt;
  return it->second;
}

void ProvenanceLedger::finalize() {
  if (!cfg_.enabled) return;
  for (std::size_t i = 0; i < d_.status.size() && pending_ > 0; ++i) {
    if (d_.status[i] != static_cast<std::uint8_t>(DecisionStatus::kPending)) {
      continue;
    }
    d_.status[i] = static_cast<std::uint8_t>(DecisionStatus::kUnexecuted);
    d_.out_epoch[i] = epoch_;
    // The request never ran, so the page sits wherever the ledger last saw
    // it — surface that as the final residency.
    const auto tier = last_tier(d_.app[i], d_.page[i]);
    d_.final_tier[i] = tier ? *tier : -1;
    --pending_;
  }
}

DecisionRow ProvenanceLedger::decision(std::size_t i) const {
  DecisionRow row;
  row.id = d_.id[i];
  row.epoch = d_.epoch[i];
  row.app = d_.app[i];
  row.page = d_.page[i];
  row.from_tier = d_.from[i];
  row.to_tier = d_.to[i];
  row.sync = (d_.flags[i] & kFlagSync) != 0;
  row.whole_chunk = (d_.flags[i] & kFlagChunk) != 0;
  row.features.heat = d_.heat[i];
  row.features.rank = d_.rank[i];
  row.features.threshold = d_.threshold[i];
  row.features.queue_bias = d_.queue_bias[i];
  row.features.predicted_benefit = d_.benefit[i];
  row.status = static_cast<DecisionStatus>(d_.status[i]);
  row.abort_reason = static_cast<MigAbortReason>(d_.reason[i]);
  row.outcome_epoch = d_.out_epoch[i];
  row.pages_moved = d_.pages_moved[i];
  row.shootdown_ipis = d_.ipis[i];
  row.latency_cycles = d_.latency[i];
  row.final_tier = d_.final_tier[i];
  return row;
}

TransitionRow ProvenanceLedger::transition(std::size_t i) const {
  TransitionRow row;
  row.seq = t_.seq[i];
  row.epoch = t_.epoch[i];
  row.app = t_.app[i];
  row.page = t_.page[i];
  row.from_tier = t_.from[i];
  row.to_tier = t_.to[i];
  row.cause = t_.cause[i];
  return row;
}

std::size_t ProvenanceLedger::resident_pages(std::int32_t app) const {
  if (app < 0 || static_cast<std::size_t>(app) >= residency_.size()) return 0;
  return residency_[static_cast<std::size_t>(app)].size();
}

void ProvenanceLedger::drop_oldest_decisions() {
  // Drop in half-capacity blocks so insertion stays amortised O(1); a
  // pending row that falls off the ring is no longer linkable, so it
  // leaves the pending count too.
  const std::size_t n = cfg_.decision_capacity / 2 + 1;
  const std::size_t count = std::min(n, d_.id.size());
  for (std::size_t i = 0; i < count; ++i) {
    if (d_.status[i] == static_cast<std::uint8_t>(DecisionStatus::kPending) &&
        pending_ > 0) {
      --pending_;
    }
  }
  const auto chop = [count](auto& column) {
    column.erase(column.begin(), column.begin() + count);
  };
  chop(d_.id); chop(d_.epoch); chop(d_.app); chop(d_.page);
  chop(d_.from); chop(d_.to); chop(d_.flags); chop(d_.heat);
  chop(d_.rank); chop(d_.threshold); chop(d_.queue_bias); chop(d_.benefit);
  chop(d_.status); chop(d_.reason); chop(d_.out_epoch); chop(d_.pages_moved);
  chop(d_.ipis); chop(d_.latency); chop(d_.final_tier);
}

void ProvenanceLedger::drop_oldest_transitions() {
  const std::size_t n = cfg_.transition_capacity / 2 + 1;
  const std::size_t count = std::min(n, t_.seq.size());
  const auto chop = [count](auto& column) {
    column.erase(column.begin(), column.begin() + count);
  };
  chop(t_.seq); chop(t_.epoch); chop(t_.app); chop(t_.page);
  chop(t_.from); chop(t_.to); chop(t_.cause);
}

void ProvenanceLedger::write_decisions(Exporter& exporter) const {
  write_decision_rows(exporter, 0);
}

void ProvenanceLedger::write_decision_rows(Exporter& exporter,
                                           std::size_t from) const {
  exporter.begin(decision_columns());
  for (std::size_t i = from; i < d_.id.size(); ++i) {
    const DecisionRow r = decision(i);
    const Value values[] = {
        Value{r.id},
        Value{r.epoch},
        Value{static_cast<std::int64_t>(r.app)},
        Value{r.page},
        Value{static_cast<std::int64_t>(r.from_tier)},
        Value{static_cast<std::int64_t>(r.to_tier)},
        Value{std::string(r.sync ? "sync" : "async")},
        Value{static_cast<std::uint64_t>(r.whole_chunk ? 1 : 0)},
        Value{r.features.heat},
        Value{r.features.rank},
        Value{r.features.threshold},
        Value{r.features.queue_bias},
        Value{r.features.predicted_benefit},
        Value{std::string(decision_status_name(r.status))},
        Value{std::string(mig_abort_reason_name(r.abort_reason))},
        Value{r.outcome_epoch},
        Value{r.pages_moved},
        Value{r.shootdown_ipis},
        Value{r.latency_cycles},
        Value{static_cast<std::int64_t>(r.final_tier)},
    };
    exporter.row(values);
  }
  exporter.end();
}

void ProvenanceLedger::write_transitions(Exporter& exporter) const {
  exporter.begin(transition_columns());
  for (std::size_t i = 0; i < t_.seq.size(); ++i) {
    const TransitionRow r = transition(i);
    const Value values[] = {
        Value{r.seq},
        Value{r.epoch},
        Value{static_cast<std::int64_t>(r.app)},
        Value{r.page},
        Value{static_cast<std::int64_t>(r.from_tier)},
        Value{static_cast<std::int64_t>(r.to_tier)},
        Value{r.cause},
    };
    exporter.row(values);
  }
  exporter.end();
}

void ProvenanceLedger::write_decisions_jsonl(std::ostream& out) const {
  JsonlExporter exporter(out);
  write_decisions(exporter);
}

void ProvenanceLedger::write_transitions_jsonl(std::ostream& out) const {
  JsonlExporter exporter(out);
  write_transitions(exporter);
}

void ProvenanceLedger::write_decisions_tail_jsonl(std::ostream& out,
                                                  std::size_t max_rows) const {
  JsonlExporter exporter(out);
  write_decision_rows(
      exporter, d_.id.size() > max_rows ? d_.id.size() - max_rows : 0);
}

std::vector<DecisionRow> ProvenanceLedger::read_decisions_jsonl(
    std::istream& in) {
  using namespace jsonl;
  std::vector<DecisionRow> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view lv(line);
    const std::string_view id_tok = raw_field(lv, "id");
    if (id_tok.empty()) continue;
    DecisionRow r;
    r.id = parse_u64(id_tok);
    if (r.id == 0) continue;
    r.epoch = parse_u64(raw_field(lv, "epoch"));
    r.app = static_cast<std::int32_t>(parse_i64(raw_field(lv, "app")));
    r.page = parse_u64(raw_field(lv, "page"));
    r.from_tier = static_cast<std::int32_t>(parse_i64(raw_field(lv, "from")));
    r.to_tier = static_cast<std::int32_t>(parse_i64(raw_field(lv, "to")));
    r.sync = unquote(raw_field(lv, "mode")) == "sync";
    r.whole_chunk = parse_u64(raw_field(lv, "chunk")) != 0;
    r.features.heat = parse_double(raw_field(lv, "heat"));
    r.features.rank = parse_u64(raw_field(lv, "rank"));
    r.features.threshold = parse_double(raw_field(lv, "threshold"));
    r.features.queue_bias = parse_double(raw_field(lv, "queue_bias"));
    r.features.predicted_benefit = parse_double(raw_field(lv, "benefit"));
    r.status = status_by_name(unquote(raw_field(lv, "status")));
    r.abort_reason = reason_by_name(unquote(raw_field(lv, "reason")));
    r.outcome_epoch = parse_u64(raw_field(lv, "outcome_epoch"));
    r.pages_moved = parse_u64(raw_field(lv, "pages"));
    r.shootdown_ipis = parse_u64(raw_field(lv, "ipis"));
    r.latency_cycles = parse_u64(raw_field(lv, "latency_cycles"));
    r.final_tier = static_cast<std::int32_t>(parse_i64(raw_field(lv, "final")));
    out.push_back(r);
  }
  return out;
}

std::vector<TransitionRow> ProvenanceLedger::read_transitions_jsonl(
    std::istream& in) {
  using namespace jsonl;
  std::vector<TransitionRow> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view lv(line);
    const std::string_view seq_tok = raw_field(lv, "seq");
    if (seq_tok.empty()) continue;
    TransitionRow r;
    r.seq = parse_u64(seq_tok);
    if (r.seq == 0) continue;
    r.epoch = parse_u64(raw_field(lv, "epoch"));
    r.app = static_cast<std::int32_t>(parse_i64(raw_field(lv, "app")));
    r.page = parse_u64(raw_field(lv, "page"));
    r.from_tier = static_cast<std::int32_t>(parse_i64(raw_field(lv, "from")));
    r.to_tier = static_cast<std::int32_t>(parse_i64(raw_field(lv, "to")));
    r.cause = parse_u64(raw_field(lv, "cause"));
    out.push_back(r);
  }
  return out;
}

}  // namespace vulcan::obs
