#include "obs/trace.hpp"

#include <array>
#include <string>
#include <string_view>

#include "obs/jsonl_scan.hpp"

namespace vulcan::obs {

namespace {

/// Per-kind JSONL field names for the generic payload slots. `v_name` is
/// null when the kind carries no floating payload.
struct KindInfo {
  EventKind kind;
  const char* name;
  const char* a_name;
  const char* b_name;
  const char* v_name;  // nullptr => omitted
};

constexpr std::array<KindInfo, 17> kKinds{{
    {EventKind::kEpochStart, "epoch_start", "epoch", "workloads", nullptr},
    {EventKind::kEpochEnd, "epoch_end", "epoch", "workloads", "cfi"},
    {EventKind::kMigPhaseBegin, "mig_phase_begin", "phase", "pages", nullptr},
    {EventKind::kMigPhaseEnd, "mig_phase_end", "phase", "cycles", nullptr},
    {EventKind::kShootdownIssue, "shootdown_issue", "targets", "pages",
     nullptr},
    {EventKind::kShootdownAck, "shootdown_ack", "targets", "cycles", nullptr},
    {EventKind::kPolicyQuota, "policy_quota", "quota", "fast_pages", nullptr},
    {EventKind::kCbfrpPromotion, "cbfrp_promotion", "granted", "demand",
     "credits"},
    {EventKind::kCbfrpRejection, "cbfrp_rejection", "granted", "demand",
     "credits"},
    {EventKind::kSpanBegin, "span_begin", "attrs", "span", "arg"},
    {EventKind::kSpanEnd, "span_end", "attrs", "span", "arg"},
    {EventKind::kAuditViolation, "audit_violation", "rule", "detail",
     "value"},
    {EventKind::kAuditPass, "audit_pass", "checks", "violations", nullptr},
    {EventKind::kSloViolation, "slo_violation", "rule", "sustained",
     "value"},
    {EventKind::kSloRecovered, "slo_recovered", "rule", "sustained",
     "value"},
    {EventKind::kMigAbort, "mig_abort", "reason", "vpn", "heat"},
    {EventKind::kWorkloadDeparted, "workload_departed", "released",
     "shadows", nullptr},
}};

const KindInfo& info_of(EventKind kind) {
  return kKinds[static_cast<std::size_t>(kind)];
}

const KindInfo* info_by_name(std::string_view name) {
  for (const auto& k : kKinds) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

}  // namespace

const char* event_kind_name(EventKind kind) { return info_of(kind).name; }

void TraceRing::write_events_jsonl(std::span<const TraceEvent> events,
                                   std::ostream& out) {
  for (const TraceEvent& e : events) {
    const KindInfo& ki = info_of(e.kind);
    out << "{\"seq\":" << e.seq << ",\"t\":" << e.time << ",\"kind\":\""
        << ki.name << "\",\"w\":" << e.workload << ",\"" << ki.a_name
        << "\":" << e.a << ",\"" << ki.b_name << "\":" << e.b;
    if (ki.v_name) out << ",\"" << ki.v_name << "\":" << e.v;
    out << "}\n";
  }
}

void TraceRing::write_jsonl(std::ostream& out) const {
  write_events_jsonl(events(), out);
}

std::vector<TraceEvent> TraceRing::read_jsonl(std::istream& in) {
  using namespace jsonl;
  std::vector<TraceEvent> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view lv(line);
    std::string_view kind_tok = raw_field(lv, "kind");
    if (kind_tok.size() < 2 || kind_tok.front() != '"') continue;
    kind_tok = kind_tok.substr(1, kind_tok.size() - 2);
    const KindInfo* ki = info_by_name(kind_tok);
    if (!ki) continue;
    TraceEvent e;
    e.kind = ki->kind;
    e.seq = parse_u64(raw_field(lv, "seq"));
    e.time = parse_u64(raw_field(lv, "t"));
    e.workload = static_cast<std::int32_t>(parse_i64(raw_field(lv, "w")));
    e.a = parse_u64(raw_field(lv, ki->a_name));
    e.b = parse_u64(raw_field(lv, ki->b_name));
    if (ki->v_name) e.v = parse_double(raw_field(lv, ki->v_name));
    out.push_back(e);
  }
  return out;
}

}  // namespace vulcan::obs
