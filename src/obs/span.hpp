// Hierarchical timeline spans over *simulated* time — the second storey of
// vulcan::obs.
//
// A span is a begin/end pair of trace events recorded into the same bounded
// ring as the flat events, carrying an app (workload) id, a thread id and a
// tier label packed into the generic payload. Spans nest strictly: the
// epoch span contains the policy-decision span, which contains migration-op
// spans, which contain the five MigPhase spans, which contain shootdown
// spans — so a run's trace reconstructs into a forest (build_span_forest)
// and exports as a Chrome/Perfetto timeline or a folded flamegraph stack
// (obs/perfetto.hpp).
//
// Time: the epoch-driven harness advances its virtual clock only at epoch
// boundaries, so spans are stamped against a *timeline cursor* that starts
// at the virtual clock each epoch and advances by the simulated cycle cost
// of each operation as it closes. Identical-seed runs therefore produce
// byte-identical span streams.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/clock.hpp"

namespace vulcan::obs {

/// What a span measures. Values are stable serialisation contract (packed
/// into TraceEvent::a); append only.
enum class SpanKind : std::uint8_t {
  kEpoch = 0,      ///< one run_one_epoch() iteration
  kPolicy,         ///< one plan_epoch() policy decision round
  kPlanWorkload,   ///< one workload's share of the policy round
  kMigrationOp,    ///< one migration operation (page or chunk)
  kPhasePrep,      ///< MigPhase::kPrep   (kernel trap / preparation)
  kPhaseUnmap,     ///< MigPhase::kUnmap
  kPhaseShootdown, ///< MigPhase::kShootdown (contains kShootdown spans)
  kPhaseCopy,      ///< MigPhase::kCopy
  kPhaseRemap,     ///< MigPhase::kRemap
  kShootdown,      ///< one ShootdownController operation (IPI round)
  /// Reserved: nothing records it. obs::AppStats registers an
  /// app.span.sim_event_cycles counter per app for every kind, so removing
  /// the value would drop those keys from every registry snapshot and
  /// move the pinned fuzz digests.
  kSimEvent,
};

inline constexpr std::size_t kSpanKindCount = 11;

inline constexpr const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kEpoch: return "epoch";
    case SpanKind::kPolicy: return "policy";
    case SpanKind::kPlanWorkload: return "plan";
    case SpanKind::kMigrationOp: return "migration";
    case SpanKind::kPhasePrep: return "phase_prep";
    case SpanKind::kPhaseUnmap: return "phase_unmap";
    case SpanKind::kPhaseShootdown: return "phase_shootdown";
    case SpanKind::kPhaseCopy: return "phase_copy";
    case SpanKind::kPhaseRemap: return "phase_remap";
    case SpanKind::kShootdown: return "shootdown";
    case SpanKind::kSimEvent: return "sim_event";
  }
  return "?";
}

/// Span kind for one of the five §2.1 migration phases.
inline constexpr SpanKind span_kind_for(MigPhase p) {
  return static_cast<SpanKind>(static_cast<std::uint8_t>(SpanKind::kPhasePrep) +
                               static_cast<std::uint8_t>(p));
}

/// Labels carried by every span, packed into TraceEvent::a.
struct SpanAttrs {
  SpanKind kind = SpanKind::kEpoch;
  std::uint8_t tier = 0;      ///< destination / subject tier (0 if n/a)
  std::uint16_t thread = 0;   ///< thread id / target count (kind-specific)

  std::uint64_t encode() const {
    return static_cast<std::uint64_t>(kind) |
           (static_cast<std::uint64_t>(tier) << 8) |
           (static_cast<std::uint64_t>(thread) << 16);
  }
  static SpanAttrs decode(std::uint64_t a) {
    SpanAttrs s;
    s.kind = static_cast<SpanKind>(a & 0xff);
    s.tier = static_cast<std::uint8_t>((a >> 8) & 0xff);
    s.thread = static_cast<std::uint16_t>((a >> 16) & 0xffff);
    return s;
  }
};

using SpanId = std::uint64_t;

/// Observer notified as spans close — the hook per-app attribution
/// (obs/app_stats.hpp) uses to roll span durations up into the registry.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void on_span_closed(std::int32_t workload, SpanKind kind,
                              sim::Cycles duration) = 0;
};

/// Owns the timeline cursor and the open-span stack; emits the begin/end
/// event pairs. One recorder per TraceRing (runtime::TieredSystem owns
/// both). Default-constructed recorders are inert.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(TraceRing* ring, const sim::Cycles* clock)
      : ring_(ring), clock_(clock) {}

  bool active() const { return ring_ != nullptr; }
  void set_sink(SpanSink* sink) { sink_ = sink; }

  /// Current timeline position (>= the virtual clock).
  sim::Cycles timeline() const { return cursor_; }

  /// Pull the cursor forward to the virtual clock (epoch boundaries).
  void sync() {
    if (clock_ && *clock_ > cursor_) cursor_ = *clock_;
  }

  /// Advance the timeline by `cycles` of simulated work.
  void advance(sim::Cycles cycles) { cursor_ += cycles; }

  /// Open a span at the current timeline position. Returns 0 when inert.
  SpanId begin(SpanKind kind, std::int32_t workload, double arg = 0.0,
               std::uint8_t tier = 0, std::uint16_t thread = 0);

  /// Close span `id` at the current timeline position. Ends should arrive
  /// in LIFO order (strict nesting); unknown ids are ignored.
  void end(SpanId id, double arg = 0.0);

 private:
  struct Open {
    SpanId id = 0;
    std::uint64_t attrs = 0;
    std::int32_t workload = -1;
    sim::Cycles begin_time = 0;
  };

  TraceRing* ring_ = nullptr;
  const sim::Cycles* clock_ = nullptr;
  SpanSink* sink_ = nullptr;
  sim::Cycles cursor_ = 0;
  std::vector<Open> open_;
  SpanId next_id_ = 1;  // 0 = inert/no span
};

/// RAII handle: ends its span on destruction (at the then-current timeline
/// position). Move-only; default-constructed handles are inert.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(SpanRecorder* recorder, SpanId id)
      : recorder_(recorder), id_(id) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& o) noexcept : recorder_(o.recorder_), id_(o.id_) {
    o.recorder_ = nullptr;
    o.id_ = 0;
  }
  ScopedSpan& operator=(ScopedSpan&& o) noexcept {
    if (this != &o) {
      end();
      recorder_ = o.recorder_;
      id_ = o.id_;
      o.recorder_ = nullptr;
      o.id_ = 0;
    }
    return *this;
  }
  ~ScopedSpan() { end(); }

  /// Advance the shared timeline (simulated work inside this span).
  void advance(sim::Cycles cycles) {
    if (recorder_) recorder_->advance(cycles);
  }

  /// End now (idempotent).
  void end(double arg = 0.0) {
    if (recorder_ && id_) recorder_->end(id_, arg);
    recorder_ = nullptr;
    id_ = 0;
  }

  /// Advance by `elapsed`, then end — the leaf-span one-liner.
  void close(sim::Cycles elapsed, double arg = 0.0) {
    advance(elapsed);
    end(arg);
  }

 private:
  SpanRecorder* recorder_ = nullptr;
  SpanId id_ = 0;
};

// ---------------------------------------------------------------- analysis

/// One reconstructed span with its children.
struct SpanNode {
  SpanId id = 0;
  SpanAttrs attrs;
  std::int32_t workload = -1;
  sim::Cycles begin_time = 0;
  sim::Cycles end_time = 0;
  double begin_arg = 0.0;
  double end_arg = 0.0;
  std::vector<SpanNode> children;

  sim::Cycles duration() const { return end_time - begin_time; }
  /// Duration minus children's durations (flamegraph self time).
  sim::Cycles self_cycles() const {
    sim::Cycles c = duration();
    for (const SpanNode& child : children) {
      const sim::Cycles d = child.duration();
      c = d > c ? 0 : c - d;
    }
    return c;
  }
};

struct SpanForest {
  std::vector<SpanNode> roots;
  std::string error;       ///< empty when the stream was well-formed
  std::uint64_t skipped = 0;  ///< malformed records tolerated (lenient mode)

  bool ok() const { return error.empty(); }
};

/// Rebuild the span tree from a trace. In strict mode any violation — an
/// end without a matching begin, a non-LIFO end, or a begin left open —
/// fails the build with a diagnostic in `error`. In lenient mode (for
/// truncated rings, where the oldest events were dropped) orphan ends are
/// skipped and dangling begins are closed at the final timestamp, with
/// `skipped` counting the repairs.
SpanForest build_span_forest(std::span<const TraceEvent> events,
                             bool strict = true);

}  // namespace vulcan::obs
