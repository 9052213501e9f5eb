// vulcan_pagescope — page lifecycle queries over provenance exports.
//
// Consumes the JSONL exports written by `vulcan_sim --provenance P` (or any
// ProvenanceLedger::write_*_jsonl stream) and answers the lifecycle
// questions the ledger exists for: which app churns hardest, which pages
// ping-pong, what happened to one page, and how tier residency evolved.
// All output is deterministic for a given input, so tables produced from a
// --jobs 1 battery export byte-compare equal to a --jobs 8 one.
//
//   vulcan_sim --scenario dilemma --seconds 20 --provenance /tmp/dilemma
//   vulcan_pagescope --transitions /tmp/dilemma.vulcan.transitions.jsonl
//                    --decisions   /tmp/dilemma.vulcan.decisions.jsonl
//                    --churn --thrash 10
//   vulcan_pagescope --transitions ... --history 0:1234
//   vulcan_pagescope --transitions ... --heatmap heat.csv
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <vulcan/vulcan.hpp>

using namespace vulcan;

namespace {

void usage() {
  std::puts(
      "vulcan_pagescope — page lifecycle queries over provenance exports\n"
      "\n"
      "inputs (from vulcan_sim --provenance P):\n"
      "  --transitions F  transition rows (P[.policy].transitions.jsonl),\n"
      "                   required for every query\n"
      "  --decisions F    decision rows (needed by --history)\n"
      "\n"
      "queries (default: --churn):\n"
      "  --churn          per-app churn ranking (most ping-pong first)\n"
      "  --thrash N       top-N thrashing pages\n"
      "  --history A:P    one page's lifecycle (app A, page offset P)\n"
      "  --heatmap F      tier-residency heatmap CSV to F (\"-\" = stdout)\n"
      "\n"
      "options:\n"
      "  --window E       ping-pong episode window, epochs            [8]\n"
      "  --digest         also print an fnv1a line per emitted table\n");
}

struct Options {
  std::string transitions_path;
  std::string decisions_path;
  bool churn = false;
  bool thrash = false;
  std::size_t thrash_n = 10;
  bool history = false;
  std::int32_t history_app = 0;
  std::uint64_t history_page = 0;
  std::string heatmap_path;
  std::uint64_t window = 8;
  bool digest = false;
};

bool parse_history_target(const std::string& spec, Options& o) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return false;
  }
  o.history_app =
      static_cast<std::int32_t>(std::strtol(spec.c_str(), nullptr, 10));
  o.history_page = std::strtoull(spec.c_str() + colon + 1, nullptr, 10);
  return true;
}

/// Print "digest <name> <fnv1a-64 hex>" for a rendered table, so CI can
/// compare tables across --jobs without shipping the bytes around.
void print_digest(const char* name, const std::string& bytes) {
  std::printf("digest %s %016llx\n", name,
              (unsigned long long)core::fnv1a(bytes));
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else if (flag == "--transitions") {
      o.transitions_path = next();
    } else if (flag == "--decisions") {
      o.decisions_path = next();
    } else if (flag == "--churn") {
      o.churn = true;
    } else if (flag == "--thrash") {
      o.thrash = true;
      o.thrash_n = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--history") {
      o.history = true;
      if (!parse_history_target(next(), o)) {
        std::fprintf(stderr, "--history takes APP:PAGE (e.g. 0:1234)\n");
        return 2;
      }
    } else if (flag == "--heatmap") {
      o.heatmap_path = next();
    } else if (flag == "--window") {
      o.window = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--digest") {
      o.digest = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }

  if (!o.churn && !o.thrash && !o.history && o.heatmap_path.empty()) {
    o.churn = true;
  }
  if (o.transitions_path.empty()) {
    std::fprintf(stderr, "--transitions is required (see --help)\n");
    return 2;
  }
  if (o.history && o.decisions_path.empty()) {
    std::fprintf(stderr, "--history needs --decisions\n");
    return 2;
  }

  std::ifstream tin(o.transitions_path);
  if (!tin) {
    std::fprintf(stderr, "cannot open %s\n", o.transitions_path.c_str());
    return 1;
  }
  const std::vector<obs::TransitionRow> transitions =
      obs::ProvenanceLedger::read_transitions_jsonl(tin);

  std::vector<obs::DecisionRow> decisions;
  if (!o.decisions_path.empty()) {
    std::ifstream din(o.decisions_path);
    if (!din) {
      std::fprintf(stderr, "cannot open %s\n", o.decisions_path.c_str());
      return 1;
    }
    decisions = obs::ProvenanceLedger::read_decisions_jsonl(din);
  }

  if (o.churn) {
    const auto rows = obs::pagescope::churn_table(transitions, o.window);
    std::ostringstream table;
    obs::pagescope::write_churn(rows, table);
    std::fputs(table.str().c_str(), stdout);
    if (o.digest) print_digest("churn", table.str());
  }

  if (o.thrash) {
    const auto rows =
        obs::pagescope::thrash_table(transitions, o.window, o.thrash_n);
    std::ostringstream table;
    obs::pagescope::write_thrash(rows, table);
    std::fputs(table.str().c_str(), stdout);
    if (o.digest) print_digest("thrash", table.str());
  }

  if (o.history) {
    std::ostringstream table;
    obs::pagescope::write_history(decisions, transitions, o.history_app,
                                  o.history_page, table);
    std::fputs(table.str().c_str(), stdout);
    if (o.digest) print_digest("history", table.str());
  }

  if (!o.heatmap_path.empty()) {
    std::ostringstream table;
    {
      obs::CsvExporter exporter(table);
      obs::pagescope::write_heatmap(transitions, exporter);
    }
    if (o.heatmap_path == "-") {
      std::fputs(table.str().c_str(), stdout);
    } else {
      std::ofstream out(o.heatmap_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", o.heatmap_path.c_str());
        return 1;
      }
      out << table.str();
      std::fprintf(stderr, "wrote %s (residency heatmap)\n",
                   o.heatmap_path.c_str());
    }
    if (o.digest) print_digest("heatmap", table.str());
  }

  return 0;
}
