// The one table of JSON export schema versions. Every writer stamps its
// `schema_version` from here and every reader (tools/ftdiag) derives its
// ceiling from the same constant, so a version bump is a one-line change
// that cannot leave a writer and its reader disagreeing.
//
// Formats:
//   metrics  — sim::write_metrics_json (single-run export; version
//              history in that writer's comment)
//   bench    — bench_harness write_json (multi-scenario export)
//   campaign — campaign::write_campaign_json (Monte Carlo fault campaign)
//   watchdog — sim::write_watchdog_dump (black-box stall dump)
#pragma once

#include <cstddef>

namespace ftsort::util {

inline constexpr int kMetricsSchemaVersion = 8;
inline constexpr int kBenchSchemaVersion = 3;
inline constexpr int kCampaignSchemaVersion = 7;
inline constexpr int kWatchdogDumpSchemaVersion = 1;

struct SchemaEntry {
  const char* format;
  int version;
  /// Readers of this format accept any file up to `version`; an
  /// exact-version reader (the campaign curve diff, whose bucket keys
  /// changed meaning across versions) refuses older files too.
  bool exact;
};

inline constexpr SchemaEntry kSchemaTable[] = {
    {"metrics", kMetricsSchemaVersion, false},
    {"bench", kBenchSchemaVersion, false},
    {"campaign", kCampaignSchemaVersion, true},
    {"watchdog", kWatchdogDumpSchemaVersion, false},
};

inline constexpr std::size_t kSchemaTableSize =
    sizeof(kSchemaTable) / sizeof(kSchemaTable[0]);

}  // namespace ftsort::util
