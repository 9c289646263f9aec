// Metrics snapshot exporters: JSON (schema `recoverd.metrics.v1`, the
// machine-readable dump behind `--metrics-out` and the bench perf
// trajectories) and CSV (one row per scalar, matching util/csv.hpp
// conventions so the existing plotting scripts can ingest it).
//
// JSON schema:
//   {
//     "schema": "recoverd.metrics.v1",
//     "counters":   { "<name>": <uint>, ... },
//     "gauges":     { "<name>": <double>, ... },
//     "histograms": { "<name>": { "uppers": [..], "counts": [..],
//                                 "count": N, "sum": S, "min": m, "max": M } }
//   }
// `counts` has uppers.size() + 1 entries; the last is the overflow bucket.
//
// CSV schema: header `metric,kind,field,value`; counters/gauges emit one
// `value` row, histograms emit `count`/`sum`/`min`/`max`/`p50`/`p90`/`p99`
// rows plus one `le_<upper>` row per bucket (`le_inf` for the overflow
// bucket).
//
// Prometheus text exposition format is also supported (`.prom` extension
// or write_prometheus): names are sanitised (non-[a-zA-Z0-9_] → `_`),
// histograms emit cumulative `_bucket{le="..."}` series plus `_sum` and
// `_count`, and the quantile estimates become `{quantile="0.5"}` gauges.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
#include "util/cli.hpp"

namespace recoverd::obs {

/// Serialises a snapshot as a single JSON object (no trailing newline).
void write_json(std::ostream& os, const MetricsSnapshot& snapshot);

/// Parses a `recoverd.metrics.v1` document back into a snapshot (test
/// round-trips, offline analysis). Throws ModelError on schema mismatch.
MetricsSnapshot read_json_text(const std::string& text);

/// Serialises a snapshot as CSV with a header row.
void write_csv(std::ostream& os, const MetricsSnapshot& snapshot);

/// Serialises a snapshot in the Prometheus text exposition format (v0.0.4)
/// — the payload a future daemon `/metrics` endpoint would serve.
void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot);

/// Maps an instrument name onto a valid Prometheus metric name: every
/// character outside [a-zA-Z0-9_] becomes `_`, and a leading digit gets a
/// `_` prefix ("pomdp.decide.ms" → "pomdp_decide_ms").
std::string prometheus_name(const std::string& name);

/// Writes the snapshot to `path`, picking the format from the extension:
/// `.csv` → CSV, `.prom` → Prometheus text, anything else → JSON. Throws
/// ModelError when the file cannot be opened.
void write_metrics_file(const std::string& path, const MetricsSnapshot& snapshot);

/// Mirrors the shared util::WorkPool's cumulative tallies into `pool.*`
/// gauges (`pool.tasks`, `pool.spawns_avoided`, …). The pool lives below
/// the obs layer and cannot report into the registry itself;
/// dump_metrics_if_requested() calls this before every snapshot, and tests
/// or long-running exporters may call it directly.
void publish_work_pool_metrics(MetricsRegistry& registry = metrics());

/// The standard `--metrics-out=<path>` hook for binaries: when the flag is
/// present, snapshots the given registry (the process-global one by
/// default) into the file and returns true. Call once, at exit.
bool dump_metrics_if_requested(const CliArgs& args,
                               MetricsRegistry& registry = metrics());

/// The observability flags every binary accepts — append to the
/// require_known() list: `metrics-out`, `trace-out`, `trace-level`,
/// `provenance-out`.
std::vector<std::string> obs_flag_names();

/// Applies the observability flags at startup: enables span tracing when
/// `--trace-out` is given (at `--trace-level`, default `full`) and opens
/// the provenance sink when `--provenance-out` is given. Call before any
/// decide()/episode work. No-op when none of the flags are present, so
/// default runs stay byte-identical.
void init_observability(const CliArgs& args);

/// Counterpart at exit: drains the trace into `--trace-out`, closes the
/// provenance sink, and dumps `--metrics-out`. Safe to call always.
void finish_observability(const CliArgs& args,
                          MetricsRegistry& registry = metrics());

}  // namespace recoverd::obs
