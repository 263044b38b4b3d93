// Structured result sinks: serialise finished grid cells as JSONL or CSV so
// benches have machine-readable output beyond their ASCII tables.
//
// Output is byte-stable: fields appear in a fixed order, floats use
// locale-independent "%g"/"%.6g" formatting, rows follow spec order (not
// completion order) and wall-clock timings are excluded — a --dispatch
// process or tcp run serialises identically to a serial one (CI diffs them).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/scheduler.hpp"

namespace fedhisyn::exp {

/// One cell as a single-line JSON object (no trailing newline).
std::string to_jsonl_line(const CellResult& cell);

/// CSV header matching to_csv_row's columns.
std::string csv_header();

/// One cell as a CSV row (no trailing newline).  comm_to_target /
/// rounds_to_target are empty when the target was never reached.
std::string to_csv_row(const CellResult& cell);

/// True when `path` selects the CSV format (".csv" suffix) — the single
/// definition shared by write_results and the run_grid streaming/resume
/// logic, so the two can never disagree on a file's format.
bool is_csv_path(const std::string& path);

/// Serialise all cells: path ending in ".csv" selects CSV (with header),
/// anything else JSONL.  Atomic: writes "<path>.tmp" and renames it over
/// `path`, so an interrupted sweep never leaves a truncated file a later
/// --resume would mis-read.  Check-fails if the file cannot be written.
void write_results(const std::string& path, const std::vector<CellResult>& cells);

/// Atomically AND durably replace `path` with `lines` (one per line): write
/// "<path>.tmp", fsync it, rename over `path`, fsync the directory — so the
/// replacement survives both a concurrent reader and a host crash (an
/// unsynced rename can land as an empty file after power loss and silently
/// poison --resume).  The tmp file is unlinked on every failure path.  The
/// verbatim-line primitive under write_results and the --resume rewrite.
void write_lines_atomic(const std::string& path, const std::vector<std::string>& lines);

/// Append one line to a streaming JSONL sink as a single O_APPEND write: a
/// crash mid-sweep leaves at most one truncated final line, which the
/// --resume scanner skips.  Creates the file when absent.
void append_result_line(const std::string& path, const std::string& line);

/// If `path` exists and its last byte is not a newline (an interrupted
/// append), add one — so a resumed sweep's first fresh line cannot glue
/// onto the partial line and become unparseable itself.
void terminate_partial_line(const std::string& path);

/// One JSONL line parsed back for --resume: the spec key that identifies the
/// finished cell, the verbatim line (re-emitted on the final spec-order
/// rewrite so resumed bytes never churn), and the headline metrics so
/// drivers can still render their tables.  Per-round history is not
/// serialised — resumed cells come back with an empty history.
struct ScannedResult {
  std::string key;
  std::string line;
  float final_accuracy = 0.0f;
  float best_accuracy = 0.0f;
  std::optional<double> comm_to_target;
  std::optional<int> rounds_to_target;
};

/// Scan an existing JSONL results file for finished cells.  Malformed or
/// truncated lines (an interrupted append) are skipped, not fatal.  A bad
/// line *followed by* well-formed lines indicates mid-file corruption (not a
/// cut tail) and is warned about on stderr instead of skipped silently.  A
/// missing file yields an empty vector.
std::vector<ScannedResult> scan_results(const std::string& path);

}  // namespace fedhisyn::exp
