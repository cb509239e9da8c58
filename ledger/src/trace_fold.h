// Folds the program's span tracer dumps into per-phase self-times.
//
// The traced run switches the tracer on (trace::SetEnabled), and at the
// end of every phase — or earlier, whenever the live span count nears a
// ring's capacity — dumps it with trace::WriteChromeTrace, parses the
// dump back, and resets. Self-time is built per thread from span
// nesting: a span's duration minus the time its directly nested
// same-thread children cover. A dump that holds fewer spans than
// trace::TotalSpanCount() says were recorded means a ring overwrote
// spans, and fails the run instead of silently shortening layer totals.
#ifndef LEDGER_TRACE_FOLD_H_
#define LEDGER_TRACE_FOLD_H_

#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"

namespace ledger {

struct SpanTotals {
  double inclusive_s = 0.0;
  double self_s = 0.0;
  uint64_t count = 0;
};

class TraceFolder {
 public:
  /// `dump_path` is the scratch file each dump is written to.
  explicit TraceFolder(std::string dump_path)
      : dump_path_(std::move(dump_path)) {}

  /// Starts attributing spans to `phase` (flushes nothing: call Flush
  /// at the end of the previous phase).
  void BeginPhase(const std::string& phase);

  /// Dumps, folds into the current phase and resets the tracer. Call at
  /// quiescence (no thread inside a traced scope).
  tdb::Status Flush();

  /// Flush() once the live span count passes half a ring.
  tdb::Status MaybeFlush();

  /// phase -> span name -> totals.
  const std::map<std::string, std::map<std::string, SpanTotals>>& phases()
      const {
    return phases_;
  }

  /// One span name summed over every phase.
  SpanTotals Total(const std::string& name) const;

  uint64_t spans() const { return spans_; }

 private:
  std::string dump_path_;
  std::string phase_;
  std::map<std::string, std::map<std::string, SpanTotals>> phases_;
  uint64_t spans_ = 0;
};

}  // namespace ledger

#endif  // LEDGER_TRACE_FOLD_H_
