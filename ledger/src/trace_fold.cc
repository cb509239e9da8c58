#include "trace_fold.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/trace.h"

namespace ledger {

namespace {

struct Event {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

int64_t MicrosToNanos(double us) { return std::llround(us * 1000.0); }

}  // namespace

void TraceFolder::BeginPhase(const std::string& phase) {
  phase_ = phase;
  tdb::trace::Reset();
}

tdb::Status TraceFolder::MaybeFlush() {
  // Rings hold 8192 spans per thread; the sum over threads bounds every
  // single ring from above.
  if (tdb::trace::TotalSpanCount() < 4096) return tdb::Status::OK();
  return Flush();
}

tdb::Status TraceFolder::Flush() {
  const uint64_t recorded = tdb::trace::TotalSpanCount();
  tdb::Status st = tdb::trace::WriteChromeTrace(dump_path_);
  if (!st.ok()) return st;
  tdb::trace::Reset();

  std::FILE* f = std::fopen(dump_path_.c_str(), "r");
  if (f == nullptr) return tdb::Status::IOError(dump_path_ + ": cannot read");
  std::map<unsigned, std::vector<Event>> by_thread;
  uint64_t parsed = 0;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    const char* ev = std::strstr(line, "{\"name\"");
    if (ev == nullptr) continue;
    char name[128];
    unsigned tid = 0;
    double ts = 0.0;
    double dur = 0.0;
    if (std::sscanf(ev,
                    "{\"name\": \"%127[^\"]\", \"cat\": \"tdb\", \"ph\": "
                    "\"X\", \"pid\": 1, \"tid\": %u, \"ts\": %lf, \"dur\": "
                    "%lf}",
                    name, &tid, &ts, &dur) != 4) {
      std::fclose(f);
      return tdb::Status::Internal("unparsable trace event: " +
                                   std::string(line));
    }
    const int64_t start = MicrosToNanos(ts);
    by_thread[tid].push_back(Event{name, start, start + MicrosToNanos(dur)});
    ++parsed;
  }
  std::fclose(f);
  if (parsed != recorded) {
    return tdb::Status::Internal(
        "trace dropped spans: " + std::to_string(recorded) +
        " recorded, " + std::to_string(parsed) + " in the dump");
  }
  spans_ += parsed;

  std::map<std::string, SpanTotals>& totals = phases_[phase_];
  for (auto& [tid, events] : by_thread) {
    // Parents sort before the children they contain.
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                : a.end_ns > b.end_ns;
              });
    struct Open {
      const Event* event;
      int64_t child_ns;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      SpanTotals& t = totals[o.event->name];
      const int64_t dur = o.event->end_ns - o.event->start_ns;
      t.inclusive_s += static_cast<double>(dur) * 1e-9;
      t.self_s += static_cast<double>(std::max<int64_t>(0, dur - o.child_ns)) *
                  1e-9;
      ++t.count;
    };
    for (const Event& e : events) {
      while (!stack.empty() && stack.back().event->end_ns <= e.start_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        // Clamp to the parent: the dump rounds to whole nanoseconds.
        const int64_t end = std::min(e.end_ns, stack.back().event->end_ns);
        stack.back().child_ns += end - e.start_ns;
      }
      stack.push_back(Open{&e, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return tdb::Status::OK();
}

SpanTotals TraceFolder::Total(const std::string& name) const {
  SpanTotals sum;
  for (const auto& [phase, spans] : phases_) {
    const auto it = spans.find(name);
    if (it == spans.end()) continue;
    sum.inclusive_s += it->second.inclusive_s;
    sum.self_s += it->second.self_s;
    sum.count += it->second.count;
  }
  return sum;
}

}  // namespace ledger
