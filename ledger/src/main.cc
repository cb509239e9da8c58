// ledger_bench: the end-to-end ledger benchmark program.
//
//   ledger_bench gen --workload W --seed N --dir D
//       generate W's inputs for seed N into D (own process, so the
//       generator's memory never shows in the measured peak RSS)
//   ledger_bench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       run the phases against D's inputs, check every output, and
//       print the result JSON as the last line of stdout
//
// One pipeline runs these phases, each a closed loop on one client
// thread through public calls; a run repeats whole pipelines:
//   setup      graph_io load of the base + CycleBreakService::Create of a
//              durable store (initial solve and first snapshot);
//   replay     the held-out stream one event at a time: CheckAdmission
//              gates it, would-close events are dropped, the rest go
//              through IngestBatcher::Add;
//   admit      the fixed query set through CheckAdmissionBatch against
//              the final state, in whole rounds;
//   recover    close the service, CycleBreakService::Open its store;
//   solve      SolveCycleCover (TDB++) on the full graph, 1 thread;
//   solve_par  the same at nproc threads (the only multi-threaded phase;
//              first pipeline only).
// peak_rss_mb is read after the first pipeline's recover, before any
// offline solve has run, so it is the service's residency alone.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs one pipeline
// untraced and one with the program's span tracer on, and prints the
// per-layer metrics of the traced one plus the tracing overhead.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cover_options.h"
#include "core/solver.h"
#include "graph/compressed_csr.h"
#include "graph/csr_graph.h"
#include "graph/graph_io.h"
#include "oracles.h"
#include "service/cycle_break_service.h"
#include "service/ingest_batcher.h"
#include "trace_fold.h"
#include "util/crc32.h"
#include "util/trace.h"
#include "workloads.h"

namespace ledger {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

bool SameImage(const tdb::TransversalImage& a,
               const tdb::TransversalImage& b) {
  return a.epoch == b.epoch && a.universe == b.universe &&
         a.base_edges == b.base_edges && a.base_crc == b.base_crc &&
         a.delta == b.delta && a.cover_vertices == b.cover_vertices &&
         a.covered == b.covered && a.reusable == b.reusable;
}

/// Whole pipelines a measured pass runs before it consults its time
/// budget.
inline constexpr int kMinReps = 3;

/// How a pass repeats its pipeline.
struct PassConfig {
  int min_reps = 1;
  /// Further pipelines start while one more is expected to finish
  /// within this many seconds of the pass's start.
  double measure_seconds = 0.0;
};

/// Operations attempted and failed, by kind.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Everything one pass measured (times in seconds unless named). Phase
/// and per-call samples (one per setup, solve, Open, gate check, submit
/// or admission batch) are pooled over the pass's pipelines; per-pipeline
/// rates and sums (one value per pipeline) are reduced by their median.
struct Pass {
  int reps = 0;
  std::vector<double> setup_s, load_s, solve_s, solve_par_s, recover_s;
  std::vector<double> gate_s, submit_s, admit_batch_s;
  std::vector<double> ingest_eps, admit_qps, gate_sum_s, submit_sum_s;
  // Outputs of the first pipeline; later ones must reproduce them.
  uint64_t stream_events = 0;
  uint64_t dropped = 0;
  uint64_t gate_probed = 0;
  uint64_t admit_probed = 0;
  uint64_t admit_would_close = 0;
  tdb::CoverStats solve_stats, par_stats;
  std::vector<tdb::VertexId> cover;
  tdb::ServiceStatsSnapshot before_replay, after_replay;
  uint64_t store_bytes = 0;
  uint64_t replayed_batches = 0;
  tdb::TransversalImage image;
  std::vector<uint8_t> verdicts;  // would_close per query
  std::vector<tdb::Edge> admitted;
  std::map<std::string, double> phase_s;
  std::map<std::string, OpCount> ops;
  std::vector<std::string> errors;
  /// Peak RSS after the first pipeline's service phases, and at the end.
  double peak_rss_mb = 0.0;
  double final_peak_rss_mb = 0.0;
};

struct Inputs {
  const Workload* workload = nullptr;
  std::string dir;
  std::vector<tdb::TimedEdge> stream;
  std::vector<tdb::Edge> queries;
};

tdb::ServiceOptions MakeServiceOptions(const Workload& w,
                                       const std::string& data_dir) {
  tdb::ServiceOptions opts;
  opts.cover.k = kHops;
  opts.cover.num_threads = 1;
  opts.compact_algorithm = tdb::CoverAlgorithm::kTdbPlusPlus;
  opts.compact_delta_threshold = kCompactThreshold;
  opts.synchronous_compaction = true;
  opts.ingest_threads = 1;
  opts.data_dir = data_dir;
  opts.durability = tdb::DurabilityPolicy::kBatch;
  opts.compressed_base = w.compressed_base;
  return opts;
}

/// Fatal input errors abort the run without a result line.
[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "ledger: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const tdb::Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

/// Times one phase execution into Pass::phase_s and, in the traced
/// pass, attributes the spans recorded meanwhile to the phase.
class PhaseScope {
 public:
  PhaseScope(const char* name, Pass* pass, TraceFolder* folder)
      : name_(name), pass_(pass), folder_(folder), start_(Clock::now()) {
    if (folder_ != nullptr) folder_->BeginPhase(name);
  }
  ~PhaseScope() {
    pass_->phase_s[name_] += Seconds(start_, Clock::now());
    if (folder_ != nullptr) {
      const tdb::Status st = folder_->Flush();
      if (!st.ok()) pass_->errors.push_back(st.ToString());
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* name_;
  Pass* pass_;
  TraceFolder* folder_;
  Clock::time_point start_;
};

/// solve, and in a pass's first pipeline solve_par. The full graph is
/// loaded (untimed) and freed here, so it is never resident beside a
/// service. The nproc solve feeds only per-layer figures and the cover
/// check, so later pipelines skip it and spend the time on more samples
/// of the end-to-end metrics.
void RunSolvePhases(const Inputs& in, TraceFolder* folder, Pass* pass) {
  tdb::CsrGraph raw;
  CheckOk(tdb::LoadBinary(FullGraphPath(in.dir), &raw), "load full graph");
  std::optional<tdb::CompressedCsr> packed;
  if (in.workload->compressed_base) {
    packed = tdb::CompressedCsr::FromCsr(raw);
    raw = tdb::CsrGraph();
  }
  auto solve = [&](int threads, tdb::CoverResult* out) {
    tdb::CoverOptions opts;
    opts.k = kHops;
    opts.num_threads = threads;
    const Clock::time_point t0 = Clock::now();
    *out = packed ? tdb::SolveCycleCover(*packed,
                                         tdb::CoverAlgorithm::kTdbPlusPlus,
                                         opts)
                  : tdb::SolveCycleCover(raw,
                                         tdb::CoverAlgorithm::kTdbPlusPlus,
                                         opts);
    return Seconds(t0, Clock::now());
  };
  OpCount& ops = pass->ops["solves"];
  tdb::CoverResult one;
  {
    PhaseScope phase("solve", pass, folder);
    pass->solve_s.push_back(solve(1, &one));
  }
  ++ops.attempted;
  if (!one.status.ok()) ++ops.failed;
  if (pass->solve_s.size() > 1) {
    if (one.cover != pass->cover) {
      pass->errors.push_back("offline cover differs between pipelines");
    }
    return;
  }
  pass->cover = one.cover;
  pass->solve_stats = one.stats;
  tdb::CoverResult par;
  {
    PhaseScope phase("solve_par", pass, folder);
    pass->solve_par_s.push_back(solve(CpuCount(), &par));
  }
  ++ops.attempted;
  if (!par.status.ok()) ++ops.failed;
  if (one.status.ok() && par.status.ok() && one.cover != par.cover) {
    pass->errors.push_back("1-thread and nproc covers differ");
  }
  pass->par_stats = par.stats;
}

/// setup: load the base and Create a durable store in a fresh directory.
std::unique_ptr<tdb::CycleBreakService> RunSetupPhase(
    const Inputs& in, const std::string& store, TraceFolder* folder,
    Pass* pass) {
  fs::remove_all(store);
  std::unique_ptr<tdb::CycleBreakService> service;
  PhaseScope phase("setup", pass, folder);
  const Clock::time_point t0 = Clock::now();
  tdb::CsrGraph base;
  CheckOk(tdb::LoadBinary(BaseGraphPath(in.dir), &base), "load base");
  const Clock::time_point t1 = Clock::now();
  const tdb::Status st = tdb::CycleBreakService::Create(
      std::move(base), MakeServiceOptions(*in.workload, store), &service);
  const Clock::time_point t2 = Clock::now();
  CheckOk(st, "CycleBreakService::Create");
  pass->load_s.push_back(Seconds(t0, t1));
  pass->setup_s.push_back(Seconds(t0, t2));
  ++pass->ops["setups"].attempted;
  return service;
}

/// replay: gate every stream event, drop would-close ones, batch the
/// rest, until exactly replay_batches batches are submitted.
void RunReplayPhase(const Inputs& in, tdb::CycleBreakService* service,
                    TraceFolder* folder, Pass* pass) {
  PhaseScope phase("replay", pass, folder);
  const tdb::ServiceStatsSnapshot before = service->Stats();
  tdb::IngestBatcher batcher(service, kIngestBatch);
  OpCount& gate_ops = pass->ops["gate_checks"];
  OpCount& submit_ops = pass->ops["submits"];
  std::vector<tdb::Edge> admitted;
  uint64_t events = 0;
  uint64_t dropped = 0;
  uint64_t probed = 0;
  double gate_sum = 0.0;
  double submit_sum = 0.0;
  admitted.reserve(in.stream.size());
  auto submitted = [&](const tdb::SubmitResult& r, Clock::time_point t0) {
    const double s = Seconds(t0, Clock::now());
    pass->submit_s.push_back(s);
    submit_sum += s;
    ++submit_ops.attempted;
    if (!r.status.ok()) ++submit_ops.failed;
    if (folder != nullptr) {
      const tdb::Status st = folder->MaybeFlush();
      if (!st.ok()) pass->errors.push_back(st.ToString());
    }
  };
  const uint64_t batches = in.workload->replay_batches;
  const Clock::time_point start = Clock::now();
  for (const tdb::TimedEdge& e : in.stream) {
    if (batcher.batches_flushed() == batches) break;
    ++events;
    const Clock::time_point g0 = Clock::now();
    const tdb::AdmissionVerdict verdict =
        service->CheckAdmission(e.src, e.dst);
    const double g = Seconds(g0, Clock::now());
    pass->gate_s.push_back(g);
    gate_sum += g;
    if (verdict.probed) ++probed;
    if (verdict.would_close) {
      ++dropped;
      continue;
    }
    admitted.push_back(tdb::Edge{e.src, e.dst});
    const uint64_t flushed = batcher.batches_flushed();
    const Clock::time_point s0 = Clock::now();
    const tdb::SubmitResult r = batcher.Add(e.src, e.dst);
    if (batcher.batches_flushed() != flushed) submitted(r, s0);
  }
  if (batcher.pending() > 0) {
    const Clock::time_point s0 = Clock::now();
    submitted(batcher.Flush(), s0);
  }
  const double replay_s = Seconds(start, Clock::now());
  gate_ops.attempted += events;
  if (batcher.batches_flushed() != batches) {
    pass->errors.push_back("stream exhausted after " +
                           std::to_string(batcher.batches_flushed()) +
                           " of " + std::to_string(batches) + " batches");
  }
  pass->ingest_eps.push_back(static_cast<double>(events) / replay_s);
  pass->gate_sum_s.push_back(gate_sum);
  pass->submit_sum_s.push_back(submit_sum);
  if (pass->ingest_eps.size() == 1) {
    pass->stream_events = events;
    pass->dropped = dropped;
    pass->gate_probed = probed;
    pass->admitted = std::move(admitted);
    pass->before_replay = before;
    pass->after_replay = service->Stats();
  } else if (admitted != pass->admitted) {
    pass->errors.push_back("replay admitted other events than before");
  }
}

/// admit: whole rounds of the query set through CheckAdmissionBatch.
void RunAdmitPhase(const Inputs& in, const tdb::CycleBreakService& service,
                   TraceFolder* folder, Pass* pass) {
  PhaseScope phase("admit", pass, folder);
  const std::vector<tdb::Edge>& q = in.queries;
  const uint64_t epoch = service.epoch();
  OpCount& ops = pass->ops["admission_queries"];
  double admit_sum = 0.0;
  std::vector<uint8_t> round(q.size(), 0);
  for (int r = 0; r < in.workload->admit_rounds; ++r) {
    uint64_t probed = 0;
    uint64_t would_close = 0;
    for (size_t b = 0; b < q.size(); b += kAdmitBatch) {
      const size_t len = std::min(kAdmitBatch, q.size() - b);
      const Clock::time_point t0 = Clock::now();
      const std::vector<tdb::AdmissionVerdict> verdicts =
          service.CheckAdmissionBatch(
              std::span<const tdb::Edge>(q.data() + b, len));
      const double s = Seconds(t0, Clock::now());
      pass->admit_batch_s.push_back(s);
      admit_sum += s;
      for (size_t i = 0; i < len; ++i) {
        ++ops.attempted;
        if (verdicts[i].epoch != epoch) ++ops.failed;
        round[b + i] = verdicts[i].would_close ? 1 : 0;
        if (verdicts[i].probed) ++probed;
        if (verdicts[i].would_close) ++would_close;
      }
    }
    if (pass->verdicts.empty()) {
      pass->verdicts = round;
      pass->admit_probed = probed;
      pass->admit_would_close = would_close;
    } else if (round != pass->verdicts) {
      pass->errors.push_back("admission verdicts changed between rounds");
    }
  }
  pass->admit_qps.push_back(
      static_cast<double>(in.workload->admit_rounds * q.size()) / admit_sum);
}

/// recover: close the service, then Open its store recover_reps times.
void RunRecoverPhase(const Inputs& in, const std::string& store,
                     std::unique_ptr<tdb::CycleBreakService> service,
                     TraceFolder* folder, Pass* pass) {
  const tdb::TransversalImage image = service->Image();
  if (pass->recover_s.empty()) {
    pass->image = image;
    pass->store_bytes = DirectoryBytes(store);
  } else if (!SameImage(image, pass->image)) {
    pass->errors.push_back("final image differs between pipelines");
  }
  service.reset();  // close
  OpCount& ops = pass->ops["recoveries"];
  for (int rep = 0; rep < in.workload->recover_reps; ++rep) {
    std::unique_ptr<tdb::CycleBreakService> recovered;
    tdb::Status st;
    {
      PhaseScope phase("recover", pass, folder);
      const Clock::time_point t0 = Clock::now();
      st = tdb::CycleBreakService::Open(
          MakeServiceOptions(*in.workload, store), &recovered);
      pass->recover_s.push_back(Seconds(t0, Clock::now()));
    }
    ++ops.attempted;
    if (!st.ok()) {
      ++ops.failed;
      std::fprintf(stderr, "ledger: recovery failed: %s\n",
                   st.ToString().c_str());
      continue;
    }
    pass->replayed_batches = recovered->recovery_info().replayed_batches;
    if (!SameImage(recovered->Image(), image)) {
      pass->errors.push_back("recovered image differs from the closed one");
    }
  }
}

/// Runs whole pipelines (setup, replay, admit, recover, solve, and
/// solve_par in the first), at least cfg.min_reps, then more while one
/// is expected to fit in cfg.measure_seconds. Each metric's samples
/// thereby spread over the whole run instead of one window of it.
Pass RunPass(const Inputs& in, const PassConfig& cfg, TraceFolder* folder) {
  Pass pass;
  const std::string store = in.dir + "/store";
  const Clock::time_point start = Clock::now();
  for (;;) {
    std::unique_ptr<tdb::CycleBreakService> service =
        RunSetupPhase(in, store, folder, &pass);
    RunReplayPhase(in, service.get(), folder, &pass);
    RunAdmitPhase(in, *service, folder, &pass);
    RunRecoverPhase(in, store, std::move(service), folder, &pass);
    if (pass.reps == 0) pass.peak_rss_mb = PeakRssMb();
    RunSolvePhases(in, folder, &pass);
    ++pass.reps;
    const double elapsed = Seconds(start, Clock::now());
    if (pass.reps >= cfg.min_reps &&
        elapsed * (pass.reps + 1) / pass.reps > cfg.measure_seconds) {
      break;
    }
  }
  pass.final_peak_rss_mb = PeakRssMb();
  fs::remove_all(store);
  return pass;
}

/// The independent checks of one pass's outputs; appends to pass.errors.
void CheckOutputs(const Inputs& in, uint64_t seed, Pass* pass) {
  const int threads = std::min(4, CpuCount());
  const std::string self = SelfCheck(seed);
  if (!self.empty()) pass->errors.push_back("oracle " + self);

  // Offline cover: feasible (cycle checker) and minimal (witnesses).
  {
    tdb::CsrGraph raw;
    CheckOk(tdb::LoadBinary(FullGraphPath(in.dir), &raw), "load full graph");
    std::vector<tdb::Edge> edges;
    edges.reserve(raw.num_edges());
    for (tdb::EdgeId e = 0; e < raw.num_edges(); ++e) {
      edges.push_back(tdb::Edge{raw.EdgeSrc(e), raw.EdgeDst(e)});
    }
    const Digraph full(raw.num_vertices(), std::move(edges));
    raw = tdb::CsrGraph();
    Transversal t;
    const std::string bad = MakeTransversal(full, pass->cover, {}, &t);
    if (!bad.empty()) pass->errors.push_back("offline cover: " + bad);
    if (bad.empty() && !FindOpenCycle(full, t, kHops, threads).empty()) {
      pass->errors.push_back("offline cover leaves a cycle of 3..k hops");
    }
    const std::vector<VertexId> missing =
        VerticesWithoutWitness(full, pass->cover, kHops, threads);
    if (!missing.empty()) {
      pass->errors.push_back("offline cover is not minimal: " +
                             std::to_string(missing.size()) +
                             " vertices lack a witness cycle");
    }
  }

  // Final served image: rebuild base + admitted stream edges.
  tdb::CsrGraph base;
  CheckOk(tdb::LoadBinary(BaseGraphPath(in.dir), &base), "load base");
  std::vector<tdb::Edge> edges;
  edges.reserve(base.num_edges() + pass->admitted.size());
  for (tdb::EdgeId e = 0; e < base.num_edges(); ++e) {
    edges.push_back(tdb::Edge{base.EdgeSrc(e), base.EdgeDst(e)});
  }
  edges.insert(edges.end(), pass->admitted.begin(), pass->admitted.end());
  const Digraph fin(base.num_vertices(), std::move(edges));
  base = tdb::CsrGraph();
  const tdb::TransversalImage& img = pass->image;
  if (img.base_edges + img.delta.size() != fin.m()) {
    pass->errors.push_back("served graph has " +
                           std::to_string(img.base_edges + img.delta.size()) +
                           " edges, rebuilt graph " + std::to_string(fin.m()));
    return;
  }
  std::vector<uint8_t> in_delta(fin.m(), 0);
  for (const tdb::Edge& e : img.delta) {
    const size_t id = fin.Find(e.src, e.dst);
    if (id == fin.m()) {
      pass->errors.push_back("served delta edge not in the rebuilt graph");
      return;
    }
    in_delta[id] = 1;
  }
  tdb::Crc32 crc;
  for (size_t id = 0; id < fin.m(); ++id) {
    if (in_delta[id] != 0) continue;
    const VertexId pair[2] = {fin.edges()[id].src, fin.edges()[id].dst};
    crc.Update(pair, sizeof(pair));
  }
  if (crc.value() != img.base_crc) {
    pass->errors.push_back("served base differs from the rebuilt graph");
    return;
  }
  std::vector<tdb::Edge> covered;
  for (const auto& e : img.covered) covered.push_back(tdb::Edge{e.src, e.dst});
  Transversal t;
  const std::string bad = MakeTransversal(fin, img.cover_vertices, covered, &t);
  if (!bad.empty()) {
    pass->errors.push_back("served transversal: " + bad);
    return;
  }
  const std::vector<VertexId> cycle = FindOpenCycle(fin, t, kHops, threads);
  if (!cycle.empty()) {
    pass->errors.push_back("served transversal leaves a cycle through " +
                           std::to_string(cycle.front()));
  }
  const std::vector<uint8_t> expect =
      WouldClose(fin, t, in.queries, kHops, threads);
  size_t mismatches = 0;
  for (size_t i = 0; i < expect.size(); ++i) {
    if (expect[i] != pass->verdicts[i]) ++mismatches;
  }
  if (mismatches > 0) {
    pass->errors.push_back(std::to_string(mismatches) +
                           " admission verdicts disagree with the oracle");
  }
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Metric> EndToEnd(const Pass& p) {
  return {
      {"setup_s", Median(p.setup_s), "s"},
      {"solve_s", Median(p.solve_s), "s"},
      {"cover_size", static_cast<double>(p.cover.size()), "count"},
      {"ingest_eps", Median(p.ingest_eps), "1/s"},
      {"submit_p50_ms", Median(p.submit_s) * 1e3, "ms"},
      {"gate_p50_us", Median(p.gate_s) * 1e6, "us"},
      {"gate_p99_us", Percentile(p.gate_s, 0.99) * 1e6, "us"},
      {"admit_qps", Median(p.admit_qps), "1/s"},
      {"admit_batch_p50_ms", Median(p.admit_batch_s) * 1e3, "ms"},
      {"recover_s", Median(p.recover_s), "s"},
      {"transversal_size",
       static_cast<double>(p.image.cover_vertices.size() +
                           p.image.covered.size()),
       "count"},
      {"peak_rss_mb", p.peak_rss_mb, "MB"},
  };
}

double PassSeconds(const Pass& p) {
  double total = 0.0;
  for (const auto& [phase, s] : p.phase_s) total += s;
  return total;
}

std::vector<Metric> PerLayer(const Pass& p, const TraceFolder& folder,
                             const Pass& untraced) {
  auto self = [&](const char* span) { return folder.Total(span).self_s; };
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  const tdb::ServiceStatsSnapshot& a = p.before_replay;
  const tdb::ServiceStatsSnapshot& b = p.after_replay;
  const double probes = count(p.par_stats.intra_probes);
  const double overhead = PassSeconds(p) - PassSeconds(untraced);
  return {
      {"graph.load_s", Median(p.load_s), "s"},
      {"graph.condense_s", self("engine.condense"), "s"},
      {"graph.base_bytes", count(b.base_bytes), "bytes"},
      {"core.solve_s", self("engine.solve"), "s"},
      {"core.solve_in_place_s", self("engine.solve_in_place"), "s"},
      {"core.solve_tail_s", self("engine.solve_tail_batch"), "s"},
      {"core.solve_par_s", Median(p.solve_par_s), "s"},
      {"core.searches", count(p.solve_stats.searches), "count"},
      {"core.expansions", count(p.solve_stats.expansions), "count"},
      {"core.block_prunes", count(p.solve_stats.block_prunes), "count"},
      {"core.bfs_filtered", count(p.solve_stats.bfs_filtered), "count"},
      {"core.intra_probes", probes, "count"},
      {"core.intra_restarts", count(p.par_stats.intra_restarts), "count"},
      {"core.restart_ratio",
       probes > 0 ? count(p.par_stats.intra_restarts) / probes : 0.0,
       "ratio"},
      {"core.batch_augment_s", self("ingest.batch_augment"), "s"},
      {"core.path_queries", count(b.path_queries - a.path_queries), "count"},
      {"core.cycles_covered", count(b.cycles_covered - a.cycles_covered),
       "count"},
      {"core.prunes", count(b.prunes - a.prunes), "count"},
      {"search.gate_s", Median(p.gate_sum_s), "s"},
      {"search.gate_probed", count(p.gate_probed), "count"},
      {"search.admit_probed", count(p.admit_probed), "count"},
      {"search.admit_would_close", count(p.admit_would_close), "count"},
      {"search.admit_yield",
       p.admit_probed > 0
           ? count(p.admit_would_close) / count(p.admit_probed)
           : 0.0,
       "ratio"},
      {"service.submit_s", Median(p.submit_sum_s), "s"},
      {"service.publish_s", self("service.publish"), "s"},
      {"service.epochs", count(b.epochs_published - a.epochs_published),
       "count"},
      {"service.compact_s", folder.Total("service.compact_solve").inclusive_s,
       "s"},
      {"service.compact_rebuild_s", self("service.compact_solve"), "s"},
      {"service.compact_install_s", self("service.compact_install"), "s"},
      {"service.compactions", count(b.compactions - a.compactions), "count"},
      {"service.journal_append_s", self("journal.append"), "s"},
      {"service.journal_fsync_s", self("journal.fsync"), "s"},
      {"service.journal_records", count(b.journal_records - a.journal_records),
       "count"},
      {"service.snapshot_write_s", self("snapshot.write"), "s"},
      {"service.store_bytes", count(p.store_bytes), "bytes"},
      {"service.snapshot_read_s", self("snapshot.read"), "s"},
      {"service.replayed_batches", count(p.replayed_batches), "count"},
      {"trace.spans", count(folder.spans()), "count"},
      {"trace.overhead_s", overhead, "s"},
      {"trace.overhead_pct", 100.0 * overhead / PassSeconds(untraced), "%"},
  };
}

void PrintBreakdown(const TraceFolder& folder, const Pass& traced,
                    const Pass& untraced) {
  std::fprintf(stderr, "ledger: traced self-time by phase\n");
  for (const auto& [phase, spans] : folder.phases()) {
    const auto traced_it = traced.phase_s.find(phase);
    const auto plain_it = untraced.phase_s.find(phase);
    std::fprintf(stderr, "  %-10s traced %.4f s, untraced %.4f s\n",
                 phase.c_str(),
                 traced_it != traced.phase_s.end() ? traced_it->second : 0.0,
                 plain_it != untraced.phase_s.end() ? plain_it->second : 0.0);
    std::vector<std::pair<std::string, SpanTotals>> rows(spans.begin(),
                                                         spans.end());
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      return x.second.self_s > y.second.self_s;
    });
    for (const auto& [name, t] : rows) {
      std::fprintf(stderr, "    %-26s n=%-7llu self %.4f s  incl %.4f s\n",
                   name.c_str(), static_cast<unsigned long long>(t.count),
                   t.self_s, t.inclusive_s);
    }
  }
}

void PrintResult(bool correct, const Pass& p,
                 const std::vector<Metric>& metrics) {
  std::fprintf(stderr,
               "ledger: replay gated %llu events, dropped %llu, %llu "
               "compactions; recovery replayed %llu batches\n",
               static_cast<unsigned long long>(p.stream_events),
               static_cast<unsigned long long>(p.dropped),
               static_cast<unsigned long long>(p.after_replay.compactions -
                                               p.before_replay.compactions),
               static_cast<unsigned long long>(p.replayed_batches));
  for (const auto& [phase, s] : p.phase_s) {
    std::fprintf(stderr, "ledger: phase %-10s %.3f s\n", phase.c_str(), s);
  }
  auto samples = [](const char* name, const std::vector<double>& v) {
    std::fprintf(stderr, "ledger: samples %-12s", name);
    for (const double x : v) std::fprintf(stderr, " %.4g", x);
    std::fprintf(stderr, "\n");
  };
  std::fprintf(stderr,
               "ledger: %d pipelines; peak RSS %.1f MB after the first "
               "pipeline's service phases, %.1f MB after every phase\n",
               p.reps, p.peak_rss_mb, p.final_peak_rss_mb);
  samples("setup_s", p.setup_s);
  samples("solve_s", p.solve_s);
  samples("solve_par_s", p.solve_par_s);
  samples("recover_s", p.recover_s);
  samples("ingest_eps", p.ingest_eps);
  samples("admit_qps", p.admit_qps);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const auto& [kind, ops] : p.ops) {
    std::fprintf(stderr, "ledger: %-18s attempted %llu failed %llu\n",
                 kind.c_str(), static_cast<unsigned long long>(ops.attempted),
                 static_cast<unsigned long long>(ops.failed));
    attempted += ops.attempted;
    failed += ops.failed;
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "ledger: %-28s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string mode;
  std::string workload;
  std::string dir;
  uint64_t seed = 1;
  double seconds = 0.0;
  int trace = 0;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) Die("usage: ledger_bench gen|run --workload W --seed N ...");
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.dir.empty()) Die("--dir is required");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Die("unknown workload '" + args.workload + "'");
  if (args.mode == "gen") {
    CheckOk(GenerateInputs(*w, args.seed, args.dir), "generate inputs");
    return 0;
  }
  if (args.mode != "run") Die("unknown mode " + args.mode);

  Inputs in;
  in.workload = w;
  in.dir = args.dir;
  CheckOk(tdb::LoadEdgeStreamText(StreamPath(in.dir), &in.stream),
          "load stream");
  CheckOk(LoadQueries(QueryPath(in.dir), &in.queries), "load queries");

  if (args.trace == 0) {
    PassConfig cfg;
    cfg.min_reps = kMinReps;
    cfg.measure_seconds = args.seconds;
    Pass pass = RunPass(in, cfg, nullptr);
    const Clock::time_point checks = Clock::now();
    CheckOutputs(in, args.seed, &pass);
    std::fprintf(stderr, "ledger: checks took %.2f s\n",
                 Seconds(checks, Clock::now()));
    for (const std::string& e : pass.errors) {
      std::fprintf(stderr, "ledger: CHECK FAILED: %s\n", e.c_str());
    }
    PrintResult(pass.errors.empty(), pass, EndToEnd(pass));
    return 0;
  }

  // Traced run: one plain pass, then the same pass with the tracer on.
  const PassConfig once;
  const Pass untraced = RunPass(in, once, nullptr);
  TraceFolder folder(in.dir + "/trace.json");
  tdb::trace::SetEnabled(true);
  Pass traced = RunPass(in, once, &folder);
  tdb::trace::SetEnabled(false);
  CheckOutputs(in, args.seed, &traced);
  for (const std::string& e : untraced.errors) traced.errors.push_back(e);
  for (const std::string& e : traced.errors) {
    std::fprintf(stderr, "ledger: CHECK FAILED: %s\n", e.c_str());
  }
  PrintBreakdown(folder, traced, untraced);
  PrintResult(traced.errors.empty(), traced,
              PerLayer(traced, folder, untraced));
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
