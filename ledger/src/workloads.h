// Workload definitions of the end-to-end ledger and the input generator.
//
// Every input is made at run time from the seed passed to the benchmark:
// one power-law graph (graph/generators.h), a seeded shuffle of its
// edges that splits it into a base and a held-out stream, and a fixed
// admission query set. Nothing is committed as data.
#ifndef LEDGER_WORKLOADS_H_
#define LEDGER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "graph/types.h"
#include "util/status.h"

namespace ledger {

/// Hop constraint, ingest batch and compaction settings shared by every
/// workload (see README.md for why each is fixed).
inline constexpr uint32_t kHops = 5;
inline constexpr size_t kIngestBatch = 256;
inline constexpr tdb::EdgeId kCompactThreshold = 4096;
inline constexpr size_t kAdmitBatch = 128;

struct Workload {
  std::string name;
  /// Generator parameters. The graph's seed is fixed per workload, as
  /// the repository's dataset proxies do; the command-line seed drives
  /// the arrival order (hence the base/stream split) and the queries.
  uint64_t graph_seed = 0;
  tdb::VertexId n = 0;
  tdb::EdgeId m = 0;
  double theta = 0.0;
  double reciprocity = 0.0;
  /// Share of the shuffled edges held out as the stream.
  double stream_share = 0.0;
  /// The replay feeds the stream until exactly this many batches are
  /// submitted, so every seed gets the same compactions (one per 16
  /// batches) and the same journal tail for recovery, whatever the gate
  /// dropped.
  uint64_t replay_batches = 0;
  /// Serve (and solve) from the delta/varint CompressedCsr backend.
  bool compressed_base = false;
  /// Within one pipeline: Opens of the closed store, and whole rounds
  /// of the query set.
  int recover_reps = 1;
  int admit_rounds = 1;
  /// Admission queries per round (half uniform, half reversed walks).
  uint32_t queries = 0;
  /// Input shape gates, checked before anything is timed (0 = none).
  double min_giant_scc_share = 0.0;
  double min_compression = 0.0;
};

/// The three workloads, in BENCHMARK.json order.
const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(const std::string& name);

/// File names of the generated inputs inside a work directory.
std::string FullGraphPath(const std::string& dir);
std::string BaseGraphPath(const std::string& dir);
std::string StreamPath(const std::string& dir);
std::string QueryPath(const std::string& dir);

/// Generates the workload's inputs for `seed` into `dir` (full graph and
/// base as TDBG, stream as "u v t" text, queries as "u v" text) after
/// checking their shape. Deterministic in (workload, seed).
tdb::Status GenerateInputs(const Workload& w, uint64_t seed,
                           const std::string& dir);

/// Reads a query file written by GenerateInputs.
tdb::Status LoadQueries(const std::string& path,
                        std::vector<tdb::Edge>* queries);

}  // namespace ledger

#endif  // LEDGER_WORKLOADS_H_
