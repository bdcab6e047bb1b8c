#pragma once

/// \file bench.hpp
/// Shared types of the benchmark driver: workload specifications, the
/// records one driver call leaves behind, and the hand-driven ("traced")
/// replicas of the library's single-call drivers.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/batch.hpp"
#include "dist/driver.hpp"
#include "dist/layout.hpp"
#include "elastic/elastic.hpp"
#include "graph/partition.hpp"
#include "ledger.hpp"
#include "sparse/csr.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using dsouth::dist::DistMethod;
using dsouth::sparse::CsrMatrix;
using dsouth::sparse::index_t;
using dsouth::sparse::value_t;

enum class Driver {
  kSolve,    ///< dist::run_distributed, one call per solver
  kBatch,    ///< dist::run_distributed_batch, one call per batch
  kElastic,  ///< elastic::run_elastic, one call per solver
};

struct WorkloadSpec {
  std::string name;
  std::string why;
  Driver driver = Driver::kSolve;
  std::string matrix;
  double size_factor = 1.0;
  int ranks = 0;
  std::vector<DistMethod> methods;  ///< per call; rotated across batches
  double target = 0.0;              ///< stop at ‖r‖₂ <= target ...
  index_t max_steps = 0;            ///< ... or after this many steps
  int threads = 0;                  ///< > 0: thread-pool backend
  // Batched serving (Driver::kBatch).
  int batches = 0;
  int tenants = 0;
  int variants = 0;  ///< coefficient variants besides the base matrix
  // Elastic (Driver::kElastic).
  bool kills = false;  ///< rank 3 dies at epoch 12, rank 129 at epoch 24
  bool async = false;
  bool message_faults = false;
};

/// Every random input of a run, derived from the one --seed value.
struct Seeds {
  std::uint64_t x0 = 0;
  std::uint64_t variants = 0;
  std::uint64_t tenants = 0;
  std::uint64_t faults = 0;
  std::uint64_t latency = 0;
};

/// What setup builds, up to the first solve call.
struct Problem {
  CsrMatrix a;
  dsouth::graph::Partition part;
  std::unique_ptr<dsouth::dist::DistLayout> layout;
  std::vector<CsrMatrix> variants;  ///< tenant coefficient variants
  std::vector<std::unique_ptr<dsouth::dist::DistLayout>> variant_layouts;
  std::vector<value_t> b;   ///< zeros (the paper's protocol)
  /// One initial guess per input set: seeded, scaled to ‖r⁰‖₂ = 1.
  std::vector<std::vector<value_t>> x0;
};

/// One solved system (a solver's solve, or one tenant of a batch).
struct SystemRecord {
  std::vector<double> residual_norm;  ///< recorded series
  double recorded = 0.0;              ///< recorded final residual
  double recomputed = 0.0;            ///< ‖b − A x‖₂ from the final iterate
  std::vector<value_t> final_x;       ///< freed once checked
  std::uint64_t x_hash = 0;           ///< FNV-1a of final_x's bits
  bool ok = true;                     ///< passed every check
  std::string failure;                ///< first failed check, if any
};

/// One driver call: a solve, a batch, or an elastic solve.
struct CallRecord {
  std::string label;
  double host_s = 0.0;  ///< host time inside the call
  double model_s = 0.0;
  std::uint64_t msgs = 0;
  std::uint64_t msgs_logical = 0;
  std::uint64_t bytes = 0;
  std::uint64_t epochs = 0;
  index_t steps = 0;
  std::uint64_t relaxations = 0;
  std::uint64_t async_delivered = 0;
  std::uint64_t staleness_sum = 0;
  std::uint64_t msgs_dropped = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t checkpoint_bytes = 0;  ///< Σ encoded checkpoint sizes
  std::vector<SystemRecord> systems;
  std::shared_ptr<const dsouth::trace::TraceLog> trace_log;
  /// Traced runs only: the layout and final per-rank x and r of the first
  /// system, the real blocks and state the kernel probes sweep.
  std::shared_ptr<const dsouth::dist::DistLayout> state_layout;
  std::vector<std::vector<value_t>> rank_x, rank_r;
};

/// Run options shared by the timed and the traced path of a workload.
dsouth::dist::DistRunOptions run_options(const WorkloadSpec& w,
                                         const Seeds& s, bool sequential);
dsouth::elastic::RecoveryOptions recovery_options();

// --- Hand-driven replicas of the library drivers (traced runs). Each one
// makes exactly the public calls the library driver makes, in the same
// order, with a ledger span around each, so the records it returns equal
// the library driver's bit for bit.

CallRecord traced_solve(Ledger& l, DistMethod m,
                        const dsouth::dist::DistLayout& layout,
                        const std::vector<value_t>& b,
                        const std::vector<value_t>& x0,
                        const dsouth::dist::DistRunOptions& opt);

CallRecord traced_batch(Ledger& l, DistMethod m,
                        const std::vector<const dsouth::dist::DistLayout*>& layouts,
                        const std::vector<dsouth::dist::TenantSpec>& specs,
                        const dsouth::dist::DistRunOptions& opt);

CallRecord traced_elastic(Ledger& l, DistMethod m, const CsrMatrix& a,
                          const dsouth::graph::Partition& part,
                          const std::vector<value_t>& b,
                          const std::vector<value_t>& x0,
                          const dsouth::dist::DistRunOptions& opt,
                          const dsouth::elastic::RecoveryOptions& rec);

/// Fill a CallRecord's totals from a library result.
CallRecord record_of(const dsouth::dist::DistRunResult& r);
CallRecord record_of(const dsouth::dist::BatchRunResult& r);

}  // namespace perfbench
