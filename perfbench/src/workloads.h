/// \file workloads.h
/// \brief The three benchmark workloads behind one interface.
///
/// A run repeats whole rounds of one workload until its measuring time is
/// spent. Every round issues the same seeded operations against freshly
/// built state, so a faster commit does the same work per round, not more:
/// writes that grow the fields grow them identically in every round.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// End-to-end figures of one round.
struct Round {
  double setup_s = 0.0;    ///< start until the first operation can be issued
  double ops_per_s = 0.0;  ///< ok operations per second, throughput phase
  double busy_s = 0.0;     ///< wall time of the throughput phase
  std::vector<double> latency_ms;  ///< one per op of the latency phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Share of the machine's CPU time stolen by the host during the round.
  double steal_share = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Run one round. With `trace` non-null, spans are recorded through the
  /// layer decorators and the round's per-layer metrics go to `layers`.
  virtual Round round(SpanLog* trace, LayerMetrics* layers,
                      Result& result) = 0;
  /// Checks made once per run, outside every timed phase.
  virtual void run_checks(Result& result) = 0;
  /// Feed the verifiers deliberately perturbed outputs; each must fail.
  virtual void self_test_perturbations(Result& result) = 0;
  /// Digest of the generated inputs (same seed, same digest).
  virtual std::uint64_t input_digest() const = 0;
  /// One line on the make-up of the inputs.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_paper_sweep(const RunOptions& options);
std::unique_ptr<Workload> make_serve_points(const RunOptions& options);
std::unique_ptr<Workload> make_route_mixed(const RunOptions& options);

}  // namespace perfbench
