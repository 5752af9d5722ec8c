// Shared pieces of the kgwas benchmark harness: workload definitions, the
// in-memory span log of the traced run, and the four pipeline drivers
// (shared-memory / distributed, untraced / traced).
//
// Every layer is measured from outside, by timing calls into its public
// functions; nothing here reaches into the library's internals.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dist/communicator.hpp"
#include "gwas/dataset.hpp"
#include "krr/model.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Problem size shared by every workload.  `tiny` shrinks it for the
/// harness's own tests; the benchmark always runs the full size.
struct Sizes {
  std::size_t patients = 10240;  ///< split 80/20 into 8192 train, 2048 test
  std::size_t snps = 48;
  std::size_t tile = 256;
  std::size_t workers = 4;  ///< shared-memory Runtime workers
  int ranks = 4;            ///< dist4_mixed ranks, one worker each
  /// Predict runs per untraced pass: Predict is ~10x shorter than a fit,
  /// so it is repeated to give predict_s as many samples.
  int predict_reps = 3;

  static Sizes tiny() {
    Sizes s;
    s.patients = 640;
    s.tile = 64;
    return s;
  }
};

struct Workload {
  std::string name;
  bool dist = false;
  kgwas::PrecisionMode mode = kgwas::PrecisionMode::kFixed;
  /// Gate: the run fails when the backward error reaches this bound.
  double backward_error_bound = 0.0;
};

/// The three workloads; throws kgwas::InvalidArgument on an unknown name.
Workload find_workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// The KRR configuration every workload shares, at the workload's
/// precision mode: tile from `sizes`, alpha = 0.5, median-heuristic gamma,
/// adaptive candidates {FP16, FP8-E4M3} at epsilon = 2e-3, no TLR.
kgwas::KrrConfig krr_config(const Workload& workload, const Sizes& sizes);

/// What one Build -> Associate -> Predict pass produced.
struct FitOutput {
  kgwas::Matrix<float> weights;
  kgwas::Matrix<float> predictions;
  double gamma = 0.0;
  std::size_t factor_bytes = 0;
  kgwas::PrecisionMap map;
  int attempts = 0;
  double fit_s = 0.0;      ///< gamma + Build + Associate
  double predict_s = 0.0;  ///< cross-kernel + predict GEMM (median of reps)
};

/// Median of a sample (0 when empty).
double median(std::vector<double> v);

bool bitwise_equal(const kgwas::Matrix<float>& a,
                   const kgwas::Matrix<float>& b);

// ------------------------------------------------------------------ spans

/// One timed call into a layer.  Spans of one pipeline pass share `pass`;
/// `parent` is 0 for a root span.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t pass = 0;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span log; written out once, when the run ends.  Single
/// thread only (the dist pipeline records from rank 0).
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  std::uint64_t open(const std::string& name, std::uint64_t parent,
                     std::uint64_t pass);
  void close(std::uint64_t id);

  /// Runs `fn` inside a span named `name`.
  template <class Fn>
  void time(const std::string& name, std::uint64_t parent, std::uint64_t pass,
            Fn&& fn) {
    const std::uint64_t id = open(name, parent, pass);
    fn();
    close(id);
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Duration of the named span of pass `pass` (0 when absent).
  double seconds(const std::string& name, std::uint64_t pass) const;

 private:
  std::uint64_t now_ns() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- pipelines

/// Per-pass counters a traced pass collects besides its spans.
struct TracedPass {
  std::map<std::string, kgwas::TaskStats> task_stats;  ///< summed over ranks
  std::uint64_t steals = 0;
  kgwas::BatchStats batch;  ///< summed over ranks
  double busy_s = 0.0;      ///< all task time, summed over ranks
  double rank_busy_imbalance = 1.0;
  kgwas::dist::WireVolume wire;  ///< dist only: world total of the pass
  double recv_wait_s = 0.0;      ///< dist only: summed recv durations
  std::vector<kgwas::telemetry::TraceStream> streams;  ///< one per rank
};

/// Shared-memory pipeline through the user-facing KrrModel API, with
/// `sizes.predict_reps` Predict runs; throws kgwas::Error when they
/// disagree bitwise.
FitOutput run_shared(kgwas::Runtime& runtime, const kgwas::TrainTestSplit& data,
                     const kgwas::KrrConfig& config, const Sizes& sizes);

/// Shared-memory pipeline one public layer call at a time, each inside a
/// span of `log` under pass `pass`.  Bitwise the same result as
/// run_shared.
FitOutput run_shared_traced(kgwas::Runtime& runtime,
                            const kgwas::TrainTestSplit& data,
                            const kgwas::KrrConfig& config, SpanLog& log,
                            std::uint64_t pass, TracedPass& counters);

/// Distributed pipeline, repeated inside one in-process world of
/// `sizes.ranks` ranks until `keep_going(pass)` (evaluated on rank 0
/// before each pass) returns false.  Each rank runs a Runtime of one
/// worker.  Untraced passes run Predict `sizes.predict_reps` times, as
/// run_shared does.  `on_pass` receives rank 0's output of every pass.
/// When `log` is non-null the passes run traced: one public dist call at
/// a time, each between barriers, with a span on rank 0 and per-pass
/// counters appended to `traced`.
void run_dist(const kgwas::TrainTestSplit& data,
              const kgwas::KrrConfig& config, const Sizes& sizes,
              const std::function<bool(std::uint64_t)>& keep_going,
              const std::function<void(FitOutput&&)>& on_pass, SpanLog* log,
              std::vector<TracedPass>* traced);

}  // namespace perfbench
