// The benchmark's four pipeline drivers.  The untraced drivers go through
// the user-facing entry points (KrrModel, dist_associate); the traced ones
// call the same layers one public function at a time so each call gets a
// span, and must stay bitwise equal to their untraced twin (main.cpp
// checks that on every traced run).
#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <utility>

#include "dist/dist_krr.hpp"
#include "harness.hpp"
#include "krr/associate.hpp"
#include "krr/build.hpp"
#include "krr/kernels.hpp"
#include "krr/predict.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tiled_cholesky.hpp"

namespace perfbench {

using namespace kgwas;

Workload find_workload(const std::string& name) {
  // Backward-error gates are the accuracy each mode promises, not what
  // it happens to reach: FP32 rounding (far below n * u_fp32) for the
  // fixed mode, the adaptive policy's epsilon for the mixed ones.
  if (name == "fp32_narrow") {
    return {name, false, PrecisionMode::kFixed, 1e-5};
  }
  if (name == "mixed_narrow") {
    return {name, false, PrecisionMode::kAdaptive, 2e-3};
  }
  if (name == "dist4_mixed") {
    return {name, true, PrecisionMode::kAdaptive, 2e-3};
  }
  throw InvalidArgument("unknown workload '" + name + "'");
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fp32_narrow", "mixed_narrow",
                                              "dist4_mixed"};
  return names;
}

KrrConfig krr_config(const Workload& workload, const Sizes& sizes) {
  KrrConfig config;
  config.build.tile_size = sizes.tile;
  config.auto_gamma_scale = 1.0;
  config.associate.alpha = 0.5;
  config.associate.mode = workload.mode;
  config.associate.adaptive.epsilon = 2e-3;
  config.associate.adaptive.working = Precision::kFp32;
  config.associate.adaptive.available = {Precision::kFp16,
                                         Precision::kFp8E4M3};
  config.associate.tlr = TlrPolicy{};
  return config;
}

// ------------------------------------------------------------------ spans

std::uint64_t SpanLog::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

std::uint64_t SpanLog::open(const std::string& name, std::uint64_t parent,
                            std::uint64_t pass) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.pass = pass;
  span.name = name;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::close(std::uint64_t id) { spans_.at(id - 1).end_ns = now_ns(); }

double SpanLog::seconds(const std::string& name, std::uint64_t pass) const {
  for (const Span& span : spans_) {
    if (span.pass == pass && span.name == name) return span.seconds();
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

bool bitwise_equal(const Matrix<float>& a, const Matrix<float>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// -------------------------------------------------------------- helpers

namespace {

/// Runs `predict` `reps` times, keeping the first result in
/// `out.predictions` and the median time in `out.predict_s`.
template <class Fn>
void repeat_predict(int reps, FitOutput& out, Fn&& predict) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    Matrix<float> predictions = predict();
    times.push_back(seconds_since(t0));
    if (rep == 0) {
      out.predictions = std::move(predictions);
    } else if (!bitwise_equal(predictions, out.predictions)) {
      throw Error("repeated Predict runs differ bitwise");
    }
  }
  out.predict_s = median(times);
}

/// Same median-heuristic bandwidth KrrModel::fit and run_dist_krr derive.
double median_gamma(const GwasDataset& train, const KrrConfig& config) {
  const auto& g = train.genotypes.matrix();
  return *config.auto_gamma_scale *
         suggest_gamma(std::span<const std::int8_t>(g.data(), g.size()),
                       train.patients(), train.snps());
}

dist::WireVolume operator-(const dist::WireVolume& a,
                           const dist::WireVolume& b) {
  dist::WireVolume d;
  d.messages = a.messages - b.messages;
  d.payload_bytes = a.payload_bytes - b.payload_bytes;
  for (std::size_t p = 0; p < d.tile_payload_bytes.size(); ++p) {
    d.tile_payload_bytes[p] = a.tile_payload_bytes[p] - b.tile_payload_bytes[p];
  }
  return d;
}

dist::WireVolume& operator+=(dist::WireVolume& a, const dist::WireVolume& b) {
  a.messages += b.messages;
  a.payload_bytes += b.payload_bytes;
  for (std::size_t p = 0; p < a.tile_payload_bytes.size(); ++p) {
    a.tile_payload_bytes[p] += b.tile_payload_bytes[p];
  }
  return a;
}

double busy_seconds(const std::map<std::string, TaskStats>& stats) {
  double busy = 0.0;
  for (const auto& [name, s] : stats) busy += s.total_seconds;
  return busy;
}

/// One rank's counters of one traced pass.
struct RankPass {
  std::map<std::string, TaskStats> task_stats;
  std::uint64_t steals = 0;
  BatchStats batch;
  dist::WireVolume wire;
  double recv_wait_s = 0.0;
  telemetry::TraceStream stream;
};

BatchStats batch_delta(const BatchStats& after, const BatchStats& before) {
  BatchStats d;
  d.groups = after.groups - before.groups;
  d.batched_tasks = after.batched_tasks - before.batched_tasks;
  return d;
}

/// Folds the per-rank counters of one pass into the pass totals.
TracedPass fold_ranks(std::vector<RankPass>& ranks) {
  TracedPass pass;
  double max_busy = 0.0;
  for (RankPass& r : ranks) {
    for (const auto& [name, s] : r.task_stats) {
      TaskStats& t = pass.task_stats[name];
      t.count += s.count;
      t.total_seconds += s.total_seconds;
      t.flops += s.flops;
    }
    const double busy = busy_seconds(r.task_stats);
    pass.busy_s += busy;
    max_busy = std::max(max_busy, busy);
    pass.steals += r.steals;
    pass.batch.groups += r.batch.groups;
    pass.batch.batched_tasks += r.batch.batched_tasks;
    pass.wire += r.wire;
    pass.recv_wait_s += r.recv_wait_s;
    pass.streams.push_back(std::move(r.stream));
  }
  const double mean_busy = pass.busy_s / static_cast<double>(ranks.size());
  pass.rank_busy_imbalance = mean_busy > 0.0 ? max_busy / mean_busy : 1.0;
  return pass;
}

}  // namespace

// ---------------------------------------------------------- shared memory

FitOutput run_shared(Runtime& runtime, const TrainTestSplit& data,
                     const KrrConfig& config, const Sizes& sizes) {
  FitOutput out;
  const Clock::time_point t0 = Clock::now();
  KrrModel model;
  model.fit(runtime, data.train, config);
  out.fit_s = seconds_since(t0);
  repeat_predict(sizes.predict_reps, out,
                 [&] { return model.predict(runtime, data.test); });
  out.weights = model.weights();
  out.gamma = model.gamma();
  out.factor_bytes = model.factor_bytes();
  out.map = model.precision_map();
  return out;
}

FitOutput run_shared_traced(Runtime& runtime, const TrainTestSplit& data,
                            const KrrConfig& config, SpanLog& log,
                            std::uint64_t pass, TracedPass& counters) {
  const GwasDataset& train = data.train;
  const GwasDataset& test = data.test;
  KrrConfig cfg = config;
  FitOutput out;
  runtime.reset_profiling();
  const BatchStats batch0 = runtime.batch_stats();

  // Same call sequence as KrrModel::fit -> associate (kThrow, no TLR)
  // and KrrModel::predict.
  const std::uint64_t root = log.open("pipeline", 0, pass);
  const std::uint64_t fit = log.open("fit", root, pass);
  log.time("krr.gamma", fit, pass,
           [&] { cfg.build.gamma = median_gamma(train, cfg); });
  SymmetricTileMatrix k;
  log.time("krr.build", fit, pass, [&] {
    k = build_kernel_matrix(runtime, train.genotypes, train.confounders,
                            cfg.build);
  });
  const std::uint64_t assoc = log.open("associate", fit, pass);
  log.time("tile.add_diagonal", assoc, pass, [&] {
    add_diagonal(k, static_cast<float>(cfg.associate.alpha));
  });
  log.time("linalg.plan", assoc, pass,
           [&] { out.map = plan_precision_map(k, cfg.associate); });
  log.time("tile.apply", assoc, pass, [&] {
    out.map.apply(k);
    out.factor_bytes = k.storage_bytes();
  });
  FactorizationReport report;
  TiledPotrfOptions options;
  options.on_breakdown = cfg.associate.on_breakdown;
  options.max_escalations = cfg.associate.max_escalations;
  options.report = &report;
  log.time("linalg.potrf", assoc, pass,
           [&] { tiled_potrf(runtime, k, options); });
  out.attempts = report.attempts;
  log.time("linalg.potrs", assoc, pass, [&] {
    out.weights = train.phenotypes;
    tiled_potrs(runtime, k, out.weights);
  });
  log.close(assoc);
  log.close(fit);
  k = SymmetricTileMatrix();  // the model keeps only the weights

  const std::uint64_t predict = log.open("predict", root, pass);
  TileMatrix cross;
  log.time("krr.cross_kernel", predict, pass, [&] {
    cross = build_cross_kernel(runtime, test.genotypes, test.confounders,
                               train.genotypes, train.confounders, cfg.build);
  });
  log.time("krr.predict_gemm", predict, pass, [&] {
    out.predictions = predict_from_cross_kernel(runtime, cross, out.weights);
  });
  log.close(predict);
  log.close(root);

  out.gamma = cfg.build.gamma;
  out.fit_s = log.seconds("fit", pass);
  out.predict_s = log.seconds("predict", pass);

  std::vector<RankPass> ranks(1);
  ranks[0].task_stats = runtime.profiler().stats();
  ranks[0].steals = runtime.profiler().scheduler_stats().tasks_stolen;
  ranks[0].batch = batch_delta(runtime.batch_stats(), batch0);
  ranks[0].stream = telemetry::capture_stream(0, runtime.profiler());
  counters = fold_ranks(ranks);
  return out;
}

// ------------------------------------------------------------ distributed

namespace {

/// The untraced distributed pass: the public dist pipeline as
/// run_dist_krr drives it, timed on rank 0 between barriers.
FitOutput dist_pass(Runtime& runtime, dist::Communicator& comm,
                    const TrainTestSplit& data, const KrrConfig& config,
                    int predict_reps) {
  const GwasDataset& train = data.train;
  const GwasDataset& test = data.test;
  const ProcessGrid grid(comm.size());
  FitOutput out;
  comm.barrier();
  const Clock::time_point t0 = Clock::now();
  KrrConfig cfg = config;
  cfg.build.gamma = median_gamma(train, cfg);
  dist::DistSymmetricTileMatrix k = dist::dist_build_kernel_matrix(
      runtime, comm, grid, train.genotypes, train.confounders, cfg.build);
  AssociateResult assoc = dist::dist_associate(runtime, comm, k,
                                               train.phenotypes, cfg.associate);
  comm.barrier();
  out.fit_s = seconds_since(t0);
  repeat_predict(predict_reps, out, [&] {
    dist::DistTileMatrix cross = dist::dist_build_cross_kernel(
        runtime, comm, grid, test.genotypes, test.confounders,
        train.genotypes, train.confounders, cfg.build);
    Matrix<float> predictions =
        dist::dist_predict(runtime, comm, cross, assoc.weights);
    comm.barrier();
    return predictions;
  });
  out.weights = std::move(assoc.weights);
  out.gamma = cfg.build.gamma;
  out.factor_bytes = assoc.factor_bytes;
  out.map = std::move(assoc.map);
  out.attempts = assoc.report.attempts;
  return out;
}

/// The traced distributed pass: dist_associate unrolled into its public
/// steps, every call between barriers and (on rank 0) inside a span.
FitOutput dist_pass_traced(Runtime& runtime, dist::Communicator& comm,
                           const TrainTestSplit& data, const KrrConfig& config,
                           SpanLog* log, std::uint64_t pass) {
  const GwasDataset& train = data.train;
  const GwasDataset& test = data.test;
  const ProcessGrid grid(comm.size());
  const bool record = comm.rank() == 0;
  auto open = [&](const char* name, std::uint64_t parent) {
    return record ? log->open(name, parent, pass) : 0;
  };
  auto close = [&](std::uint64_t id) {
    if (record) log->close(id);
  };
  auto step = [&](const char* name, std::uint64_t parent, auto&& fn) {
    const std::uint64_t id = open(name, parent);
    fn();
    comm.barrier();
    close(id);
  };

  KrrConfig cfg = config;
  FitOutput out;
  comm.barrier();
  const std::uint64_t root = open("pipeline", 0);
  const std::uint64_t fit = open("fit", root);
  step("krr.gamma", fit, [&] { cfg.build.gamma = median_gamma(train, cfg); });
  std::optional<dist::DistSymmetricTileMatrix> kernel;
  step("krr.build", fit, [&] {
    kernel.emplace(dist::dist_build_kernel_matrix(
        runtime, comm, grid, train.genotypes, train.confounders, cfg.build));
  });
  dist::DistSymmetricTileMatrix& k = *kernel;
  const std::uint64_t assoc = open("associate", fit);
  // dist_associate's prologue regularizes the owned diagonal tiles the
  // same way add_diagonal does on a shared-memory matrix.
  step("tile.add_diagonal", assoc, [&] {
    for (std::size_t t = 0; t < k.tile_count(); ++t) {
      if (!k.is_local(t, t)) continue;
      Tile& tile = k.tile(t, t);
      Matrix<float> values = tile.to_fp32();
      for (std::size_t i = 0; i < values.rows(); ++i) {
        values(i, i) += static_cast<float>(cfg.associate.alpha);
      }
      tile.from_fp32(values);
    }
  });
  step("linalg.plan", assoc, [&] {
    out.map = dist::dist_plan_precision_map(comm, k, cfg.associate);
  });
  step("tile.apply", assoc, [&] {
    k.apply(out.map);
    out.factor_bytes = map_storage_bytes(out.map, k.n(), k.tile_size());
  });
  FactorizationReport report;
  dist::DistPotrfOptions options;
  options.precision_map = &out.map;
  options.on_breakdown = cfg.associate.on_breakdown;
  options.max_escalations = cfg.associate.max_escalations;
  options.report = &report;
  step("linalg.potrf", assoc,
       [&] { dist::dist_tiled_potrf(runtime, comm, k, options); });
  out.attempts = report.attempts;
  step("linalg.potrs", assoc, [&] {
    out.weights = train.phenotypes;
    dist::dist_tiled_potrs(runtime, comm, k, out.weights);
  });
  close(assoc);
  close(fit);

  const std::uint64_t predict = open("predict", root);
  kernel.reset();  // the model keeps only the weights
  std::optional<dist::DistTileMatrix> cross;
  step("krr.cross_kernel", predict, [&] {
    cross.emplace(dist::dist_build_cross_kernel(
        runtime, comm, grid, test.genotypes, test.confounders,
        train.genotypes, train.confounders, cfg.build));
  });
  step("krr.predict_gemm", predict, [&] {
    out.predictions = dist::dist_predict(runtime, comm, *cross, out.weights);
  });
  close(predict);
  close(root);
  out.gamma = cfg.build.gamma;
  if (record) {
    out.fit_s = log->seconds("fit", pass);
    out.predict_s = log->seconds("predict", pass);
  }
  return out;
}

}  // namespace

void run_dist(const TrainTestSplit& data, const KrrConfig& config,
              const Sizes& sizes,
              const std::function<bool(std::uint64_t)>& keep_going,
              const std::function<void(FitOutput&&)>& on_pass, SpanLog* log,
              std::vector<TracedPass>* traced) {
  const bool tracing = log != nullptr;
  // [rank][pass]; each rank thread writes only its own row.
  std::vector<std::vector<RankPass>> rank_passes(
      static_cast<std::size_t>(sizes.ranks));
  dist::run_ranks(sizes.ranks, [&](dist::Communicator& comm) {
    Runtime runtime(1, /*enable_profiling=*/tracing);
    runtime.profiler().set_rank(comm.rank());
    comm.set_event_recording(tracing);
    auto& mine = rank_passes[static_cast<std::size_t>(comm.rank())];
    for (std::uint64_t pass = 0;; ++pass) {
      std::vector<std::byte> go(1);
      if (comm.rank() == 0) {
        go[0] = static_cast<std::byte>(keep_going(pass) ? 1 : 0);
      }
      comm.broadcast(0, go);
      if (go[0] == std::byte{0}) break;
      if (!tracing) {
        FitOutput out =
            dist_pass(runtime, comm, data, config, sizes.predict_reps);
        if (comm.rank() == 0) on_pass(std::move(out));
        continue;
      }
      runtime.reset_profiling();
      comm.clear_comm_events();
      const BatchStats batch0 = runtime.batch_stats();
      const dist::WireVolume wire0 = comm.wire_volume();
      FitOutput out = dist_pass_traced(runtime, comm, data, config, log, pass);
      RankPass r;
      r.wire = comm.wire_volume() - wire0;
      r.batch = batch_delta(runtime.batch_stats(), batch0);
      r.task_stats = runtime.profiler().stats();
      r.steals = runtime.profiler().scheduler_stats().tasks_stolen;
      r.stream = telemetry::capture_stream(comm.rank(), runtime.profiler());
      r.stream.comm = comm.comm_events();
      for (const telemetry::CommEvent& e : r.stream.comm) {
        if (e.is_send) continue;
        r.recv_wait_s += static_cast<double>(e.end_ns - e.start_ns) * 1e-9;
      }
      mine.push_back(std::move(r));
      if (comm.rank() == 0) on_pass(std::move(out));
    }
  });
  if (!tracing) return;
  const std::size_t passes = rank_passes[0].size();
  for (std::size_t p = 0; p < passes; ++p) {
    std::vector<RankPass> ranks;
    for (auto& row : rank_passes) ranks.push_back(std::move(row.at(p)));
    traced->push_back(fold_ranks(ranks));
  }
}

}  // namespace perfbench
