// kgwas benchmark: one seeded UK-BioBank-like cohort through the KRR
// pipeline (Build -> Associate -> Predict) on one workload, with a
// correctness gate on every pass.
//
//   kgwas_bench --workload <fp32_narrow|mixed_narrow|dist4_mixed>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--tiny] [--corrupt-weight] [--trace-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that measures every layer from outside and
// writes its spans, Profiler data and comm events to
// <trace-dir>/trace_<workload>_seed<seed>.json.  The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; lines
// before it start with '#' and record the environment.  Exit status is 0
// only when every pass passed the gate.  See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/cli.hpp"
#include "common/status.hpp"
#include "harness.hpp"
#include "krr/associate.hpp"
#include "krr/build.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/cpu_features.hpp"
#include "mpblas/kernels.hpp"
#include "mpblas/mixed.hpp"
#include "telemetry/json.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace kgwas;

constexpr int kSetupReps = 9;
constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
  Workload workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_weight = false;
  std::string trace_dir = ".bench_out";
};

Options parse_options(int argc, char** argv) {
  const CliArgs args(argc, argv);
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    KGWAS_CHECK_ARG(args.has(required),
                    std::string("missing required flag --") + required);
  }
  Options o;
  o.workload = find_workload(args.get("workload", ""));
  const long seed = args.get_long("seed", -1);
  KGWAS_CHECK_ARG(seed >= 0, "--seed must be a non-negative integer");
  o.seed = static_cast<std::uint64_t>(seed);
  o.seconds = args.get_double("seconds", 0.0);
  KGWAS_CHECK_ARG(o.seconds > 0.0, "--seconds must be positive");
  const long trace = args.get_long("trace", -1);
  KGWAS_CHECK_ARG(trace == 0 || trace == 1, "--trace must be 0 or 1");
  o.trace = trace == 1;
  o.tiny = args.has("tiny");
  o.corrupt_weight = args.has("corrupt-weight");
  o.trace_dir = args.get("trace-dir", o.trace_dir);
  return o;
}

/// Environment pinning: KGWAS_* variables change the program (GEMM
/// blocking, batch size, dist workers), switch on TLR, or make associate
/// write telemetry files inside the timed region.
std::vector<std::string> kgwas_environment() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "KGWAS_", 6) == 0) {
      found.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  return found;
}

/// Nearest-rank percentile of a sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// "median=<m> samples=<n> p<q>=<v>": the highest of the usual percentiles
/// with at least ten samples beyond it, or "tail=none" when the sample is
/// too small for any.
std::string timing_summary(const std::vector<double>& samples) {
  std::ostringstream os;
  os << "median=" << median(samples) << " samples=" << samples.size();
  std::optional<double> tail;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
    if (static_cast<double>(samples.size()) * (1.0 - p / 100.0) >= 10.0) {
      tail = p;
    }
  }
  if (tail) {
    os << " p" << *tail << "=" << percentile(samples, *tail);
  } else {
    os << " tail=none (needs >= 20 samples)";
  }
  return os.str();
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double frobenius(const Matrix<float>& m) {
  double s = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    s += static_cast<double>(m.data()[i]) * m.data()[i];
  }
  return std::sqrt(s);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Mean held-out MSPE over the phenotypes.
double mean_mspe(const TrainTestSplit& data, const Matrix<float>& predictions) {
  const auto scores = evaluate_predictions(data.test.phenotypes, predictions,
                                           data.test.phenotype_names);
  double sum = 0.0;
  for (const auto& s : scores) sum += s.mspe;
  return sum / static_cast<double>(scores.size());
}

/// ||(K + alpha I) W - Ph||_F / (||K + alpha I||_F ||W||_F + ||Ph||_F),
/// against a freshly built FP32 kernel, accumulated in double.
double backward_error(Runtime& runtime, const TrainTestSplit& data,
                      const KrrConfig& config, const FitOutput& fit) {
  BuildConfig build = config.build;
  build.gamma = fit.gamma;
  SymmetricTileMatrix k = build_kernel_matrix(
      runtime, data.train.genotypes, data.train.confounders, build);
  add_diagonal(k, static_cast<float>(config.associate.alpha));
  const Matrix<float>& w = fit.weights;
  const Matrix<float>& ph = data.train.phenotypes;
  const std::size_t n = k.n();
  const std::size_t nrhs = w.cols();
  const std::size_t ts = k.tile_size();
  std::vector<double> r(n * nrhs);
  for (std::size_t c = 0; c < nrhs; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      r[c * n + i] = -static_cast<double>(ph(i, c));
    }
  }
  double a2 = 0.0;
  for (std::size_t tj = 0; tj < k.tile_count(); ++tj) {
    for (std::size_t ti = tj; ti < k.tile_count(); ++ti) {
      const Matrix<float> t = k.tile(ti, tj).to_fp32();
      const std::size_t r0 = ti * ts;
      const std::size_t c0 = tj * ts;
      for (std::size_t j = 0; j < t.cols(); ++j) {
        for (std::size_t i = 0; i < t.rows(); ++i) {
          const double v = t(i, j);
          a2 += (ti == tj ? 1.0 : 2.0) * v * v;
        }
      }
      for (std::size_t c = 0; c < nrhs; ++c) {
        double* rc = &r[c * n];
        for (std::size_t j = 0; j < t.cols(); ++j) {
          const double wj = w(c0 + j, c);
          double upper = 0.0;
          for (std::size_t i = 0; i < t.rows(); ++i) {
            const double v = t(i, j);
            rc[r0 + i] += v * wj;
            upper += v * w(r0 + i, c);
          }
          // The strictly-lower tile also stands for its transpose.
          if (ti != tj) rc[c0 + j] += upper;
        }
      }
    }
  }
  double r2 = 0.0;
  for (const double x : r) r2 += x * x;
  return std::sqrt(r2) / (std::sqrt(a2) * frobenius(w) + frobenius(ph));
}

// ------------------------------------------------------------------ setup

struct Setup {
  TrainTestSplit data;
  double setup_s = 0.0;
  double simulate_s = 0.0;
  double split_s = 0.0;
};

/// Cohort simulation + 80/20 split + Runtime (or world) construction,
/// repeated kSetupReps times; reports medians and keeps the last split.
Setup run_setup(const Options& o, const Sizes& sizes) {
  std::vector<double> total, simulate, split;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    GwasDataset dataset =
        bench::ukb_like_dataset(sizes.patients, sizes.snps, o.seed);
    const Clock::time_point t1 = Clock::now();
    s.data = split_dataset(dataset, 0.8, o.seed + 1);
    const Clock::time_point t2 = Clock::now();
    if (o.workload.dist) {
      dist::run_ranks(sizes.ranks, [](dist::Communicator& comm) {
        Runtime runtime(1);
        comm.barrier();
      });
    } else {
      Runtime runtime(sizes.workers);
    }
    total.push_back(seconds_since(t0));
    simulate.push_back(std::chrono::duration<double>(t1 - t0).count());
    split.push_back(std::chrono::duration<double>(t2 - t1).count());
  }
  s.setup_s = median(total);
  s.simulate_s = median(simulate);
  s.split_s = median(split);
  return s;
}

// ------------------------------------------------------------------- gate

/// Counts passes and the passes that failed the gate; prints why.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Checks one pass against the reference outputs; `what` names the
  /// reference for the message.
  void check_pass(const FitOutput& out, const FitOutput& ref,
                  const char* what) {
    ++attempted;
    if (!bitwise_equal(out.weights, ref.weights) ||
        !bitwise_equal(out.predictions, ref.predictions)) {
      ++failed;
      std::cerr << "gate: weights or predictions differ bitwise from " << what
                << "\n";
    }
  }
  /// A failed check of an output every pass shares (the passes are
  /// bitwise identical): every pass fails.
  void fail_all(const std::string& why) {
    failed = attempted;
    std::cerr << "gate: " << why << "\n";
  }
};

void corrupt(const Options& o, FitOutput& out) {
  if (o.corrupt_weight) {
    out.weights(0, 0) += static_cast<float>(frobenius(out.weights));
  }
}

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(const Gate& gate, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (gate.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << gate.attempted << ", \"failed\": "
     << gate.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << number(v) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ------------------------------------------------------------- untraced

/// The end-to-end run: passes until `seconds` elapse, every pass gated.
std::vector<Metric> untraced_run(const Options& o, const Sizes& sizes,
                                 const Setup& setup, Gate& gate) {
  const TrainTestSplit& data = setup.data;
  const KrrConfig config = krr_config(o.workload, sizes);
  Runtime check_runtime(sizes.workers);
  std::optional<FitOutput> ref;
  std::vector<double> fit_s, predict_s;
  if (o.workload.dist) {
    // The dist contract: bitwise the shared-memory adaptive pipeline.
    ref = run_shared(check_runtime, data,
                     krr_config(find_workload("mixed_narrow"), sizes), sizes);
  }
  FitOutput first;
  auto record = [&](FitOutput&& out) {
    corrupt(o, out);
    fit_s.push_back(out.fit_s);
    predict_s.push_back(out.predict_s);
    if (!ref) ref = out;
    gate.check_pass(out, *ref, o.workload.dist ? "the mixed_narrow pipeline"
                                               : "the first pass");
    if (fit_s.size() == 1) first = std::move(out);
  };
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  auto keep_going = [&](std::uint64_t pass) {
    return pass == 0 || Clock::now() < deadline;
  };
  if (o.workload.dist) {
    run_dist(data, config, sizes, keep_going, record, nullptr, nullptr);
  } else {
    Runtime runtime(sizes.workers);
    for (std::uint64_t pass = 0; keep_going(pass); ++pass) {
      record(run_shared(runtime, data, config, sizes));
    }
  }

  // Outside the timed region: accuracy of the (bitwise identical) passes.
  const double mspe = mean_mspe(data, first.predictions);
  const double be = backward_error(check_runtime, data, config, first);
  if (!std::isfinite(mspe)) gate.fail_all("held-out MSPE is not finite");
  if (!(be < o.workload.backward_error_bound)) {
    gate.fail_all("backward error " + number(be) + " is not below " +
                  number(o.workload.backward_error_bound));
  }
  std::cout << "# fit_s " << timing_summary(fit_s) << "\n"
            << "# predict_s " << timing_summary(predict_s) << "\n";
  return {
      {"setup_s", setup.setup_s, "s"},
      {"fit_s", median(fit_s), "s"},
      {"predict_s", median(predict_s), "s"},
      {"mspe", mspe, "mse"},
      {"backward_error", be, "ratio"},
      {"factor_mb", static_cast<double>(first.factor_bytes) / kMiB, "MB"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// ---------------------------------------------------------------- probes

/// Ceilings of the layers below the pipeline, measured in the traced run.
struct Probes {
  double gemm_f32_gflops = 0.0;  ///< single-core gemm<float>, 256^3
  double gemm_i8_gops = 0.0;     ///< gemm_i8_i32 at the Build tile shape
  double copy_gb_per_s = 0.0;    ///< memcpy over 128 MiB arrays
};

/// Median over five batches of the rate of `fn`, `work` units per call.
template <class Fn>
double rate(double work, Fn&& fn) {
  fn();  // warm-up
  std::vector<double> rates;
  for (int batch = 0; batch < 5; ++batch) {
    int calls = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      fn();
      ++calls;
    } while (seconds_since(t0) < 0.05);
    rates.push_back(work * calls / seconds_since(t0));
  }
  return median(rates);
}

Probes run_probes(const Sizes& sizes) {
  Probes p;
  const std::size_t ts = sizes.tile;
  Matrix<float> a(ts, ts, 0.5f), b(ts, ts, 0.25f), c(ts, ts, 0.0f);
  mpblas::kernels::set_pack_threads(1);
  p.gemm_f32_gflops =
      rate(2.0 * ts * ts * ts * 1e-9, [&] {
        gemm(Trans::kNoTrans, Trans::kNoTrans, ts, ts, ts, 1.0f, a.data(), ts,
             b.data(), ts, 0.0f, c.data(), ts);
      });
  mpblas::kernels::set_pack_threads(std::nullopt);

  // Build tile: patients x SNPs dosages against their transpose.
  const std::size_t k = sizes.snps;
  std::vector<std::int8_t> g(ts * k);
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<std::int8_t>(i % 3);
  }
  std::vector<std::int32_t> d(ts * ts);
  p.gemm_i8_gops = rate(2.0 * ts * ts * k * 1e-9, [&] {
    gemm_i8_i32(Trans::kNoTrans, Trans::kTrans, ts, ts, k, 1, g.data(), ts,
                g.data(), ts, 0, d.data(), ts);
  });

  // 128 MiB per array: 4x the 32 MiB L3 of the reference host.
  const std::size_t bytes = std::size_t{128} << 20;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  p.copy_gb_per_s = rate(2.0 * static_cast<double>(bytes) * 1e-9,
                         [&] { std::memcpy(dst.data(), src.data(), bytes); });
  return p;
}

// ----------------------------------------------------------------- traced

/// Elements and bytes (read at FP32 + written at the target) that
/// PrecisionMap::apply converts: every tile mapped below FP32.
struct Conversion {
  double elements = 0.0;
  double bytes = 0.0;
};

Conversion conversion_work(const PrecisionMap& map, const Sizes& sizes,
                           std::size_t n) {
  Conversion c;
  const std::size_t ts = sizes.tile;
  for (std::size_t tj = 0; tj < map.tile_count(); ++tj) {
    for (std::size_t ti = tj; ti < map.tile_count(); ++ti) {
      const Precision p = map.get(ti, tj);
      if (p == Precision::kFp32) continue;
      const double elements = static_cast<double>(std::min(ts, n - ti * ts) *
                                                  std::min(ts, n - tj * ts));
      c.elements += elements;
      c.bytes += elements * static_cast<double>(4 + bytes_per_element(p));
    }
  }
  return c;
}

void write_trace_file(const Options& o, const SpanLog& log,
                      const TracedPass& last, const std::vector<Metric>& m) {
  std::filesystem::create_directories(o.trace_dir);
  const std::string path = o.trace_dir + "/trace_" + o.workload.name +
                           "_seed" + std::to_string(o.seed) + ".json";
  auto other_data = [&](telemetry::JsonWriter& w) {
    w.kv("workload", o.workload.name);
    w.kv("seed", static_cast<std::uint64_t>(o.seed));
    w.key("bench_spans");
    w.begin_array();
    for (const Span& s : log.spans()) {
      w.begin_object();
      w.kv("id", s.id);
      w.kv("parent", s.parent);
      w.kv("pass", s.pass);
      w.kv("name", s.name);
      w.kv("start_ns", s.start_ns);
      w.kv("end_ns", s.end_ns);
      w.end_object();
    }
    w.end_array();
    w.key("per_layer");
    w.begin_object();
    for (const Metric& metric : m) w.kv(metric.name, metric.value);
    w.end_object();
  };
  telemetry::write_merged_trace(path, last.streams, other_data);
  std::cout << "# trace written to " << path << "\n";
}

/// The traced run: untraced and traced passes, each traced pass bitwise
/// equal to the untraced one, then the ceiling probes.
std::vector<Metric> traced_run(const Options& o, const Sizes& sizes,
                               const Setup& setup, Gate& gate) {
  const TrainTestSplit& data = setup.data;
  const KrrConfig config = krr_config(o.workload, sizes);
  const Clock::time_point epoch = Clock::now();
  const auto half = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(o.seconds / 2));
  SpanLog log(epoch);
  std::vector<TracedPass> traced;
  std::vector<FitOutput> traced_out;
  std::vector<double> untraced_fit_s;
  std::optional<FitOutput> ref;

  auto record_untraced = [&](FitOutput&& out) {
    untraced_fit_s.push_back(out.fit_s);
    if (!ref) ref = out;
    gate.check_pass(out, *ref, "the first untraced pass");
  };
  auto record_traced = [&](FitOutput&& out) {
    corrupt(o, out);
    gate.check_pass(out, *ref, "the untraced pass");
    out.weights = Matrix<float>();
    out.predictions = Matrix<float>();
    traced_out.push_back(std::move(out));
  };
  if (o.workload.dist) {
    auto until = [&](Clock::time_point end) {
      return [&, end](std::uint64_t pass) {
        return pass == 0 || Clock::now() < end;
      };
    };
    run_dist(data, config, sizes, until(epoch + half), record_untraced,
             nullptr, nullptr);
    run_dist(data, config, sizes, until(epoch + 2 * half), record_traced, &log,
             &traced);
  } else {
    Runtime plain(sizes.workers);
    Runtime profiled(sizes.workers, /*enable_profiling=*/true);
    for (std::uint64_t pass = 0; pass == 0 || Clock::now() < epoch + 2 * half;
         ++pass) {
      record_untraced(run_shared(plain, data, config, sizes));
      traced.emplace_back();
      record_traced(
          run_shared_traced(profiled, data, config, log, pass, traced.back()));
    }
  }
  const Probes probes = run_probes(sizes);

  // Per-layer values: medians over the traced passes.
  const double workers = o.workload.dist
                             ? static_cast<double>(sizes.ranks)
                             : static_cast<double>(sizes.workers);
  const double n = static_cast<double>(data.train.patients());
  const double ts = static_cast<double>(sizes.tile);
  const double nrhs = static_cast<double>(data.train.n_phenotypes());
  const double build_ops =
      build_op_count(data.train.patients(), data.train.snps(),
                     data.train.confounders.cols());
  const PrecisionMap& map = traced_out.front().map;
  const Conversion conversion =
      conversion_work(map, sizes, data.train.patients());
  const auto hist = map.histogram();
  auto tiles = [&](Precision p) {
    const auto it = hist.find(p);
    return it == hist.end() ? 0.0 : static_cast<double>(it->second);
  };

  auto span_median = [&](const char* name) {
    std::vector<double> v;
    for (std::uint64_t p = 0; p < traced.size(); ++p) {
      v.push_back(log.seconds(name, p));
    }
    return median(v);
  };
  auto pass_median = [&](auto&& fn) {
    std::vector<double> v;
    for (const TracedPass& t : traced) v.push_back(fn(t));
    return median(v);
  };
  auto busy = [&](const char* cls) {
    return pass_median([&](const TracedPass& t) {
      const auto it = t.task_stats.find(cls);
      return it == t.task_stats.end() ? 0.0 : it->second.total_seconds;
    });
  };
  // Useful work of a task class: per-task count x per-task op count.
  auto class_rate = [&](const char* cls, double ops_per_task) {
    return pass_median([&](const TracedPass& t) {
      const auto it = t.task_stats.find(cls);
      if (it == t.task_stats.end() || it->second.total_seconds <= 0.0) {
        return 0.0;
      }
      return static_cast<double>(it->second.count) * ops_per_task /
             it->second.total_seconds * 1e-9;
    });
  };
  auto dist_only = [&](double v) { return o.workload.dist ? v : 0.0; };

  const double build_s = span_median("krr.build");
  const double build_gops = build_ops / build_s * 1e-9;
  const double apply_s = span_median("tile.apply");
  const double potrf_s = span_median("linalg.potrf");
  const double potrf_gflops = n * n * n / 3.0 / potrf_s * 1e-9;
  const double wall = span_median("pipeline");
  const double busy_total =
      pass_median([](const TracedPass& t) { return t.busy_s; });
  std::vector<double> fit_traced;
  for (const FitOutput& f : traced_out) fit_traced.push_back(f.fit_s);
  const double tile_flops = ts * ts * ts;

  std::vector<Metric> m = {
      {"gwas.simulate_s", setup.simulate_s, "s"},
      {"gwas.split_s", setup.split_s, "s"},
      {"krr.gamma_s", span_median("krr.gamma"), "s"},
      {"krr.build_s", build_s, "s"},
      {"krr.build_gops", build_gops, "GOp/s"},
      {"krr.build_eff", build_gops / (probes.gemm_i8_gops * workers), "ratio"},
      {"krr.cross_kernel_s", span_median("krr.cross_kernel"), "s"},
      {"krr.predict_gemm_s", span_median("krr.predict_gemm"), "s"},
      {"tile.add_diagonal_s", span_median("tile.add_diagonal"), "s"},
      {"tile.apply_s", apply_s, "s"},
      {"tile.apply_gelem_per_s", conversion.elements / apply_s * 1e-9,
       "Gelem/s"},
      {"tile.apply_bw_frac",
       conversion.bytes / apply_s * 1e-9 / probes.copy_gb_per_s, "ratio"},
      {"tile.tiles.fp32", tiles(Precision::kFp32), "count"},
      {"tile.tiles.fp16", tiles(Precision::kFp16), "count"},
      {"tile.tiles.fp8",
       tiles(Precision::kFp8E4M3) + tiles(Precision::kFp8E5M2), "count"},
      {"linalg.plan_s", span_median("linalg.plan"), "s"},
      {"linalg.potrf_s", potrf_s, "s"},
      {"linalg.potrf_gflops", potrf_gflops, "GFLOP/s"},
      {"linalg.potrf_eff", potrf_gflops / (probes.gemm_f32_gflops * workers),
       "ratio"},
      {"linalg.potrs_s", span_median("linalg.potrs"), "s"},
      {"linalg.attempts",
       static_cast<double>(traced_out.front().attempts), "count"},
      {"runtime.potrf.busy_s", busy("potrf"), "s"},
      {"runtime.potrf.gflops", class_rate("potrf", tile_flops / 3.0),
       "GFLOP/s"},
      {"runtime.trsm.busy_s", busy("trsm"), "s"},
      {"runtime.trsm.gflops", class_rate("trsm", tile_flops), "GFLOP/s"},
      {"runtime.syrk.busy_s", busy("syrk"), "s"},
      {"runtime.syrk.gflops", class_rate("syrk", 2.0 * tile_flops), "GFLOP/s"},
      {"runtime.gemm.busy_s", busy("gemm"), "s"},
      {"runtime.gemm.gflops", class_rate("gemm", 2.0 * tile_flops), "GFLOP/s"},
      {"runtime.build_k.busy_s", busy("build_k"), "s"},
      {"runtime.build_k.gops",
       build_ops / busy("build_k") * 1e-9, "GOp/s"},
      {"runtime.build_kx.busy_s", busy("build_kx"), "s"},
      {"runtime.predict_gemm.busy_s", busy("predict_gemm"), "s"},
      {"runtime.predict_gemm.gflops",
       class_rate("predict_gemm", 2.0 * ts * ts * nrhs), "GFLOP/s"},
      {"runtime.utilization", busy_total / (workers * wall), "ratio"},
      {"runtime.idle_s", workers * wall - busy_total, "s"},
      {"runtime.steals",
       pass_median([](const TracedPass& t) {
         return static_cast<double>(t.steals);
       }),
       "count"},
      {"runtime.batch.groups",
       pass_median([](const TracedPass& t) {
         return static_cast<double>(t.batch.groups);
       }),
       "count"},
      {"runtime.batch.avg_group",
       pass_median([](const TracedPass& t) {
         return t.batch.avg_group();
       }),
       "count"},
      {"dist.build_s", dist_only(build_s), "s"},
      {"dist.associate_s", dist_only(span_median("associate")), "s"},
      {"dist.predict_s", dist_only(span_median("predict")), "s"},
      {"dist.wire_mb",
       pass_median([](const TracedPass& t) {
         return static_cast<double>(t.wire.payload_bytes) / kMiB;
       }),
       "MB"},
      {"dist.wire_mb_low",
       pass_median([](const TracedPass& t) {
         double low = 0.0;
         for (std::size_t p = 0; p < t.wire.tile_payload_bytes.size(); ++p) {
           if (bytes_per_element(static_cast<Precision>(p)) < 4) {
             low += static_cast<double>(t.wire.tile_payload_bytes[p]);
           }
         }
         return low / kMiB;
       }),
       "MB"},
      {"dist.messages",
       pass_median([](const TracedPass& t) {
         return static_cast<double>(t.wire.messages);
       }),
       "count"},
      {"dist.recv_wait_s",
       pass_median([](const TracedPass& t) { return t.recv_wait_s; }),
       "s"},
      {"dist.rank_busy_imbalance",
       dist_only(pass_median([](const TracedPass& t) {
         return t.rank_busy_imbalance;
       })),
       "ratio"},
      {"telemetry.overhead_s", median(fit_traced) - median(untraced_fit_s),
       "s"},
      {"mpblas.gemm_f32_1core_gflops", probes.gemm_f32_gflops, "GFLOP/s"},
      {"mpblas.gemm_i8_gops", probes.gemm_i8_gops, "GOp/s"},
      {"mpblas.copy_gb_per_s", probes.copy_gb_per_s, "GB/s"},
  };
  write_trace_file(o, log, traced.back(), m);
  std::cout << "# traced passes=" << traced.size()
            << " untraced passes=" << untraced_fit_s.size() << "\n";
  return m;
}

int run(int argc, char** argv) {
  const std::vector<std::string> pinned = kgwas_environment();
  if (!pinned.empty()) {
    std::cerr << "refusing to run with KGWAS_* variables set:";
    for (const std::string& v : pinned) std::cerr << " " << v;
    std::cerr << "\n";
    return 2;
  }
  const Options o = parse_options(argc, argv);
  const Sizes sizes = o.tiny ? Sizes::tiny() : Sizes{};
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  std::cout << "# kgwas-bench workload=" << o.workload.name
            << " seed=" << o.seed << " trace=" << (o.trace ? 1 : 0)
            << " build_type=" << PERFBENCH_BUILD_TYPE << " isa="
            << mpblas::kernels::to_string(mpblas::kernels::selected_arch())
            << " nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << mpblas::to_string(mpblas::cpu_features()) << "\""
            << " patients=" << sizes.patients << " snps=" << sizes.snps
            << " tile=" << sizes.tile << "\n";

  const Setup setup = run_setup(o, sizes);
  Gate gate;
  std::vector<Metric> metrics;
  try {
    metrics = o.trace ? traced_run(o, sizes, setup, gate)
                      : untraced_run(o, sizes, setup, gate);
  } catch (const std::exception& e) {
    ++gate.attempted;
    ++gate.failed;
    std::cerr << "gate: a pass threw: " << e.what() << "\n";
  }
  print_result(gate, metrics);
  return gate.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "kgwas_bench: " << e.what() << "\n";
    return 2;
  }
}
