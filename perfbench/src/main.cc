/// \file main.cc
/// \brief Command line of the repository benchmark.
///
///     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///     perfbench --self-test
///
/// Untraced (`--trace 0`) runs repeat whole rounds of the workload for
/// `--seconds` and report the end-to-end metrics as medians over rounds
/// (a latency percentile is taken within each round first). Traced runs
/// (`--trace 1`) run one untraced and one traced round of the workload for
/// the tracing overhead, plus one traced round of each other workload, so
/// that every layer is measured on the workload that exercises it. The
/// last line of standard output is always the JSON result.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "bench.h"
#include "workloads.h"

namespace perfbench {

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

constexpr const char* kWorkloads[] = {"paper-sweep", "serve-points",
                                      "route-mixed"};

const char* kUsage =
    "usage: perfbench --workload {paper-sweep|serve-points|route-mixed}\n"
    "                 [--seed N] [--seconds S] [--trace 0|1]\n"
    "       perfbench --self-test\n"
    "       perfbench --help\n"
    "  --workload  which workload to run\n"
    "  --seed      workload seed: the same seed generates the same inputs\n"
    "              (default 1)\n"
    "  --seconds   measuring time; whole rounds repeat until it is spent\n"
    "              (default 20, at most 600)\n"
    "  --trace     1 = traced run reporting per-layer metrics (default 0)\n"
    "  --self-test short run of every workload with every check, plus\n"
    "              checks that the verifiers reject perturbed outputs\n";

struct UsageError {
  std::string message;
};

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

bool parse_seconds(const std::string& text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) return false;
  if (!(v > 0.0 && v <= 600.0)) return false;
  out = v;
  return true;
}

unsigned count_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

RunOptions parse_args(int argc, char** argv, bool& help) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help = true;
      return o;
    }
    if (arg == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (arg != "--workload" && arg != "--seed" && arg != "--seconds" &&
        arg != "--trace") {
      throw UsageError{"unknown argument '" + arg + "'"};
    }
    if (i + 1 >= argc) throw UsageError{arg + " needs a value"};
    const std::string value = argv[++i];
    if (arg == "--workload") {
      bool known = false;
      for (const char* w : kWorkloads) known = known || value == w;
      if (!known) throw UsageError{"unknown workload '" + value + "'"};
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, o.seed)) {
        throw UsageError{"--seed wants an unsigned integer, got '" + value +
                         "'"};
      }
    } else if (arg == "--seconds") {
      if (!parse_seconds(value, o.seconds)) {
        throw UsageError{"--seconds wants a number in (0, 600], got '" +
                         value + "'"};
      }
    } else {
      if (value != "0" && value != "1") {
        throw UsageError{"--trace wants 0 or 1, got '" + value + "'"};
      }
      o.trace = value == "1";
    }
  }
  if (!o.self_test && !have_workload) throw UsageError{"--workload is required"};
  o.nproc = count_cpus();
  return o;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

void print_env(const RunOptions& o) {
  std::cout << "env {\"nproc\": " << o.nproc << ", \"compiler\": \""
            << json_escape(compiler()) << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"git_sha\": \""
            << json_escape(env_or("PERFBENCH_GIT_SHA", "unknown"))
            << "\", \"git_dirty\": \""
            << json_escape(env_or("PERFBENCH_GIT_DIRTY", "unknown"))
            << "\"}\n";
}

std::unique_ptr<Workload> make(const std::string& name, const RunOptions& o) {
  if (name == "paper-sweep") return make_paper_sweep(o);
  if (name == "serve-points") return make_serve_points(o);
  return make_route_mixed(o);
}

void print_metric(const Metric& m) {
  std::cout << "metric " << m.name << " " << std::setprecision(10) << m.value
            << " " << m.unit << " samples=" << m.samples << "\n";
}

void print_result(const Result& result) {
  for (const std::string& f : result.failures()) {
    std::cout << "check FAILED: " << f << "\n";
  }
  std::cout << "checks " << result.checks() << " made, "
            << result.failures().size() << " failed\n";
  std::ostringstream js;
  js << std::setprecision(17);
  js << "{\"correct\": " << (result.correct() ? "true" : "false")
     << ", \"attempted\": " << result.attempted()
     << ", \"failed\": " << result.failed() << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics()) {
    js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

/// Rounds during which the host stole more than this share of the
/// machine's CPU time are left out of the medians.
constexpr double kStealLimit = 0.01;
/// ...unless fewer rounds than this stay; then the cleanest this many stay.
constexpr std::size_t kMinKept = 3;

/// End-to-end metrics of an untraced run. On a shared host, rounds during
/// which the hypervisor stole CPU time measure the neighbours, not the
/// program, so the medians use the clean rounds only.
void report_rounds(const std::vector<Round>& rounds, Result& result) {
  std::vector<double> sorted;
  for (const Round& r : rounds) sorted.push_back(r.steal_share);
  std::sort(sorted.begin(), sorted.end());
  const double limit = std::max(
      kStealLimit, sorted[std::min(kMinKept, sorted.size()) - 1]);
  std::vector<double> setup, ops, p50;
  std::size_t samples = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    const bool kept = r.steal_share <= limit;
    std::cout << "round " << i << (kept ? " kept" : " dropped")
              << " steal=" << r.steal_share << " setup_s=" << r.setup_s
              << " ops_per_s=" << r.ops_per_s
              << " op_p50_ms=" << quantile(r.latency_ms, 0.50)
              << " op_p90_ms=" << quantile(r.latency_ms, 0.90)
              << " op_p99_ms=" << quantile(r.latency_ms, 0.99)
              << " latency_samples=" << r.latency_ms.size() << "\n";
    if (!kept) continue;
    setup.push_back(r.setup_s);
    ops.push_back(r.ops_per_s);
    p50.push_back(quantile(r.latency_ms, 0.50));
    samples += r.latency_ms.size();
  }
  // Medians over rounds; a latency percentile is taken within each round.
  const std::size_t n = setup.size();
  result.add("setup_s", median(setup), "s", n);
  result.add("ops_per_s", median(ops), "1/s", n);
  result.add("op_p50_ms", median(p50), "ms", samples);
  result.add("peak_rss_mb", peak_rss_mib(), "MiB", 1);
}

void write_spans(const std::string& workload, std::uint64_t seed,
                 const SpanLog& log) {
  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/traces", 0755);
  const std::string path = ".bench_build/traces/" + workload + "-" +
                           std::to_string(seed) + ".tsv";
  std::ofstream out(path);
  if (!out) {
    std::cout << "spans: could not write " << path << "\n";
    return;
  }
  out << "name\tparent\tid\tstart_us\tend_us\n" << std::fixed
      << std::setprecision(3);
  const std::vector<Span> spans = log.spans();
  const double base = spans.empty() ? 0.0 : spans.front().start_s;
  for (const Span& s : spans) {
    out << s.name << '\t' << s.parent << '\t' << s.id << '\t'
        << (s.start_s - base) * 1e6 << '\t' << (s.end_s - base) * 1e6 << '\n';
  }
  std::cout << "spans: " << spans.size() << " written to " << path << "\n";
}

void merge_layers(LayerMetrics& into, const LayerMetrics& from) {
  for (const auto& [name, m] : from) {
    auto it = into.find(name);
    // The generator's lateness is the worst over the open loops traced.
    if (it != into.end() && name == "bench.generator.lateness_p99_ms") {
      if (m.value > it->second.value) it->second = m;
      continue;
    }
    into[name] = m;
  }
}

int run(const RunOptions& o) {
  Result result;
  std::unique_ptr<Workload> w = make(o.workload, o);
  std::cout << "inputs seed=" << o.seed << " digest=0x" << std::hex
            << w->input_digest() << std::dec << " " << w->describe() << "\n";
  if (!o.trace) {
    std::vector<Round> rounds;
    const double start = now_s();
    do {
      const CpuTicks before = read_cpu_ticks();
      rounds.push_back(w->round(nullptr, nullptr, result));
      const CpuTicks after = read_cpu_ticks();
      Round& r = rounds.back();
      if (after.total > before.total) {
        r.steal_share = static_cast<double>(after.steal - before.steal) /
                        static_cast<double>(after.total - before.total);
      }
      result.count_ops(r.attempted, r.failed);
    } while (now_s() - start < o.seconds);
    w->run_checks(result);
    std::cout << "rounds " << rounds.size() << "\n";
    report_rounds(rounds, result);
  } else {
    w->run_checks(result);
    const Round plain = w->round(nullptr, nullptr, result);
    result.count_ops(plain.attempted, plain.failed);
    LayerMetrics layers;
    SpanLog all;
    double overhead = 0.0;
    for (const char* name : kWorkloads) {
      std::unique_ptr<Workload> other;
      Workload* wk = w.get();
      if (name != o.workload) {
        other = make(name, o);
        other->run_checks(result);
        wk = other.get();
      }
      SpanLog log;
      LayerMetrics these;
      const Round traced = wk->round(&log, &these, result);
      result.count_ops(traced.attempted, traced.failed);
      if (name == o.workload) overhead = traced.busy_s / plain.busy_s;
      merge_layers(layers, these);
      all.append(log);
    }
    put(layers, "bench.trace_overhead", overhead, "ratio", 1);
    for (const auto& [name, m] : layers) {
      result.add(m.name, m.value, m.unit, m.samples);
    }
    write_spans(o.workload, o.seed, all);
  }
  for (const Metric& m : result.metrics()) print_metric(m);
  print_result(result);
  return 0;
}

int self_test(RunOptions o) {
  Result result;
  for (const char* name : kWorkloads) {
    o.workload = name;
    std::unique_ptr<Workload> w = make(name, o);
    std::cout << "self-test " << name << ": digest=0x" << std::hex
              << w->input_digest() << std::dec << " " << w->describe()
              << "\n";
    w->run_checks(result);
    const Round r = w->round(nullptr, nullptr, result);
    result.count_ops(r.attempted, r.failed);
    SpanLog log;
    LayerMetrics layers;
    const Round t = w->round(&log, &layers, result);
    result.count_ops(t.attempted, t.failed);
    w->self_test_perturbations(result);
  }
  result.add("peak_rss_mb", peak_rss_mib(), "MiB", 1);
  for (const Metric& m : result.metrics()) print_metric(m);
  print_result(result);
  return result.correct() && result.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  bool help = false;
  RunOptions options;
  try {
    options = parse_args(argc, argv, help);
  } catch (const UsageError& e) {
    std::cerr << "perfbench: " << e.message << "\n" << kUsage;
    return 2;
  }
  if (help) {
    std::cout << kUsage;
    return 0;
  }
  try {
    print_env(options);
    return options.self_test ? self_test(options) : run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
