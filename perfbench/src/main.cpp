// perfbench: runs one workload of the end-to-end benchmark and prints its
// metrics as the last line of standard output.
//
//   perfbench --workload policy_grid|fleet_stream|fuzz_batch --seed N
//             --seconds S --trace 0|1
//
// A run builds its inputs from the seed (set-up, timed from process start),
// runs one untimed warm-up batch, then repeats whole batches until S host
// seconds of batches have been timed. Every batch's outputs are checked
// against its inputs, and every batch must reproduce the warm-up batch's
// digest. --trace 1 wraps each layer in the probes of layers.hpp and
// prints the per-layer metrics instead of the end-to-end ones; its spans
// go to .bench_out/spans-<workload>-seed<N>.json under the working directory.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "metrics/stats.hpp"
#include "workload.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Probe* probe) {
  if (name == "policy_grid") return make_policy_grid(seed, probe);
  if (name == "fleet_stream") return make_fleet_stream(seed, probe);
  if (name == "fuzz_batch") return make_fuzz_batch(seed, probe);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Taken during static initialisation, before main: set-up is timed from
/// the process's start.
const std::int64_t kProcessStart = now_ns();

/// Spans kept per traced run (a few MB); the rest are counted.
constexpr std::size_t kSpanCapacity = 100'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
};

/// Where results and span files go, relative to the working directory.
constexpr const char* kOutDir = ".bench_out";

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload policy_grid|fleet_stream|"
               "fuzz_batch --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    const char* first = value.data();
    const char* last = value.data() + value.size();
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const auto [p, ec] = std::from_chars(first, last, a.seed);
      if (ec != std::errc() || p != last) usage("bad --seed '" + value + "'");
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto [p, ec] = std::from_chars(first, last, a.seconds);
      if (ec != std::errc() || p != last || !(a.seconds > 0.0) ||
          a.seconds > 3600.0) {
        usage("bad --seconds '" + value + "'");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace '" + value + "'");
      a.trace = value == "1" ? 1 : 0;
      have_trace = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank quantile of an unsorted sample; 0 for an empty one.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics from a traced run, per batch.
std::vector<Metric> layer_metrics(const Probe& probe, std::uint64_t rounds,
                                  double traced_jobs_per_s) {
  const auto sum = [&](const std::string& name) {
    const auto it = probe.sums.find(name);
    return it == probe.sums.end() ? 0.0 : it->second;
  };
  const double n = static_cast<double>(rounds);
  const double callback_s = sum("raw.callback_s");
  const double sim_self_s = sum("raw.run_until_s") - callback_s;
  const double events = sum("sim.events");
  std::vector<Metric> out;
  for (const MetricDef& def : per_layer_metrics()) {
    double v = 0.0;
    if (const auto it = probe.values.find(def.name); it != probe.values.end()) {
      v = it->second;
    } else if (def.name == "engine.self_s") {
      v = (callback_s - sum("raw.decide_s")) / n;
    } else if (def.name == "sim.self_s") {
      v = sim_self_s / n;
    } else if (def.name == "sim.ns_per_event") {
      v = events > 0 ? sim_self_s / events * 1e9 : 0.0;
    } else if (def.name == "sweep.cell_s.p50") {
      v = quantile(probe.cell_seconds, 0.50);
    } else if (def.name == "sweep.cell_s.p99") {
      v = quantile(probe.cell_seconds, 0.99);
    } else if (def.name == "sweep.cell_s.max") {
      v = quantile(probe.cell_seconds, 1.0);
    } else if (def.name == "traced.jobs_per_s") {
      v = traced_jobs_per_s;
    } else {
      v = sum(def.name) / n;
    }
    out.push_back({def.name, v, def.unit});
  }
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& ms) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out << ", ";
    out << "\"" << ms[i].name << "\": {\"value\": " << ms[i].value
        << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

int run(const Args& args) {
  std::unique_ptr<Probe> probe;
  if (args.trace == 1) probe = std::make_unique<Probe>(kSpanCapacity);

  // Set-up: inputs, fleets and the first batch's engines.
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, probe.get());
  workload->prepare(nullptr);
  const double setup_s = ns_to_s(now_ns() - kProcessStart);

  // Untimed warm-up batch: caches and allocator pools fill, and its digest
  // is the reference every timed batch must reproduce.
  workload->run();
  const RoundResult warm = workload->finish();
  std::string error = warm.error;

  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t timed_ns = 0;
  std::uint64_t rounds = 0, attempted = 0, failed = 0, jobs = 0;
  std::ostringstream batch_times;
  while (timed_ns < budget_ns) {
    {
      ScopedSpan span(probe ? &probe->spans : nullptr, "batch");
      const std::int64_t start = now_ns();
      workload->prepare(probe.get());
      workload->run();
      const std::int64_t took = now_ns() - start;
      timed_ns += took;
      batch_times << " " << std::setprecision(4) << ns_to_s(took);
    }
    const RoundResult r = workload->finish();
    ++rounds;
    attempted += r.attempted;
    failed += r.failed;
    jobs += r.jobs_ended;
    if (error.empty()) error = r.error;
    if (error.empty() && r.digest != warm.digest) {
      error = "batch " + std::to_string(rounds) +
              " digest differs from the warm-up batch's";
    }
  }
  const double timed_s = ns_to_s(timed_ns);
  const double jobs_per_s = static_cast<double>(jobs) / timed_s;

  std::vector<Metric> metrics;
  if (probe) {
    const std::string extra = workload->measure_extra(*probe, args.seconds);
    if (error.empty()) error = extra;
    metrics = layer_metrics(*probe, rounds, jobs_per_s);
  } else {
    metrics = {{"jobs_per_s", jobs_per_s, "jobs/s"},
               {"run_s", timed_s / static_cast<double>(rounds), "s"},
               {"setup_s", setup_s, "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  }

  const bool correct = error.empty();
  if (!correct) std::cerr << "perfbench: CHECK FAILED: " << error << "\n";
  std::cerr << "perfbench: " << args.workload << " seed " << args.seed << ": "
            << rounds << " timed batches in " << timed_s << " s, setup "
            << setup_s << " s\n";
  const std::string result = result_json(correct, attempted, failed, metrics);

  std::filesystem::create_directories(kOutDir);
  const std::string stem = std::string(kOutDir) + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  std::ofstream(stem + "-trace" + std::to_string(args.trace) + ".json")
      << result << "\n";
  if (probe) {
    std::ofstream spans(std::string(kOutDir) + "/spans-" + args.workload + "-seed" +
                        std::to_string(args.seed) + ".json");
    probe->spans.write_chrome_json(spans);
  }
  std::cout << "batch_s" << batch_times.str() << "\n";
  std::cout << "sim_digest " << args.workload << " seed=" << args.seed << " "
            << mcs::metrics::hex16(warm.digest) << "\n";
  std::cout << result << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
