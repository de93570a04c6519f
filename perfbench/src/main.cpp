// Measures one SOCRATES path in a fresh process.
//
//   perfbench_driver --path <offline|online|serve> --seed <n> --seconds <s>
//                    --trace <0|1> --overhead <0|1> --work <dir> [--spans <file>]
//
// perfbench/run.py runs this once per path, so no path inherits another's
// heap, caches or threads.  Set-up (knowledge-base builds, server
// construction, tenant creation) is repeated nine times and its median
// reported as setup_s.  With --trace 1 the per-layer metrics are
// reported as well; --overhead 1 then measures the path once untraced
// and once traced (half of --seconds each) and reports the difference as
// trace.overhead_frac.  `--work` must be a
// scratch directory the run may delete.  The last line of standard
// output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": v, "unit": u, "n": samples, "tail": p}}}
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

struct Args {
  std::string path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool overhead = false;
  std::string work;
  std::string spans_path;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--path") {
      a.path = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0.0;
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--overhead") {
      a.overhead = val == "1";
    } else if (key == "--work") {
      a.work = val;
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && !a.work.empty() &&
         (a.path == "offline" || a.path == "online" || a.path == "serve");
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

constexpr std::size_t kSpans = 100'000;
/// Set-up is short (tens of ms) and the first repetitions after process
/// start run on a cold CPU; the median of nine is steady.
constexpr int kSetupRepeats = 9;

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --path <offline|online|serve> --seed <n> --seconds <s> "
                 "--trace <0|1> --overhead <0|1> --work <dir> [--spans <file>]\n",
                 argv[0]);
    return 2;
  }
  if (!stats_self_test()) {
    std::fprintf(stderr, "stats helper self-test failed\n");
    return 3;
  }
  if (!inputs_self_test(args.seed)) {
    std::fprintf(stderr, "input generator self-test failed (seed does not fix the inputs)\n");
    return 3;
  }

  const Inputs inputs = generate_inputs(args.seed);
  const auto model = socrates::platform::PerformanceModel::paper_platform();
  Report report;
  const RunContext ctx{&inputs, &model, fs::path(args.work), &report};
  fs::remove_all(ctx.work);
  fs::create_directories(ctx.work);

  const auto make = args.path == "offline" ? make_offline_path
                    : args.path == "online" ? make_online_path
                                            : make_serve_path;
  std::unique_ptr<Path> path;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    path.reset();  // the previous instance is torn down before timing the next
    path = make(ctx);
    const auto t0 = std::chrono::steady_clock::now();
    path->setup();
    setups.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }

  SpanLog spans(args.trace ? kSpans : 0);
  if (args.trace && args.overhead) {
    const double untraced = path->measure(args.seconds / 2, nullptr);
    const double traced = path->measure(args.seconds / 2, &spans);
    report.layer("trace.overhead_frac", untraced > 0 ? traced / untraced - 1.0 : 0.0, "frac");
  } else {
    path->measure(args.seconds, args.trace ? &spans : nullptr);
  }
  path->check();
  // Peak memory of set-up and measurement, read before the metrics are
  // computed: their temporary copies grow with the sample count, which
  // depends on how fast the host ran.
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  path->emit_e2e();
  report.e2e("setup_s", median(setups), "s", setups.size());
  report.e2e("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  if (args.trace) {
    path->emit_layers();
    for (const auto& [name, v] : spans.self_times_us())
      report.layer("self_us." + name, median(v), "us", v.size());
    if (!args.spans_path.empty() && !spans.write_csv(args.spans_path))
      report.fail("could not write the span log");
  }
  path.reset();
  fs::remove_all(ctx.work);

  for (const auto& why : report.reasons()) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  std::vector<Metric> metrics = report.e2e();
  metrics.insert(metrics.end(), report.layers().begin(), report.layers().end());
  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(report.attempted()) +
                    ", \"failed\": " + std::to_string(report.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\", \"n\": " + std::to_string(m.samples) +
           ", \"tail\": " + json_number(m.tail_p) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
