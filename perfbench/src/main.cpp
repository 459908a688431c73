// cfbench: one workload of the Clusterfile benchmark.
//
//   cfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out <dir>]
//
// --trace 0 runs one untraced pass and reports the end-to-end metrics.
// --trace 1 runs an untraced and a traced pass on the same seed, replays the
// traced pass's inputs through each layer, writes every span to
// <out>/spans-<workload>.jsonl (the latest run's) and reports the per-layer metrics plus
// the tracing overhead. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit status 1 when any
// check failed (a read differed from the shadow image, an access failed, or
// a fault-free counter moved).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"

namespace {

using cfb::Metric;
using cfb::PassResult;
using cfb::Spec;

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The samples taken with the least CPU steal (time the hypervisor ran
/// other guests on this machine's CPUs): those whose steal share is at most
/// that of the quietest eighth of the samples (at least the four quietest),
/// ties included. A burst of steal inflates every timing taken during it,
/// and under sustained steal even the quietest quarter of a run is slowed,
/// so the metrics below use only these. On a quiet host many samples tie at
/// no steal at all.
std::vector<std::size_t> quietest(const std::vector<double>& steal) {
  std::vector<std::size_t> quiet;
  if (steal.empty()) return quiet;
  std::vector<double> sorted = steal;
  const std::size_t rank =
      std::min(sorted.size() - 1, std::max<std::size_t>(sorted.size() / 8, 3));
  const auto cut = sorted.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(sorted.begin(), cut, sorted.end());
  for (std::size_t i = 0; i < steal.size(); ++i)
    if (steal[i] <= *cut) quiet.push_back(i);
  return quiet;
}

/// Windows of the phase that have a steal reading (the last one's can miss
/// the end of the phase).
std::size_t read_windows(const cfb::Windows& ws) {
  return std::min(static_cast<std::size_t>(ws.full), ws.steal.size());
}

/// The quietest windows of a phase among those with a steal reading;
/// without any reading, every window.
std::vector<std::size_t> quiet_windows(const cfb::Windows& ws) {
  const std::size_t read = read_windows(ws);
  if (read > 0)
    return quietest(std::vector<double>(
        ws.steal.begin(), ws.steal.begin() + static_cast<std::ptrdiff_t>(read)));
  std::vector<std::size_t> all;
  for (int w = 0; w < ws.full; ++w) all.push_back(static_cast<std::size_t>(w));
  return all;
}

bool is_quiet(const std::vector<std::size_t>& quiet, int win) {
  return win >= 0 &&
         std::find(quiet.begin(), quiet.end(), static_cast<std::size_t>(win)) != quiet.end();
}

/// The latencies of every access of the loop's quiet windows.
cfb::Histogram quiet_latencies(const PassResult& r, const std::vector<cfb::Histogram>& lat) {
  cfb::Histogram merged;
  for (const std::size_t w : quiet_windows(r.loop_win))
    if (w < lat.size()) merged.merge(lat[w]);
  return merged;
}

/// Median of the samples taken in the phase's quiet windows.
Metric quiet_median(const char* name, const char* unit,
                    const std::vector<cfb::Sample>& xs, const cfb::Windows& ws) {
  const std::vector<std::size_t> quiet = quiet_windows(ws);
  pfm::Stats in;
  for (const cfb::Sample& x : xs)
    if (is_quiet(quiet, x.win)) in.add(x.value);
  return {name, in.median(), unit, in.count()};
}

/// set_view wall time. The churn workload sets views inside the measured
/// loop; the access workloads only at set-up (and in the epilogue, whose
/// set_views are not timed in windows).
Metric view_set_p50(const PassResult& r) {
  if (r.loop_view_us.empty())
    return quiet_median("view_set_p50_us", "us", r.setup_view_us, r.setup_win);
  return quiet_median("view_set_p50_us", "us", r.loop_view_us, r.loop_win);
}

/// Relayout throughput per full cycle of the four physical layouts (any four
/// consecutive relayouts visit each (from, to) pair once, and the pairs'
/// costs differ several-fold): the median over the quietest cycles by the
/// CPU steal during their relayouts.
Metric relayout_cycle_mib_s(const PassResult& r) {
  const auto& log = r.relayout_log;
  std::vector<double> rate, steal;
  for (std::size_t i = 0; i + 4 <= log.size(); i += 4) {
    double secs = 0, bytes = 0, stolen = 0, ticks = 0;
    for (std::size_t k = i; k < i + 4; ++k) {
      secs += log[k].seconds;
      bytes += static_cast<double>(log[k].bytes);
      stolen += static_cast<double>(log[k].stolen_ticks);
      ticks += static_cast<double>(log[k].ticks);
    }
    rate.push_back(bytes / (1 << 20) / secs);
    steal.push_back(ticks > 0 ? stolen / ticks : 0);
  }
  pfm::Stats quiet;
  for (const std::size_t c : quietest(steal)) quiet.add(rate[c]);
  return {"relayout_mib_s", quiet.median(), "MiB/s", quiet.count()};
}

/// Rate over the quiet windows: their summed count times `scale`, per
/// window. (A median of per-window counts would step with the churn
/// workload's batches of requests.) `samples` is the summed count.
double window_rate(const PassResult& r, const std::vector<std::int64_t>& count,
                   double scale, std::size_t& samples) {
  const std::vector<std::size_t> quiet = quiet_windows(r.loop_win);
  double total = 0;
  for (const std::size_t w : quiet)
    total += w < count.size() ? static_cast<double>(count[w]) : 0;
  samples = static_cast<std::size_t>(total);
  return quiet.empty() ? 0 : total * scale / static_cast<double>(quiet.size());
}

std::vector<Metric> end_to_end(const PassResult& r, double rss) {
  const double per_s = 1.0 / cfb::kWindowS;
  const cfb::Histogram writes = quiet_latencies(r, r.write_win);
  const cfb::Histogram reads = quiet_latencies(r, r.read_win);
  std::size_t ops = 0, op_bytes = 0;
  const double ops_per_s = window_rate(r, r.win_ops, per_s, ops);
  const double mib_per_s = window_rate(r, r.win_bytes, per_s / (1 << 20), op_bytes);
  return {
      quiet_median("setup_s", "s", r.setup_s, r.setup_win),
      {"write_p50_us", writes.percentile(50), "us", static_cast<std::size_t>(writes.count())},
      {"read_p50_us", reads.percentile(50), "us", static_cast<std::size_t>(reads.count())},
      {"ops_per_s", ops_per_s, "1/s", ops},
      {"mib_per_s", mib_per_s, "MiB/s", ops},
      view_set_p50(r),
      relayout_cycle_mib_s(r),
      {"peak_rss_mib", rss, "MiB", 1},
  };
}

/// Tail latencies: reported, but not end-to-end metrics of the result, since
/// a few milliseconds of host stall in a window move them several-fold.
std::vector<Metric> tails(const PassResult& r) {
  const cfb::Histogram writes = quiet_latencies(r, r.write_win);
  const cfb::Histogram reads = quiet_latencies(r, r.read_win);
  return {
      {"write_p99_us", writes.percentile(99), "us", static_cast<std::size_t>(writes.count())},
      {"read_p99_us", reads.percentile(99), "us", static_cast<std::size_t>(reads.count())},
  };
}

/// Every end-to-end metric must rest on samples and be positive: a metric
/// with nothing behind it would read as 0, which for a lower-is-better
/// metric looks like a perfect result.
bool metrics_valid(const std::vector<Metric>& ms, const char* label) {
  bool ok = true;
  for (const Metric& m : ms)
    if (m.samples == 0 || !(m.value > 0) || !std::isfinite(m.value)) {
      std::printf("FAIL [%s]: %s has no valid value (%g from %zu samples)\n", label,
                  m.name.c_str(), m.value, m.samples);
      ok = false;
    }
  return ok;
}

/// Fault-free pass: no failed or mismatched access, no reliability event
/// on either side, no quorum straggler.
bool pass_clean(const PassResult& r, const char* label) {
  bool ok = r.failed == 0 && r.mismatches == 0;
  if (!ok)
    std::printf("FAIL [%s]: %lld failed, %lld read mismatches; first error: %s\n",
                label, static_cast<long long>(r.failed),
                static_cast<long long>(r.mismatches), r.first_error.c_str());
  if (!r.client_rel.all_zero() || !r.server_rel.all_zero() || r.stragglers != 0) {
    std::printf("FAIL [%s]: fault-free run moved reliability counters: client "
                "retries=%lld timeouts=%lld failovers=%lld; server errors=%lld "
                "duplicates=%lld; stragglers=%lld\n",
                label, static_cast<long long>(r.client_rel.retries),
                static_cast<long long>(r.client_rel.timeouts),
                static_cast<long long>(r.client_rel.failovers),
                static_cast<long long>(r.server_rel.errors_sent),
                static_cast<long long>(r.server_rel.duplicates_suppressed),
                static_cast<long long>(r.stragglers));
    ok = false;
  }
  return ok;
}

void print_header(const Spec& s, std::uint64_t seed, double seconds, int trace) {
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", s.name.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("  params: %lldx%lld matrix, %s backend, replication %d, "
              "physical %c, views %c, requests %lld..%lld B%s, "
              "BLOCK-CYCLIC(%lld) rows, %g s of timed set-ups, %d epilogue "
              "relayouts, 4 closed-loop clients\n",
              static_cast<long long>(s.n), static_cast<long long>(s.n),
              s.file_backend ? "file" : "memory", s.replication, s.phys0,
              s.view0, static_cast<long long>(s.churn ? s.churn_chunk : s.min_req),
              static_cast<long long>(s.churn ? s.churn_chunk : s.max_req),
              s.churn ? " (relayout/view rounds)"
                      : (s.sequential ? " (sequential sweeps)"
                                      : " (nested-strided + random)"),
              static_cast<long long>(cfb::kCyclicBlock), cfb::kSetupS, s.epilogue_rounds);
  std::printf("  why: %s\n", s.why.c_str());
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-36s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
    std::printf("\n");
  }
}

/// Parts-sum check (t_m + t_g + t_w against the measured access latency).
void print_parts_sum(const PassResult& r) {
  std::printf("  windows (accesses, write p50/p99 us, read p50/p99 us):");
  for (int w = 0; w < r.loop_win.full; ++w) {
    const std::size_t i = static_cast<std::size_t>(w);
    if (i >= r.win_ops.size() || i >= r.write_win.size() || i >= r.read_win.size()) break;
    std::printf(" [%lld %.1f/%.1f %.1f/%.1f %.4f]", static_cast<long long>(r.win_ops[i]),
                r.write_win[i].percentile(50), r.write_win[i].percentile(99),
                r.read_win[i].percentile(50), r.read_win[i].percentile(99),
                i < r.loop_win.steal.size() ? r.loop_win.steal[i] : -1.0);
  }
  std::printf("\n");
  const double share =
      r.latency_sum_us > 0 ? r.unaccounted_sum_us / r.latency_sum_us : 0;
  std::printf("  host: %.1f%% of CPU time stolen by the hypervisor during the "
              "measured loop; metrics use the quietest %zu of %d loop windows "
              "(%zu with a steal reading) and %zu of %d set-up windows (%zu)\n",
              r.steal_share * 100, quiet_windows(r.loop_win).size(), r.loop_win.full,
              read_windows(r.loop_win), quiet_windows(r.setup_win).size(),
              r.setup_win.full, read_windows(r.setup_win));
  std::printf("  parts-sum: latency - (t_m + t_g + t_w) is %.2f%% of access "
              "latency (over %lld accesses)%s\n",
              share * 100, static_cast<long long>(r.ops),
              share > 0.10 ? "  FLAG: t_m+t_g+t_w misses latency by >10%" : "");
}

/// Self time per span name: duration minus the part its children cover.
void print_self_times(const std::vector<cfb::Span>& spans) {
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const cfb::Span& s : spans)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  struct Row {
    std::int64_t count = 0, total = 0, self = 0;
  };
  std::map<std::string, Row> rows;
  for (const cfb::Span& s : spans) {
    Row& row = rows[s.name];
    ++row.count;
    row.total += s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    row.self += s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
  }
  std::printf("  span self times (unweighted):\n");
  for (const auto& [name, row] : rows)
    std::printf("    %-32s n=%-8lld total %12.1f us  self %12.1f us\n",
                name.c_str(), static_cast<long long>(row.count),
                static_cast<double>(row.total) / 1e3,
                static_cast<double>(row.self) / 1e3);
}

void write_spans(const std::vector<cfb::Span>& spans,
                 const std::filesystem::path& path) {
  std::ofstream out(path);
  for (const cfb::Span& s : spans)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}\n";
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: cfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::filesystem::path out = ".bench_build/perfbench-out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--out") out = v;
    else return usage();
  }
  if (argc % 2 == 0 || workload.empty() || seconds <= 0 || (trace != 0 && trace != 1))
    return usage();

  try {
    const Spec spec = cfb::make_spec(workload);
    const std::filesystem::path scratch =
        out / ("run-" + std::to_string(::getpid()));
    std::filesystem::create_directories(scratch);
    print_header(spec, seed, seconds, trace);

    const PassResult base = cfb::run_pass(spec, seed, seconds, scratch);
    const std::vector<Metric> e2e = end_to_end(base, peak_rss_mib());
    bool correct = pass_clean(base, "untraced") && metrics_valid(e2e, "untraced");
    std::int64_t attempted = base.attempted, failed = base.failed;
    std::printf("untraced pass:\n");
    print_metrics(e2e);
    print_metrics(tails(base));
    print_parts_sum(base);

    std::vector<Metric> result = e2e;
    if (trace == 1) {
      cfb::Tracer::set_enabled(true);
      const PassResult traced = cfb::run_pass(spec, seed, seconds, scratch);
      const std::vector<Metric> e2e_t = end_to_end(traced, peak_rss_mib());
      correct = pass_clean(traced, "traced") && metrics_valid(e2e_t, "traced") && correct;
      attempted += traced.attempted;
      failed += traced.failed;
      std::printf("traced pass:\n");
      print_metrics(e2e_t);
      print_metrics(tails(traced));
      print_parts_sum(traced);
      std::printf("  tracing overhead (traced / untraced, same seed):\n");
      for (std::size_t i = 0; i < e2e.size(); ++i)
        std::printf("    %-18s %.4f\n", e2e[i].name.c_str(),
                    e2e_t[i].value / e2e[i].value);

      std::vector<Metric> layers = cfb::replay_layers(spec, traced, seed, scratch);
      cfb::Tracer::set_enabled(false);
      auto ratio = [&](const char* name) {
        for (std::size_t i = 0; i < e2e.size(); ++i)
          if (e2e[i].name == name) return e2e_t[i].value / e2e[i].value;
        return 0.0;
      };
      layers.push_back({"trace.overhead_write_p50", ratio("write_p50_us"), "ratio"});
      layers.push_back({"trace.overhead_read_p50", ratio("read_p50_us"), "ratio"});
      layers.push_back({"trace.overhead_ops_per_s", ratio("ops_per_s"), "ratio"});
      for (const Metric& m : tails(traced))
        layers.push_back({"client." + m.name, m.value, m.unit, m.samples});

      const std::vector<cfb::Span> spans = cfb::Tracer::drain();
      const std::filesystem::path span_file = out / ("spans-" + workload + ".jsonl");
      write_spans(spans, span_file);
      std::printf("  %zu spans written to %s\n", spans.size(),
                  span_file.string().c_str());
      print_self_times(spans);

      result = layers;
      std::printf("per-layer metrics:\n");
      print_metrics(result);
    }
    std::filesystem::remove_all(scratch);
    print_result(correct, attempted, failed, result);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cfbench: %s\n", e.what());
    return 1;
  }
}
