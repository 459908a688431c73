// Shared declarations of the Clusterfile benchmark (cfbench).
//
// The benchmark drives the paper's section 8.2 topology — four compute nodes
// and four I/O nodes in one process — with one closed-loop load thread per
// compute node, checks every byte it reads against a shadow image of the
// file, and reports end-to-end metrics. A traced run additionally records
// spans around every call the benchmark makes into a layer and replays the
// workload's inputs through each layer's public functions on its own
// (layers.cpp), which yields the per-layer metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clusterfile/fs.h"
#include "file_model/pattern.h"
#include "util/buffer.h"
#include "util/stats.h"

namespace cfb {

using pfm::Buffer;

using Clock = std::chrono::steady_clock;
inline constexpr int kNodes = 4;  // 4 compute + 4 I/O nodes, as in the paper
/// The measured loop is cut into windows of this length; latencies and
/// throughputs are taken over the windows with the least CPU steal, so a
/// burst of interference from outside the benchmark moves a few windows,
/// not the run. Short windows find clean intervals even between frequent
/// bursts; /proc/stat counts steal in 10 ms ticks, 100 per window on 4 CPUs.
inline constexpr double kWindowS = 0.25;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------- spans --

/// One timed call: name, start and end (ns since the tracer's epoch), the
/// span that caused it (0 = root) and the request it belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
};

/// In-memory span store: each thread appends to its own buffer, so
/// recording takes no lock; drain() merges the buffers once every recording
/// thread has been joined. Disabled by default (record() is then a no-op).
class Tracer {
 public:
  static void set_enabled(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  /// Records a finished span under `id` (from next_id()).
  static void record(const char* name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t id,
                     std::uint64_t parent, std::uint64_t req);
  static std::vector<Span> drain();

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<std::uint64_t> ids_;
};

/// Times one scope into a span when tracing is on; children pass `id` as
/// their parent.
class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t parent, std::uint64_t req)
      : name_(name), parent_(parent), req_(req),
        id_(Tracer::enabled() ? Tracer::next_id() : 0), start_(Clock::now()) {}
  ~SpanScope() {
    if (id_ != 0)
      Tracer::record(name_, start_, Clock::now(), id_, parent_, req_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t req_;
  std::uint64_t id_;
  Clock::time_point start_;
};

/// One reported metric, with the unit it is reported in and the number of
/// samples behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

// ------------------------------------------------------------ histogram --

/// Latency histogram with logarithmic buckets 0.5 % wide from 0.1 µs to
/// about 16 s: its memory is fixed however many samples land in it, so the
/// benchmark's own footprint (and peak_rss_mib) does not grow with
/// throughput. Percentiles interpolate inside the bucket.
class Histogram {
 public:
  void add(double us);
  void merge(const Histogram& other);
  std::int64_t count() const { return count_; }
  /// p in [0, 100]; 0 when empty.
  double percentile(double p) const;

 private:
  static constexpr double kMinUs = 0.1;
  static constexpr double kGrowth = 1.005;
  static constexpr std::size_t kBuckets = 3800;
  static double lower_edge(std::size_t b);
  std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(kBuckets);
  std::int64_t count_ = 0;
};

// ------------------------------------------------------------- geometry --

/// Rows per block of layout 'k'.
inline constexpr std::int64_t kCyclicBlock = 16;
/// Length of the set-up phase: cluster set-ups are repeated for this long,
/// in windows like the measured loop's.
inline constexpr double kSetupS = 3.0;

/// Layouts of the N x N byte matrix over four elements: the paper's row
/// blocks 'r', column blocks 'c' and square blocks 'b', plus 'k', rows
/// distributed BLOCK-CYCLIC(kCyclicBlock) (src/layout).
pfm::PartitioningPattern make_layout(char kind, std::int64_t n);
/// The next physical layout of the relayout cycle c -> b -> r -> k -> c.
char next_physical(char kind);

/// A logical view element as a rectangle of the matrix. View byte k lies at
/// row r0 + k / width, column c0 + k % width (row-major inside the block),
/// which is how the shadow image locates it without the library's algebra.
struct Rect {
  std::int64_t r0 = 0, c0 = 0, rows = 0, cols = 0;
  std::int64_t bytes() const { return rows * cols; }
};
Rect view_rect(char kind, std::int64_t n, int elem);
/// The same view element as the FALLS set handed to set_view.
pfm::FallsSet view_falls(char kind, std::int64_t n, int elem);

/// Invokes fn(file_off, rel, len) for every row piece of view bytes
/// [v, v + len): rel is the piece's offset from v.
template <typename Fn>
void for_each_piece(const Rect& r, std::int64_t n, std::int64_t v,
                    std::int64_t len, Fn&& fn) {
  for (std::int64_t k = v; k < v + len;) {
    const std::int64_t row = k / r.cols, col = k % r.cols;
    const std::int64_t piece = std::min(r.cols - col, v + len - k);
    fn((r.r0 + row) * n + r.c0 + col, k - v, piece);
    k += piece;
  }
}

// ------------------------------------------------------------ workloads --

struct Spec {
  std::string name;
  std::string why;
  std::int64_t n = 1024;        ///< matrix edge in bytes
  bool file_backend = false;    ///< subfiles on disk (else memory)
  int replication = 1;
  char phys0 = 'c';             ///< physical layout at set-up
  char view0 = 'r';             ///< logical partition of the first views
  std::int64_t min_req = 64;    ///< request sizes of the access loop
  std::int64_t max_req = 4096;
  bool sequential = false;      ///< sequential sweeps (else strided mix)
  bool churn = false;           ///< relayout/view rounds instead of an
                                ///< access loop
  std::int64_t churn_chunk = 0; ///< request size of a churn round
  int epilogue_rounds = 0;      ///< verification relayouts after the loop
};

const std::vector<std::string>& workload_names();
Spec make_spec(const std::string& name);

/// One client request, kept (capped) so the traced run can replay it
/// through the layers.
struct OpDesc {
  char phys = 'r';
  char view = 'r';
  int client = 0;
  std::int64_t v = 0;
  std::int64_t len = 0;
  bool write = false;
};

/// A phase cut into windows of kWindowS, with the CPU steal of each.
struct Windows {
  int full = 0;               ///< windows that fit in the phase
  std::vector<double> steal;  ///< CPU steal share per window, as sampled
};

/// A sample taken in window `win` of its phase.
struct Sample {
  int win = 0;
  double value = 0;
};

/// Everything one pass measured.
struct PassResult {
  // end to end
  Windows setup_win, loop_win;
  std::vector<Sample> setup_s;       ///< seconds per set-up
  std::vector<Sample> setup_view_us; ///< the set-ups' set_views
  std::vector<Sample> loop_view_us;  ///< the measured loop's set_views
  std::vector<Histogram> write_win, read_win;  ///< latencies per loop window
  std::vector<std::int64_t> win_ops, win_bytes;
  double steal_share = 0;         ///< CPU steal during the measured loop
  pfm::Stats view_total_us, view_t_i_us;  ///< every set_view of the pass
  struct Relayout {
    double seconds = 0;
    std::int64_t bytes = 0;
    std::int64_t stolen_ticks = 0;  ///< CPU ticks stolen during the call
    std::int64_t ticks = 0;         ///< all CPU ticks during the call
  };
  std::vector<Relayout> relayout_log;  ///< every relayout, in order
  std::int64_t ops = 0;           ///< measured accesses
  std::int64_t bytes = 0;         ///< measured payload bytes
  std::int64_t attempted = 0;     ///< every access, set_view and relayout
  std::int64_t failed = 0;
  std::int64_t mismatches = 0;    ///< reads that differed from the shadow
  std::string first_error;
  // client phases of the measured accesses (traced pass only)
  pfm::Stats t_m_us, t_g_us, t_w_us, unaccounted_us;
  pfm::Stats write_t_w_us;
  double latency_sum_us = 0, unaccounted_sum_us = 0;
  std::int64_t plan_hits = 0, plan_misses = 0;
  // cluster counters over the measured loop
  std::int64_t net_messages = 0, net_bytes = 0;
  double wire_modeled_us = 0;
  double server_scatter_us = 0;   ///< summed over the I/O servers
  std::int64_t server_writes = 0;
  // fault-free checks over the whole pass
  pfm::ReliabilityCounters client_rel, server_rel;
  std::int64_t stragglers = 0;
  // replay inputs
  std::vector<OpDesc> ops_sample;
  std::map<std::pair<char, char>, std::int64_t> set_views;  ///< (view, phys)
  std::vector<std::pair<char, char>> relayouts;             ///< (from, to)
  /// set_views and relayouts of the measured loop (the rest are set-up and
  /// epilogue), which weight the replayed layer work
  std::map<std::pair<char, char>, std::int64_t> loop_set_views;
  std::map<std::pair<char, char>, std::int64_t> loop_relayouts;
};

/// Runs one pass of the workload: kSetupS seconds of timed set-ups,
/// warm-up, the measured closed loop for `seconds`, and the verification
/// epilogue.
PassResult run_pass(const Spec& spec, std::uint64_t seed, double seconds,
                    const std::filesystem::path& scratch);

// --------------------------------------------------------------- layers --

/// Per-layer metrics of a traced pass (BENCHMARK.json per_layer).
std::vector<Metric> replay_layers(const Spec& spec, const PassResult& pass,
                                  std::uint64_t seed,
                                  const std::filesystem::path& scratch);

}  // namespace cfb
