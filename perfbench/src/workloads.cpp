// End-to-end passes of the three workloads: timed set-ups, warm-up, the
// closed loop (each client sends its next request only after the previous
// one returned), and the verification epilogue. Every byte read is
// compared against a shadow image of the file.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "layout/array_layout.h"
#include "layout/dist.h"
#include "layout/partitions2d.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace cfb {

// ---------------------------------------------------------------- spans --

std::atomic<bool> Tracer::enabled_{false};
std::atomic<std::uint64_t> Tracer::ids_{0};

namespace {

const Clock::time_point kEpoch = Clock::now();

struct SpanBuffers {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> all;
};
SpanBuffers& span_buffers() {
  static SpanBuffers b;
  return b;
}

std::vector<Span>& local_spans() {
  thread_local std::vector<Span>* mine = nullptr;
  if (mine == nullptr) {
    SpanBuffers& b = span_buffers();
    std::lock_guard lock(b.mu);
    b.all.push_back(std::make_unique<std::vector<Span>>());
    mine = b.all.back().get();
  }
  return *mine;
}

std::int64_t since_epoch_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch).count();
}

}  // namespace

void Tracer::set_enabled(bool on) { enabled_.store(on); }

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id,
                    std::uint64_t parent, std::uint64_t req) {
  local_spans().push_back(
      {name, since_epoch_ns(start), since_epoch_ns(end), id, parent, req});
}

std::vector<Span> Tracer::drain() {
  SpanBuffers& b = span_buffers();
  std::lock_guard lock(b.mu);
  std::vector<Span> out;
  for (auto& buf : b.all) {
    out.insert(out.end(), buf->begin(), buf->end());
    buf->clear();
  }
  return out;
}

// ------------------------------------------------------------ histogram --

double Histogram::lower_edge(std::size_t b) {
  return kMinUs * std::pow(kGrowth, static_cast<double>(b));
}

void Histogram::add(double us) {
  const double b = us > kMinUs ? std::log(us / kMinUs) / std::log(kGrowth) : 0;
  ++buckets_[std::min(static_cast<std::size_t>(b), kBuckets - 1)];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const double rank = p / 100 * static_cast<double>(count_ - 1);
  double below = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double here = buckets_[b];
    if (below + here > rank) {
      const double frac = (rank - below + 0.5) / here;
      return lower_edge(b) + frac * (lower_edge(b + 1) - lower_edge(b));
    }
    below += here;
  }
  return lower_edge(kBuckets);
}

// ------------------------------------------------------------- geometry --

pfm::PartitioningPattern make_layout(char kind, std::int64_t n) {
  if (kind == 'k') {
    const pfm::ArrayDesc a{{n, n}, 1};
    const pfm::Dist dists[2] = {pfm::Dist::block_cyclic(kCyclicBlock),
                                pfm::Dist::none()};
    return pfm::make_pattern(
        pfm::layout_all(a, dists, pfm::GridDesc{{kNodes, 1}}));
  }
  return pfm::make_pattern(pfm::partition2d_all(
      pfm::partition2d_from_char(kind), n, n, kNodes));
}

char next_physical(char kind) {
  switch (kind) {
    case 'c': return 'b';
    case 'b': return 'r';
    case 'r': return 'k';
    default: return 'c';
  }
}

Rect view_rect(char kind, std::int64_t n, int elem) {
  const std::int64_t q = n / kNodes, h = n / 2, e = elem;
  switch (kind) {
    case 'r': return {e * q, 0, q, n};
    case 'c': return {0, e * q, n, q};
    case 'b': return {(e / 2) * h, (e % 2) * h, h, h};
  }
  throw std::invalid_argument("view_rect: logical partition must be r, c or b");
}

pfm::FallsSet view_falls(char kind, std::int64_t n, int elem) {
  return pfm::partition2d_falls(pfm::partition2d_from_char(kind), n, n, kNodes,
                                elem);
}

namespace {

/// The shadow image locates view bytes through Rect, independently of the
/// FALLS algebra under test; this confirms once per pass that both agree.
void check_rects(std::int64_t n) {
  for (const char kind : {'r', 'c', 'b'}) {
    for (int e = 0; e < kNodes; ++e) {
      const Rect r = view_rect(kind, n, e);
      std::vector<pfm::LineSegment> want;
      for (std::int64_t row = 0; row < r.rows; ++row) {
        const std::int64_t lo = (r.r0 + row) * n + r.c0;
        if (!want.empty() && want.back().r + 1 == lo)
          want.back().r = lo + r.cols - 1;
        else
          want.push_back({lo, lo + r.cols - 1});
      }
      const pfm::IndexSet got(view_falls(kind, n, e), n * n);
      bool same = got.runs().size() == want.size();
      for (std::size_t i = 0; same && i < want.size(); ++i)
        same = got.runs()[i].l == want[i].l && got.runs()[i].r == want[i].r;
      if (!same)
        throw std::logic_error(std::string("view rectangle of '") + kind +
                               "' element " + std::to_string(e) +
                               " disagrees with its FALLS set");
    }
  }
}

}  // namespace

// ------------------------------------------------------------ workloads --

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "small_strided_mismatch", "bulk_replicated_file", "relayout_view_churn"};
  return names;
}

Spec make_spec(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "small_strided_mismatch") {
    s.why = "worst-matched layout (c under r views) with 64 B-4 KiB requests: "
            "time goes to plan acquisition, gather/scatter and per-subfile "
            "messages; storage is memory";
    s.n = 1024;
    s.phys0 = 'c';
    s.min_req = 64;
    s.max_req = 4096;
    s.epilogue_rounds = 48;
  } else if (name == "bulk_replicated_file") {
    s.why = "perfect match (r under r) on disk with replication 2: mapping and "
            "gather near zero, time goes to payload, fan-out, CRC32C, "
            "writev/readv and fdatasync";
    s.n = 2048;
    s.file_backend = true;
    s.replication = 2;
    s.phys0 = 'r';
    s.sequential = true;
    s.min_req = 64 << 10;
    s.max_req = 1 << 20;
    s.epilogue_rounds = 48;
  } else if (name == "relayout_view_churn") {
    s.why = "each round relayouts c->b->r->k and sets fresh r/c/b views: time "
            "goes to set_view (intersect + PROJ) and redist plan/execute";
    s.n = 2048;
    s.phys0 = 'c';
    s.churn = true;
    s.churn_chunk = 256 << 10;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

namespace {

constexpr std::size_t kSampleCap = 512;  // replay inputs kept per client

/// A client's request stream, generated from the seed with src/workload.
/// Strided streams alternate a nested-strided trace of 32 requests (its
/// plan keys stay resident in the 64-entry plan cache) with segments of 32
/// fresh random-offset requests (their keys never repeat); the nested trace
/// is redrawn every kNestedReuse turns so a run covers many record sizes.
/// Sequential streams sweep the view in chunks of a size drawn per sweep.
class OpStream {
 public:
  OpStream(const Spec& s, std::uint64_t seed, int client, std::int64_t view)
      : spec_(s), rng_(seed * 7919 + static_cast<std::uint64_t>(client) + 1),
        view_(view) {}

  pfm::AccessOp next(bool& write) {
    if (pos_ == seg_.size()) refill();
    write = rng_.chance(0.5);
    return seg_[pos_++];
  }

 private:
  void refill() {
    pos_ = 0;
    if (spec_.sequential) {
      std::int64_t chunk = spec_.min_req;
      for (std::int64_t k = rng_.uniform(0, 4); k > 0 && chunk < spec_.max_req; --k)
        chunk *= 2;
      seg_ = pfm::make_sequential(view_, chunk);
    } else if ((nested_turn_ = !nested_turn_)) {
      if (nested_turns_++ % kNestedReuse == 0) {
        const std::int64_t record = rng_.uniform(spec_.min_req, spec_.max_req);
        const std::int64_t stride = record + rng_.uniform(0, 2048);
        const std::int64_t outer = 8 * stride + rng_.uniform(0, 4096);
        const std::int64_t span = 3 * outer + 7 * stride + record;
        nested_ = pfm::make_nested_strided(rng_.uniform(0, view_ - span), record,
                                           stride, 8, outer, 4);
      }
      seg_ = nested_;
    } else {
      seg_ = pfm::make_random(rng_, view_,
                              rng_.uniform(spec_.min_req, spec_.max_req), 32);
    }
  }

  const Spec& spec_;
  pfm::Rng rng_;
  std::int64_t view_;
  pfm::AccessTrace nested_, seg_;
  std::size_t pos_ = 0;
  bool nested_turn_ = false;
  std::int64_t nested_turns_ = 0;
  static constexpr std::int64_t kNestedReuse = 16;
};

/// Per-thread accounting, merged into the PassResult after the join.
struct ClientLog {
  std::vector<double> t_m, t_g, t_w, unacc, write_t_w;
  std::vector<Histogram> write_win, read_win;  ///< latencies per window
  std::vector<std::int64_t> win_ops, win_bytes;
  std::vector<double> view_total, view_t_i;
  std::vector<Sample> loop_views;
  double lat_sum = 0, unacc_sum = 0;
  std::int64_t ops = 0, bytes = 0, attempted = 0, failed = 0, mismatches = 0;
  std::int64_t hits = 0, misses = 0;
  std::vector<OpDesc> sample;
  std::string error;

  void fail(const std::string& what) {
    ++failed;
    if (error.empty()) error = what;
  }
};

struct Ctx {
  const Spec& spec;
  Buffer& shadow;
  std::atomic<std::uint64_t>& req_ids;
  Clock::time_point start{};  ///< of the measured loop
};

Clock::duration seconds_from(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// The window, of a phase that began at `start`, that t falls in.
int window_of(Clock::time_point start, Clock::time_point t) {
  return static_cast<int>(us_between(start, t) / 1e6 / kWindowS);
}

/// The measured-loop window t falls in.
int window_of(const Ctx& ctx, Clock::time_point t) { return window_of(ctx.start, t); }

/// One client in one phase: the client, its view and where it lies.
struct Seat {
  pfm::ClusterfileClient* cl = nullptr;
  int client = 0;
  std::int64_t vid = 0;
  char view = 'r';
  char phys = 'r';
  Rect rect;
};

/// One access through the client; checks status and, for reads, every
/// byte against the shadow. Only `measured` accesses enter the metrics.
void access(Ctx& ctx, const Seat& s, std::int64_t v, std::int64_t len,
            bool write, std::span<const std::byte> data, Buffer& rbuf,
            ClientLog& log, bool measured) {
  const std::int64_t n = ctx.spec.n;
  ++log.attempted;
  try {
    pfm::ClusterfileClient::AccessTimings t;
    const std::uint64_t req = ++ctx.req_ids;
    const Clock::time_point t0 = Clock::now();
    if (write) {
      t = s.cl->write(s.vid, v, v + len - 1, data.first(static_cast<std::size_t>(len)));
    } else {
      rbuf.resize(static_cast<std::size_t>(len));
      t = s.cl->read(s.vid, v, v + len - 1, rbuf);
    }
    const Clock::time_point t1 = Clock::now();
    if (Tracer::enabled())
      Tracer::record(write ? "clusterfile.client.write" : "clusterfile.client.read",
                     t0, t1, Tracer::next_id(), 0, req);
    bool ok = true;
    for (const pfm::SubfileAccess& sa : t.per_subfile)
      ok = ok && sa.status == pfm::AccessStatus::kOk;
    if (!ok) {
      log.fail("access returned a non-OK subfile status");
      return;
    }
    if (write) {
      for_each_piece(s.rect, n, v, len, [&](std::int64_t f, std::int64_t rel, std::int64_t l) {
        std::memcpy(ctx.shadow.data() + f, data.data() + rel, static_cast<std::size_t>(l));
      });
    } else {
      bool same = true;
      for_each_piece(s.rect, n, v, len, [&](std::int64_t f, std::int64_t rel, std::int64_t l) {
        same = same && std::memcmp(ctx.shadow.data() + f, rbuf.data() + rel,
                                   static_cast<std::size_t>(l)) == 0;
      });
      if (!same) {
        ++log.mismatches;
        log.fail("read returned bytes that differ from the shadow image");
        return;
      }
    }
    if (!measured) return;
    const double lat = us_between(t0, t1);
    const int win = window_of(ctx, t0);
    std::vector<Histogram>& hist = write ? log.write_win : log.read_win;
    if (hist.size() <= static_cast<std::size_t>(win))
      hist.resize(static_cast<std::size_t>(win) + 1);
    hist[static_cast<std::size_t>(win)].add(lat);
    const double unacc = lat - (t.t_m_us + t.t_g_us + t.t_w_us);
    log.lat_sum += lat;
    log.unacc_sum += unacc;
    log.hits += t.plan_hits;
    log.misses += t.plan_misses;
    ++log.ops;
    log.bytes += len;
    if (log.win_ops.size() <= static_cast<std::size_t>(win)) {
      log.win_ops.resize(static_cast<std::size_t>(win) + 1);
      log.win_bytes.resize(static_cast<std::size_t>(win) + 1);
    }
    ++log.win_ops[static_cast<std::size_t>(win)];
    log.win_bytes[static_cast<std::size_t>(win)] += len;
    if (!Tracer::enabled()) return;  // per-access phases feed the layer metrics
    log.t_m.push_back(t.t_m_us);
    log.t_g.push_back(t.t_g_us);
    log.t_w.push_back(t.t_w_us);
    if (write) log.write_t_w.push_back(t.t_w_us);
    log.unacc.push_back(unacc);
    if (log.sample.size() < kSampleCap)
      log.sample.push_back({s.phys, s.view, s.client, v, len, write});
  } catch (const std::exception& e) {
    log.fail(e.what());
  }
}

/// Sets client c's view and records its cost; `win` is the measured-loop
/// window it falls in, or -1 outside the loop.
Seat seat(Ctx& ctx, pfm::Clusterfile& fs, int c, char view, char phys,
          ClientLog& log, int win = -1) {
  Seat s;
  s.cl = &fs.client(c);
  s.client = c;
  s.view = view;
  s.phys = phys;
  s.rect = view_rect(view, ctx.spec.n, c);
  ++log.attempted;
  const Clock::time_point t0 = Clock::now();
  s.vid = s.cl->set_view(view_falls(view, ctx.spec.n, c), ctx.spec.n * ctx.spec.n);
  if (Tracer::enabled())
    Tracer::record("clusterfile.client.set_view", t0, Clock::now(),
                   Tracer::next_id(), 0, ++ctx.req_ids);
  log.view_total.push_back(s.cl->last_view_total_us());
  log.view_t_i.push_back(s.cl->last_view_set_us());
  if (win >= 0) log.loop_views.push_back({win, s.cl->last_view_total_us()});
  return s;
}

/// Runs fn(c, log) on one thread per client and merges the logs.
template <typename Fn>
void on_clients(PassResult& r, Fn&& fn) {
  std::vector<ClientLog> logs(kNodes);
  std::vector<std::thread> threads;
  for (int c = 0; c < kNodes; ++c)
    threads.emplace_back([&, c] {
      try {
        fn(c, logs[static_cast<std::size_t>(c)]);
      } catch (const std::exception& e) {
        logs[static_cast<std::size_t>(c)].fail(e.what());
      }
    });
  for (std::thread& t : threads) t.join();
  auto put = [](pfm::Stats& s, const std::vector<double>& xs) {
    for (const double x : xs) s.add(x);
  };
  auto put_win = [](std::vector<Histogram>& into, const std::vector<Histogram>& from) {
    if (into.size() < from.size()) into.resize(from.size());
    for (std::size_t w = 0; w < from.size(); ++w) into[w].merge(from[w]);
  };
  for (ClientLog& l : logs) {
    put_win(r.write_win, l.write_win);
    put_win(r.read_win, l.read_win);
    if (r.win_ops.size() < l.win_ops.size()) {
      r.win_ops.resize(l.win_ops.size());
      r.win_bytes.resize(l.win_ops.size());
    }
    for (std::size_t w = 0; w < l.win_ops.size(); ++w) {
      r.win_ops[w] += l.win_ops[w];
      r.win_bytes[w] += l.win_bytes[w];
    }
    put(r.t_m_us, l.t_m);
    put(r.t_g_us, l.t_g);
    put(r.t_w_us, l.t_w);
    put(r.write_t_w_us, l.write_t_w);
    put(r.unaccounted_us, l.unacc);
    put(r.view_total_us, l.view_total);
    put(r.view_t_i_us, l.view_t_i);
    r.latency_sum_us += l.lat_sum;
    r.unaccounted_sum_us += l.unacc_sum;
    r.ops += l.ops;
    r.bytes += l.bytes;
    r.attempted += l.attempted;
    r.failed += l.failed;
    r.mismatches += l.mismatches;
    r.plan_hits += l.hits;
    r.plan_misses += l.misses;
    r.ops_sample.insert(r.ops_sample.end(), l.sample.begin(), l.sample.end());
    r.loop_view_us.insert(r.loop_view_us.end(), l.loop_views.begin(), l.loop_views.end());
    if (r.first_error.empty()) r.first_error = l.error;
  }
}

/// Folds the counters of the current clients and servers into the pass:
/// relayout replaces both, so this runs before every relayout and at the end.
void absorb_counters(pfm::Clusterfile& fs, PassResult& r) {
  r.client_rel += fs.client_reliability();
  r.server_rel += fs.server_reliability();
  r.stragglers += fs.stragglers_completed() + fs.stragglers_abandoned();
}

/// The machine-wide CPU tick counters of /proc/stat (empty if unreadable).
std::vector<std::int64_t> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::vector<std::int64_t> ticks;
  std::int64_t t = 0;
  while (cpu == "cpu" && ticks.size() < 8 && stat >> t) ticks.push_back(t);
  return ticks;
}

/// CPU ticks between two cpu_ticks() readings: those the hypervisor gave
/// to other guests (field 8 of /proc/stat is steal), and all of them.
std::pair<std::int64_t, std::int64_t> ticks_between(const std::vector<std::int64_t>& a,
                                                    const std::vector<std::int64_t>& b) {
  if (a.size() < 8 || b.size() < 8) return {0, 0};
  std::int64_t total = 0;
  for (std::size_t i = 0; i < 8; ++i) total += b[i] - a[i];
  return {b[7] - a[7], total};
}

/// Share of CPU time stolen between two cpu_ticks() readings.
double steal_share(const std::vector<std::int64_t>& a,
                   const std::vector<std::int64_t>& b) {
  const auto [stolen, total] = ticks_between(a, b);
  return total > 0 ? static_cast<double>(stolen) / static_cast<double>(total) : 0;
}

/// Samples /proc/stat at every window boundary of the measured loop, so the
/// CPU steal of each window is known.
class StealSampler {
 public:
  StealSampler(Clock::time_point start, int windows)
      : thread_([this, start, windows] {
          std::vector<std::int64_t> prev = cpu_ticks();
          for (int w = 1; w <= windows; ++w) {
            const auto at = start + seconds_from(w * kWindowS);
            std::unique_lock lock(mu_);
            if (cv_.wait_until(lock, at, [this] { return stop_; })) return;
            std::vector<std::int64_t> now = cpu_ticks();
            steal_.push_back(steal_share(prev, now));
            prev = std::move(now);
          }
        }) {}
  ~StealSampler() { finish(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Stops sampling; returns the steal share of every window sampled.
  std::vector<double> finish() {
    if (thread_.joinable()) {
      {
        std::lock_guard lock(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      thread_.join();
    }
    return steal_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> steal_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Every I/O server: each holds one subfile's primary copy.
std::set<pfm::IoServer*> servers(pfm::Clusterfile& fs) {
  std::set<pfm::IoServer*> all;
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) all.insert(&fs.server_for(i));
  return all;
}

std::unique_ptr<pfm::Clusterfile> make_cluster(const Spec& spec,
                                               const std::filesystem::path& dir) {
  pfm::ClusterConfig cfg;
  cfg.compute_nodes = kNodes;
  cfg.io_nodes = kNodes;
  cfg.replication = spec.replication;
  if (spec.file_backend) cfg.storage_dir = dir;
  return std::make_unique<pfm::Clusterfile>(
      cfg, make_layout(spec.phys0, spec.n));
}

/// Relayouts to the next physical layout, noting the CPU steal during it.
void relayout(pfm::Clusterfile& fs, const Spec& spec, char& phys, PassResult& r,
              std::atomic<std::uint64_t>& req_ids) {
  absorb_counters(fs, r);
  const char next = next_physical(phys);
  ++r.attempted;
  pfm::PartitioningPattern layout = make_layout(next, spec.n);
  const std::vector<std::int64_t> k0 = cpu_ticks();
  const Clock::time_point t0 = Clock::now();
  const pfm::RedistStats st = fs.relayout(std::move(layout), spec.n * spec.n);
  const Clock::time_point t1 = Clock::now();
  const auto [stolen, ticks] = ticks_between(k0, cpu_ticks());
  if (Tracer::enabled())
    Tracer::record("clusterfile.relayout", t0, t1, Tracer::next_id(), 0, ++req_ids);
  r.relayout_log.push_back({us_between(t0, t1) / 1e6, st.bytes_moved, stolen, ticks});
  r.relayouts.push_back({phys, next});
  phys = next;
}

/// Reads client c's whole view through `s` in chunks and checks it.
void read_view(Ctx& ctx, const Seat& s, std::int64_t chunk, Buffer& rbuf,
               ClientLog& log, bool measured) {
  const std::int64_t bytes = s.rect.bytes();
  for (std::int64_t v = 0; v < bytes; v += chunk)
    access(ctx, s, v, std::min(chunk, bytes - v), false, {}, rbuf, log, measured);
}

}  // namespace

PassResult run_pass(const Spec& spec, std::uint64_t seed, double seconds,
                    const std::filesystem::path& scratch) {
  check_rects(spec.n);
  PassResult r;
  const std::int64_t n = spec.n;
  Buffer shadow(static_cast<std::size_t>(n * n));
  std::atomic<std::uint64_t> req_ids{0};
  Ctx ctx{spec, shadow, req_ids};
  const std::filesystem::path dir = scratch / "storage";
  if (spec.file_backend) std::filesystem::create_directories(dir);

  // Set-up: cluster construction plus every client's first set_view,
  // repeated for kSetupS seconds in steal-sampled windows (the last cluster
  // is kept), so setup_s can skip the windows a burst of steal hit.
  std::vector<Seat> seats(kNodes);
  std::unique_ptr<pfm::Clusterfile> fs;
  {
    const Clock::time_point begin = Clock::now();
    r.setup_win.full = static_cast<int>(kSetupS / kWindowS);
    StealSampler sampler(begin, r.setup_win.full);
    const Clock::time_point until = begin + seconds_from(kSetupS);
    do {
      fs.reset();  // clusters share the storage directory: one at a time
      const Clock::time_point t0 = Clock::now();
      fs = make_cluster(spec, dir);
      on_clients(r, [&](int c, ClientLog& log) {
        seats[static_cast<std::size_t>(c)] = seat(ctx, *fs, c, spec.view0, spec.phys0, log);
      });
      const Clock::time_point t1 = Clock::now();
      if (Tracer::enabled())
        Tracer::record("clusterfile.setup", t0, t1, Tracer::next_id(), 0, ++req_ids);
      const int win = window_of(begin, t0);
      r.setup_s.push_back({win, us_between(t0, t1) / 1e6});
      for (const Seat& st : seats)
        r.setup_view_us.push_back({win, st.cl->last_view_total_us()});
      r.set_views[{spec.view0, spec.phys0}] += kNodes;
    } while (Clock::now() < until && r.failed == 0);
    r.setup_win.steal = sampler.finish();
  }
  if (r.failed > 0) return r;  // a client without a view cannot go on
  char phys = spec.phys0;

  // Warm-up: write every view once (the shadow starts from these bytes),
  // then run requests until the plan caches hold the repeated keys.
  std::vector<Buffer> src(kNodes);
  for (int c = 0; c < kNodes; ++c)
    src[static_cast<std::size_t>(c)] = pfm::make_pattern_buffer(
        static_cast<std::size_t>(2 * std::max(seats[0].rect.bytes(), spec.max_req)),
        seed * 131 + static_cast<std::uint64_t>(c));
  std::vector<std::unique_ptr<OpStream>> streams(kNodes);
  on_clients(r, [&](int c, ClientLog& log) {
    const Seat& s = seats[static_cast<std::size_t>(c)];
    const Buffer& data = src[static_cast<std::size_t>(c)];
    Buffer rbuf;
    const std::int64_t bytes = s.rect.bytes();
    const std::int64_t chunk = std::min<std::int64_t>(bytes, 1 << 20);
    for (std::int64_t v = 0; v < bytes; v += chunk)
      access(ctx, s, v, std::min(chunk, bytes - v), true,
             std::span<const std::byte>(data).subspan(static_cast<std::size_t>(v)),
             rbuf, log, false);
    if (spec.churn) return;
    auto& st = streams[static_cast<std::size_t>(c)];
    st = std::make_unique<OpStream>(spec, seed, c, bytes);
    pfm::Rng pick(seed + 17 * static_cast<std::uint64_t>(c));
    for (int i = 0; i < 128; ++i) {
      bool write = false;
      const pfm::AccessOp op = st->next(write);
      access(ctx, s, op.offset, op.len, write,
             std::span<const std::byte>(data).subspan(
                 static_cast<std::size_t>(pick.uniform(0, spec.max_req))),
             rbuf, log, false);
    }
  });

  if (r.failed > 0) return r;

  // The measured loop.
  const std::int64_t msgs0 = fs->network().messages_sent();
  const std::int64_t bytes0 = fs->network().bytes_sent();
  const double wire0 = fs->network().simulated_wire_us();
  fs->reset_server_phases();
  const std::vector<std::int64_t> ticks0 = cpu_ticks();
  const Clock::time_point start = Clock::now();
  ctx.start = start;
  r.loop_win.full = static_cast<int>(seconds / kWindowS);
  StealSampler sampler(start, r.loop_win.full);
  const Clock::time_point deadline = start + seconds_from(seconds);
  if (!spec.churn) {
    on_clients(r, [&](int c, ClientLog& log) {
      const Seat& s = seats[static_cast<std::size_t>(c)];
      const Buffer& data = src[static_cast<std::size_t>(c)];
      OpStream& st = *streams[static_cast<std::size_t>(c)];
      pfm::Rng pick(seed * 31 + static_cast<std::uint64_t>(c));
      Buffer rbuf;
      while (Clock::now() < deadline) {
        bool write = false;
        const pfm::AccessOp op = st.next(write);
        access(ctx, s, op.offset, op.len, write,
               std::span<const std::byte>(data).subspan(
                   static_cast<std::size_t>(pick.uniform(0, spec.max_req))),
               rbuf, log, true);
      }
    });
    r.net_messages = fs->network().messages_sent() - msgs0;
    r.net_bytes = fs->network().bytes_sent() - bytes0;
    r.wire_modeled_us = fs->network().simulated_wire_us() - wire0;
    for (pfm::IoServer* sv : servers(*fs)) {
      r.server_scatter_us += sv->scatter_us();
      r.server_writes += sv->writes_served();
    }
  } else {
    // Relayout/view churn: each round relayouts to the next physical layout,
    // gives every client a fresh view of the next logical partition, reads
    // the whole view back (checking the relayout), then writes it once and
    // reads it back.
    const char views[3] = {'r', 'c', 'b'};
    std::int64_t msgs = 0, bytes = 0;
    double wire = 0;
    for (int round = 0; Clock::now() < deadline && r.failed == 0; ++round) {
      const char from = phys;
      relayout(*fs, spec, phys, r, req_ids);
      ++r.loop_relayouts[{from, phys}];
      fs->reset_server_phases();
      const std::int64_t m0 = fs->network().messages_sent();
      const std::int64_t b0 = fs->network().bytes_sent();
      const double w0 = fs->network().simulated_wire_us();
      const char view = views[(round + 1) % 3];
      r.set_views[{view, phys}] += kNodes;
      r.loop_set_views[{view, phys}] += kNodes;
      const int win = window_of(ctx, Clock::now());
      on_clients(r, [&](int c, ClientLog& log) {
        const Seat s = seat(ctx, *fs, c, view, phys, log, win);
        const Buffer& data = src[static_cast<std::size_t>(c)];
        const std::int64_t vb = s.rect.bytes();
        const std::size_t off = static_cast<std::size_t>((round * 4099) % vb);
        Buffer rbuf;
        read_view(ctx, s, spec.churn_chunk, rbuf, log, true);
        for (std::int64_t v = 0; v < vb; v += spec.churn_chunk)
          access(ctx, s, v, std::min(spec.churn_chunk, vb - v), true,
                 std::span<const std::byte>(data).subspan(off + static_cast<std::size_t>(v)),
                 rbuf, log, true);
        read_view(ctx, s, spec.churn_chunk, rbuf, log, true);
      });
      msgs += fs->network().messages_sent() - m0;
      bytes += fs->network().bytes_sent() - b0;
      wire += fs->network().simulated_wire_us() - w0;
      for (pfm::IoServer* sv : servers(*fs)) {
        r.server_scatter_us += sv->scatter_us();
        r.server_writes += sv->writes_served();
      }
    }
    r.net_messages = msgs;
    r.net_bytes = bytes;
    r.wire_modeled_us = wire;
  }

  r.steal_share = steal_share(ticks0, cpu_ticks());
  r.loop_win.steal = sampler.finish();

  // Verification epilogue of the access workloads: relayout through the
  // cycle and re-read the whole file through fresh views of every logical
  // partition. It also gives these workloads their relayout and view-set
  // samples.
  for (int round = 0; round < spec.epilogue_rounds && r.failed == 0; ++round) {
    relayout(*fs, spec, phys, r, req_ids);
    for (const char view : {'r', 'c', 'b'}) {
      r.set_views[{view, phys}] += kNodes;
      on_clients(r, [&](int c, ClientLog& log) {
        const Seat s = seat(ctx, *fs, c, view, phys, log);
        Buffer rbuf;
        read_view(ctx, s, std::min<std::int64_t>(s.rect.bytes(), 1 << 20), rbuf,
                  log, false);
      });
    }
  }
  absorb_counters(*fs, r);
  fs.reset();
  if (spec.file_backend) std::filesystem::remove_all(dir);
  return r;
}

}  // namespace cfb
