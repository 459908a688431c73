// Per-layer replay of a traced pass. The benchmark cannot time inside the
// program, so it re-runs the pass's own inputs through each layer's public
// functions on their own, with a span around every call:
//   intersect  intersect_nested / project for every (view, subfile) pair the
//              pass's set_views computed;
//   mapping    map_to_element on the extremities of the sampled accesses;
//   redist     IndexSet::materialize_in, gather_runs / scatter_runs on the
//              sampled accesses; build_plan / execute_redist per relayout;
//   storage    the server's run lists of the sampled accesses (writev +
//              flush, or readv) and each relayout's subfile rewrite, on a
//              standalone stack of the pass's own kind (memory, or file +
//              CRC32C integrity when replicated), once per replica;
//   cluster    a Channel ping-pong at each sampled message's size.
// Each layer's replayed time, scaled by how often the measured loop did the
// work, gives its share of the loop's layer work (share.*).
#include <algorithm>
#include <fstream>
#include <thread>
#include <tuple>

#include "bench.h"
#include "cluster/channel.h"
#include "clusterfile/storage.h"
#include "intersect/intersect.h"
#include "intersect/project.h"
#include "redist/execute.h"
#include "redist/gather_scatter.h"
#include "redist/plan.h"
#include "util/crc32.h"

namespace cfb {
namespace {

constexpr double kMiB = 1 << 20;
constexpr std::size_t kReplayOps = 256;  // sampled accesses replayed

/// Runs fn under a span named `name`; returns its duration in µs.
template <typename Fn>
double timed(const char* name, std::uint64_t parent, std::uint64_t req, Fn&& fn) {
  const std::uint64_t id = Tracer::enabled() ? Tracer::next_id() : 0;
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  if (id != 0) Tracer::record(name, t0, t1, id, parent, req);
  return us_between(t0, t1);
}

/// Echo partner of the channel ping-pong: answers every request with a
/// reply carrying `w` payload bytes, as an I/O server answers a read.
class Echo {
 public:
  Echo() : thread_([this] {
      while (std::optional<pfm::Message> m = requests_.receive()) {
        pfm::Message reply;
        reply.payload.resize(static_cast<std::size_t>(m->w));
        replies_.send(std::move(reply));
      }
    }) {}
  ~Echo() {
    requests_.close();
    thread_.join();
  }
  Echo(const Echo&) = delete;
  Echo& operator=(const Echo&) = delete;

  void round_trip(pfm::Message request) {
    requests_.send(std::move(request));
    replies_.receive();
  }

 private:
  pfm::Channel requests_, replies_;
  std::thread thread_;  // last: starts after the channels exist
};

/// Bytes this process wrote through write syscalls (/proc/self/io wchar);
/// -1 when unavailable.
std::int64_t wchar_bytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::int64_t value = 0;
  while (io >> key >> value)
    if (key == "wchar:") return value;
  return -1;
}

struct PairProj {
  pfm::IndexSet proj_v, proj_s;
};

}  // namespace

std::vector<Metric> replay_layers(const Spec& spec, const PassResult& pass,
                                  std::uint64_t seed,
                                  const std::filesystem::path& scratch) {
  const std::int64_t n = spec.n, file = n * n;
  std::map<char, pfm::PartitioningPattern> layouts;
  auto layout = [&](char kind) -> const pfm::PartitioningPattern& {
    auto it = layouts.find(kind);
    if (it == layouts.end())
      it = layouts.emplace(kind, make_layout(kind, n)).first;
    return it->second;
  };
  std::map<std::string, double> work;  // weighted replayed µs per layer
  std::uint64_t req = 1u << 30;        // replay request ids, apart from the pass's

  // intersect: every (view, subfile) pair of the pass's set_views.
  std::map<std::tuple<char, char, int, std::size_t>, PairProj> pairs;
  pfm::Stats intersect_us, project_us, segments;
  for (const auto& [key, count] : pass.set_views) {
    const auto [view, phys] = key;
    const pfm::PartitioningPattern& p = layout(phys);
    double combo_us = 0;
    for (int c = 0; c < kNodes; ++c) {
      const SpanScope root("replay.set_view", 0, ++req);
      const pfm::PatternElement ve{view_falls(view, n, c), file, p.displacement()};
      for (std::size_t j = 0; j < p.element_count(); ++j) {
        const pfm::PatternElement se = p.pattern_element(j);
        pfm::Intersection x;
        const double ti = timed("intersect.intersect_nested", root.id(), req,
                                [&] { x = pfm::intersect_nested(ve, se); });
        intersect_us.add(ti);
        combo_us += ti;
        if (x.empty()) continue;
        pfm::Projection pv, ps;
        const double tv = timed("intersect.project", root.id(), req,
                                [&] { pv = pfm::project(x, ve); });
        const double ts = timed("intersect.project", root.id(), req,
                                [&] { ps = pfm::project(x, se); });
        project_us.add(tv);
        project_us.add(ts);
        combo_us += tv + ts;
        PairProj& pp = pairs[{view, phys, c, j}];
        pp.proj_v = pfm::IndexSet(pv.falls, pv.period);
        pp.proj_s = pfm::IndexSet(ps.falls, ps.period);
        segments.add(static_cast<double>(pp.proj_s.runs().size()));
      }
    }
    const auto loop = pass.loop_set_views.find(key);
    if (loop != pass.loop_set_views.end())
      work["intersect"] += combo_us / kNodes * static_cast<double>(loop->second);
  }

  // Standalone storage stacks, one per (replica, subfile), of the pass's kind.
  const std::filesystem::path dir =
      spec.file_backend ? scratch / "replay" : std::filesystem::path{};
  const std::int64_t sub_bytes = file / kNodes;
  std::vector<std::vector<std::unique_ptr<pfm::SubfileStorage>>> stacks(
      static_cast<std::size_t>(spec.replication));
  for (int r = 0; r < spec.replication; ++r)
    for (int j = 0; j < kNodes; ++j) {
      auto st = pfm::make_storage(dir, j, r);
      if (spec.replication > 1)
        st = std::make_unique<pfm::IntegrityStorage>(std::move(st));
      st->write(0, Buffer(static_cast<std::size_t>(sub_bytes)));
      st->flush();
      stacks[static_cast<std::size_t>(r)].push_back(std::move(st));
    }

  // Sampled accesses through mapping, redist, cluster and storage.
  std::vector<OpDesc> ops;
  const std::size_t step = std::max<std::size_t>(1, pass.ops_sample.size() / kReplayOps);
  for (std::size_t i = 0; i < pass.ops_sample.size(); i += step)
    ops.push_back(pass.ops_sample[i]);
  std::int64_t max_len = 1;
  for (const OpDesc& op : ops) max_len = std::max(max_len, op.len);
  Buffer view_bytes = pfm::make_pattern_buffer(static_cast<std::size_t>(max_len), seed);
  Buffer wire(static_cast<std::size_t>(max_len));
  Echo echo;
  pfm::Stats materialize_us, map_ns, rtt_us, writev_us, readv_us, flush_us;
  double gather_us = 0, crc_us = 0, op_map = 0, op_redist = 0, op_cluster = 0,
         op_storage = 0;
  std::int64_t gathered = 0, crc_bytes = 0, user_written = 0, stored = 0;
  const std::int64_t wchar0 = wchar_bytes();
  for (const OpDesc& op : ops) {
    const SpanScope root(op.write ? "replay.write" : "replay.read", 0, ++req);
    const pfm::PartitioningPattern& p = layout(op.phys);
    const Rect rect = view_rect(op.view, n, op.client);
    const std::int64_t w = op.v + op.len - 1;
    auto file_of = [&](std::int64_t k) {
      return (rect.r0 + k / rect.cols) * n + rect.c0 + k % rect.cols;
    };
    double op_materialize = 0;
    for (std::size_t j = 0; j < p.element_count(); ++j) {
      const auto it = pairs.find({op.view, op.phys, op.client, j});
      if (it == pairs.end()) continue;
      pfm::RunList rl;
      const double tm = timed("redist.materialize_in", root.id(), req,
                              [&] { rl = it->second.proj_v.materialize_in(op.v, w); });
      op_materialize += tm;
      op_redist += tm;
      if (rl.bytes == 0) continue;
      std::int64_t vs = 0, ws = 0;
      const double tmap = timed("mapping.map_to_element", root.id(), req, [&] {
        vs = p.map_to_element(j, file_of(op.v), pfm::Round::kNext);
        ws = p.map_to_element(j, file_of(w), pfm::Round::kPrev);
      });
      map_ns.add(tmap * 1e3 / 2);
      op_map += tmap;
      const std::span<std::byte> payload =
          std::span<std::byte>(wire).first(static_cast<std::size_t>(rl.bytes));
      const std::span<std::byte> user =
          std::span<std::byte>(view_bytes).first(static_cast<std::size_t>(op.len));
      const double tg = timed(op.write ? "redist.gather_runs" : "redist.scatter_runs",
                              root.id(), req, [&] {
                                if (op.write) pfm::gather_runs(payload, user, rl);
                                else pfm::scatter_runs(user, payload, rl);
                              });
      gather_us += tg;
      gathered += rl.bytes;
      op_redist += tg;
      std::vector<pfm::IoVec> runs;
      it->second.proj_s.for_each_run_in(vs, ws, [&](std::int64_t lo, std::int64_t hi) {
        runs.push_back({lo, hi - lo + 1});
      });
      const int fan = op.write ? spec.replication : 1;
      for (int r = 0; r < fan; ++r) {
        pfm::Message m;
        if (op.write) m.payload.assign(payload.begin(), payload.end());
        else m.w = rl.bytes;
        const double t = timed("cluster.channel_rtt", root.id(), req,
                               [&] { echo.round_trip(std::move(m)); });
        rtt_us.add(t);
        op_cluster += t;
      }
      if (op.write) {
        const double tc = timed("storage.crc32c", root.id(), req,
                                [&] { (void)pfm::crc32c(payload.data(), payload.size()); });
        crc_us += tc;
        crc_bytes += rl.bytes;
        if (spec.replication > 1) op_storage += tc * spec.replication;
        user_written += rl.bytes;
        for (int r = 0; r < spec.replication; ++r) {
          pfm::SubfileStorage& st = *stacks[static_cast<std::size_t>(r)][j];
          const double tw = timed("storage.writev", root.id(), req, [&] {
            st.writev(runs, payload);
            if (spec.replication > 1) st.set_epoch(st.epoch() + 1);
          });
          const double tf = timed("storage.flush", root.id(), req, [&] { st.flush(); });
          writev_us.add(tw);
          flush_us.add(tf);
          op_storage += tw + tf;
          stored += rl.bytes;
        }
      } else {
        const double tr = timed("storage.readv", root.id(), req,
                                [&] { stacks[0][j]->readv(runs, payload); });
        readv_us.add(tr);
        op_storage += tr;
      }
    }
    materialize_us.add(op_materialize);
  }
  const std::int64_t wchar1 = wchar_bytes();
  if (!ops.empty()) {
    const double scale = static_cast<double>(pass.ops) / static_cast<double>(ops.size());
    work["mapping"] += op_map * scale;
    work["redist"] += op_redist * scale;
    work["cluster"] += op_cluster * scale;
    work["storage"] += op_storage * scale;
  }

  // Relayouts: plan and execute, then the rewrite of every new subfile copy.
  pfm::Stats build_us, copy_runs;
  double exec_us = 0;
  std::int64_t exec_bytes = 0;
  std::map<std::pair<char, char>, bool> seen;
  for (const auto& key : pass.relayouts) {
    if (seen[key]) continue;
    seen[key] = true;
    const SpanScope root("replay.relayout", 0, ++req);
    const pfm::PartitioningPattern& from = layout(key.first);
    const pfm::PartitioningPattern& to = layout(key.second);
    std::vector<Buffer> src(from.element_count()), dst;
    for (std::size_t j = 0; j < src.size(); ++j)
      src[j] = pfm::make_pattern_buffer(
          static_cast<std::size_t>(from.element_bytes(j, file)), seed + j);
    pfm::RedistPlan plan;
    const double tp = timed("redist.build_plan", root.id(), req,
                            [&] { plan = pfm::build_plan(from, to); });
    pfm::RedistStats rs;
    const double te = timed("redist.execute_redist", root.id(), req, [&] {
      rs = pfm::execute_redist(plan, from, to, src, dst, file);
    });
    double ts = 0;
    for (int r = 0; r < spec.replication; ++r)
      for (std::size_t j = 0; j < dst.size(); ++j)
        ts += timed("storage.write", root.id(), req, [&] {
          stacks[static_cast<std::size_t>(r)][j]->write(0, dst[j]);
        });
    build_us.add(tp);
    copy_runs.add(static_cast<double>(rs.copy_runs));
    exec_us += te;
    exec_bytes += rs.bytes_moved;
    const auto loop = pass.loop_relayouts.find(key);
    if (loop != pass.loop_relayouts.end()) {
      work["redist"] += (tp + te) * static_cast<double>(loop->second);
      work["storage"] += ts * static_cast<double>(loop->second);
    }
  }
  stacks.clear();
  if (!dir.empty()) std::filesystem::remove_all(dir);

  std::vector<Metric> m;
  auto put = [&](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto mib_s = [](std::int64_t bytes, double us) {
    return us > 0 ? static_cast<double>(bytes) / kMiB / (us / 1e6) : 0;
  };
  const double ops_n = std::max<double>(1, static_cast<double>(pass.ops));
  put("host.steal_share", pass.steal_share, "ratio");
  put("client.t_m_us_p50", pass.t_m_us.percentile(50), "us");
  put("client.t_m_us_p99", pass.t_m_us.percentile(99), "us");
  put("client.t_g_us_p50", pass.t_g_us.percentile(50), "us");
  put("client.t_g_us_p99", pass.t_g_us.percentile(99), "us");
  put("client.t_w_us_p50", pass.t_w_us.percentile(50), "us");
  put("client.t_w_us_p99", pass.t_w_us.percentile(99), "us");
  put("client.plan_hit_ratio",
      static_cast<double>(pass.plan_hits) /
          std::max<double>(1, static_cast<double>(pass.plan_hits + pass.plan_misses)),
      "ratio");
  put("client.unaccounted_us", pass.unaccounted_us.percentile(50), "us");
  put("client.unaccounted_share",
      pass.latency_sum_us > 0 ? pass.unaccounted_sum_us / pass.latency_sum_us : 0,
      "ratio");
  put("client.retries", static_cast<double>(pass.client_rel.retries), "count");
  put("client.timeouts", static_cast<double>(pass.client_rel.timeouts), "count");
  put("client.t_i_us", pass.view_t_i_us.percentile(50), "us");
  put("client.view_set_p99_us", pass.view_total_us.percentile(99), "us");
  put("cluster.msgs_per_op", static_cast<double>(pass.net_messages) / ops_n, "count");
  put("cluster.bytes_per_op", static_cast<double>(pass.net_bytes) / ops_n, "B");
  put("cluster.wire_modeled_us_per_op", pass.wire_modeled_us / ops_n, "us");
  put("cluster.channel_rtt_us", rtt_us.percentile(50), "us");
  const double t_s = pass.server_scatter_us /
                     std::max<double>(1, static_cast<double>(pass.server_writes));
  put("io_server.t_s_us", t_s, "us");
  put("io_server.wait_us", pass.write_t_w_us.mean() - t_s, "us");
  put("storage.writev_us", writev_us.percentile(50), "us");
  put("storage.readv_us", readv_us.percentile(50), "us");
  put("storage.flush_us", flush_us.percentile(50), "us");
  put("storage.crc32c_mib_s", mib_s(crc_bytes, crc_us), "MiB/s");
  const std::int64_t written =
      spec.file_backend && wchar0 >= 0 && wchar1 >= 0 ? wchar1 - wchar0 : stored;
  put("storage.bytes_written_per_user_byte",
      user_written > 0 ? static_cast<double>(written) / static_cast<double>(user_written) : 0,
      "ratio");
  put("intersect.intersect_us", intersect_us.percentile(50), "us");
  put("intersect.project_us", project_us.percentile(50), "us");
  put("intersect.proj_segments", segments.mean(), "count");
  put("mapping.map_to_element_ns", map_ns.percentile(50), "ns");
  put("redist.build_plan_us", build_us.percentile(50), "us");
  put("redist.execute_mib_s", mib_s(exec_bytes, exec_us), "MiB/s");
  put("redist.copy_runs", copy_runs.mean(), "count");
  put("redist.materialize_us", materialize_us.percentile(50), "us");
  put("redist.gather_runs_mib_s", mib_s(gathered, gather_us), "MiB/s");
  double total = 0;
  for (const auto& [layer, us] : work) total += us;
  for (const char* layer : {"cluster", "intersect", "mapping", "redist", "storage"})
    m.push_back({std::string("share.") + layer, total > 0 ? work[layer] / total : 0, "ratio"});
  return m;
}

}  // namespace cfb
