#include "clusterfile/client.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "falls/serialize.h"
#include "intersect/project.h"
#include "mapping/compose.h"
#include "util/arith.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace pfm {

namespace {

/// Request ids are unique across the whole process, so a reply can never be
/// matched to the wrong request even across client restarts or relayouts
/// that reuse node ids.
std::uint64_t next_req_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::chrono::nanoseconds RetryPolicy::timeout_for(int attempt) const {
  double ms = static_cast<double>(base_timeout.count()) *
              std::pow(backoff, attempt - 1);
  ms = std::min(ms, static_cast<double>(max_timeout.count()));
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(std::max(0.1, ms) * 1e6));
}

std::chrono::nanoseconds RetryPolicy::budget() const {
  std::chrono::nanoseconds total{0};
  for (int a = 1; a <= max_attempts; ++a) total += timeout_for(a);
  return total;
}

ClusterfileClient::ClusterfileClient(Network& net, int node_id, FileMeta meta,
                                     const PlacementDirectory& placement)
    : net_(net),
      node_id_(node_id),
      meta_(std::move(meta)),
      placement_(placement) {
  if (!meta_.physical)
    throw std::invalid_argument("ClusterfileClient: no physical pattern");
  if (meta_.write_quorum < 0)
    throw std::invalid_argument("ClusterfileClient: negative write quorum");
  replicas_ = placement_.snapshot_with_epoch(&placement_seen_);
  if (replicas_.size() != meta_.physical->element_count())
    throw std::invalid_argument(
        "ClusterfileClient: placement subfile count mismatch");
}

void ClusterfileClient::maybe_refresh_placement() {
  if (placement_.epoch() == placement_seen_) return;
  // Views and cached plans hold no node ids, so swapping the table re-aims
  // every later request. A new replica has no projections yet — the first
  // request it sees answers kUnknownView and the transact engine
  // re-installs the view in-band.
  replicas_ = placement_.snapshot_with_epoch(&placement_seen_);
  // A rebalance may have migrated a subfile slot off a node entirely. A
  // background straggler aimed at the old holder would complete a write on a
  // copy the placement retired, and scrub debt against it would point scrub
  // at a replica that no longer exists — purge both. No divergence is lost:
  // the migration's catch-up sync carried everything the new holder missed.
  const auto holds = [&](int subfile, int node) {
    const std::vector<int>& reps = replicas_[static_cast<std::size_t>(subfile)];
    return std::find(reps.begin(), reps.end(), node) != reps.end();
  };
  std::erase_if(scrub_debt_, [&](const std::pair<int, int>& debt) {
    return !holds(debt.first, debt.second);
  });
  stragglers_purged_ += static_cast<std::int64_t>(
      std::erase_if(pending_, [&](const auto& kv) {
        return kv.second.background &&
               !holds(kv.second.subfile, kv.second.io_node);
      }));
}

std::vector<int> ClusterfileClient::take_scrub_debt() {
  std::vector<int> out;
  for (const auto& [subfile, node] : scrub_debt_)
    if (std::find(out.begin(), out.end(), subfile) == out.end())
      out.push_back(subfile);
  scrub_debt_.clear();
  return out;
}

std::int64_t ClusterfileClient::set_view(FallsSet falls,
                                         std::int64_t view_pattern_size) {
  AccessCanary::Scope guard(canary_);
  maybe_refresh_placement();
  const PartitioningPattern& phys = *meta_.physical;
  // The view FALLS come straight from the application: reject malformed
  // input here, where the error names the caller's mistake, instead of
  // letting a bad set reach the intersection algebra (always on — a view is
  // set once and amortized over every access, paper table 1).
  PFM_CHECK(view_pattern_size >= 1, "set_view: view pattern size ",
            view_pattern_size, " < 1");
  validate_falls_set(falls);
  PFM_CHECK(set_extent(falls) <= view_pattern_size,
            "set_view: view FALLS extent ", set_extent(falls),
            " exceeds the view pattern size ", view_pattern_size);
  ViewState state;
  state.falls = std::move(falls);
  state.pattern_size = view_pattern_size;
  const PatternElement view_elem{state.falls, view_pattern_size,
                                 phys.displacement()};
  const std::int64_t new_view_id = static_cast<std::int64_t>(views_.size());

  // Replay geometry for the plan cache: over one joint file period
  // F = lcm(view period, physical period) the view advances by
  // `replay_period` bytes and subfile j by `sub_period[j]` bytes, after
  // which every intersection repeats exactly. Overflow (gigantic coprime
  // periods) simply disables caching for this view.
  const std::size_t count = phys.element_count();
  std::vector<std::int64_t> sub_period(count, 0);
  try {
    const std::int64_t joint = lcm64(view_pattern_size, phys.size());
    state.replay_period =
        mul_checked(set_size(state.falls), joint / view_pattern_size);
    for (std::size_t j = 0; j < count; ++j)
      sub_period[j] = mul_checked(set_size(phys.element(j)), joint / phys.size());
  } catch (const std::overflow_error&) {
    state.replay_period = 0;
  }

  Timer total;
  std::vector<TxReq> to_send;
  std::vector<std::size_t> req_target;  // request index -> target index
  {
    // t_i: intersections and projections only (paper table 1). Each
    // subfile's V∩S is independent of every other's, so the loop fans out
    // over the shared pool; the serial merge below restores ascending
    // subfile order for deterministic target/message ordering.
    Timer t;
    std::vector<std::optional<SubTarget>> slots(count);
    ThreadPool::shared().parallel_for(count, [&](std::size_t j) {
      const Intersection x = intersect_nested(view_elem, phys.pattern_element(j));
      if (x.empty()) return;
      const Projection pv = project(x, view_elem);
      const Projection ps = project(x, phys.pattern_element(j));
      SubTarget& target = slots[j].emplace();
      target.subfile = j;
      target.proj_v = IndexSet(pv.falls, pv.period);
      target.sub_period_bytes = state.replay_period > 0 ? sub_period[j] : 0;
      target.proj_meta = serialize(ps.falls);
      target.proj_period = ps.period;
    });
    for (std::optional<SubTarget>& slot : slots) {
      if (!slot) continue;
      // The view install fans out to every replica of the subfile, so a
      // backup can serve reads and absorb writes without a re-install.
      const std::size_t group = state.targets.size();
      for (const int node : replicas_[slot->subfile]) {
        TxReq req;
        req.msg = set_view_msg(*slot, new_view_id);
        req.msg.dst_node = node;
        req.group = group;
        to_send.push_back(std::move(req));
        req_target.push_back(group);
      }
      state.targets.push_back(std::move(*slot));
    }
    t_i_us_ = t.elapsed_us();
  }
  {
    // Ship the projections through the reliable layer: a lost or corrupted
    // kSetView retransmits until acknowledged (servers re-install
    // idempotently), so a view is never half-set.
    const std::vector<SubTarget>& targets = state.targets;
    AccessTimings vt;
    transact(
        std::move(to_send), targets.size(), MsgKind::kAck, /*quorum=*/0,
        /*rebuild=*/
        [&](std::size_t i) {
          return set_view_msg(targets[req_target[i]], new_view_id);
        },
        /*reinstall=*/[](std::size_t) { return std::nullopt; }, vt, nullptr);
  }
  t_view_total_us_ = total.elapsed_us();

  views_.push_back(std::move(state));
  // Conservative invalidation: cached plans never outlive the view set
  // they were derived under (DESIGN.md, "The access-plan layer").
  invalidate_plans();
  return new_view_id;
}

Message ClusterfileClient::set_view_msg(const SubTarget& target,
                                        std::int64_t view_id) {
  Message msg;
  msg.kind = MsgKind::kSetView;
  msg.subfile = static_cast<int>(target.subfile);
  msg.view_id = view_id;
  msg.meta = target.proj_meta;
  msg.v = target.proj_period;
  return msg;
}

const ClusterfileClient::ViewState& ClusterfileClient::view_state(
    std::int64_t view_id) const {
  if (view_id < 0 || view_id >= static_cast<std::int64_t>(views_.size()))
    throw std::out_of_range("ClusterfileClient: bad view id");
  return views_[static_cast<std::size_t>(view_id)];
}

ClusterfileClient::AccessPlan ClusterfileClient::build_plan(
    const ViewState& state, std::int64_t v, std::int64_t w) const {
  const PartitioningPattern& phys = *meta_.physical;
  const ElementRef view_ref{&state.falls, phys.displacement(),
                            state.pattern_size};
  AccessPlan plan;
  plan.base_v = v;
  plan.length = w - v + 1;
  for (std::size_t k = 0; k < state.targets.size(); ++k) {
    const SubTarget& target = state.targets[k];
    // ONE traversal per target: runs, byte count and contiguity together
    // (formerly count_in + contiguous_in + separate run walks for the
    // gather and the fast path's lo hunt).
    RunList rl = target.proj_v.materialize_in(v, w);
    if (rl.bytes == 0) continue;
    const auto iv =
        map_interval(view_ref, phys.element_ref(target.subfile), v, w);
    if (!iv.has_value()) continue;
    PlanTarget pt;
    pt.target_index = k;
    pt.subfile = static_cast<int>(target.subfile);
    pt.base_vs = iv->lo;
    pt.base_ws = iv->hi;
    pt.sub_period_bytes = target.sub_period_bytes;
    pt.runs = std::move(rl);
    plan.targets.push_back(std::move(pt));
  }
  return plan;
}

std::shared_ptr<const ClusterfileClient::AccessPlan>
ClusterfileClient::acquire_plan(const ViewState& state, std::int64_t view_id,
                                std::int64_t v, std::int64_t w,
                                std::int64_t& shift_periods, AccessTimings& t) {
  shift_periods = 0;
  const bool cacheable = state.replay_period > 0 && v >= 0;
  PlanKey key;
  if (cacheable) {
    key = PlanKey{view_id, v % state.replay_period, w - v};
    if (auto* cached = plan_cache_.get(key)) {
      const std::shared_ptr<const AccessPlan> plan = *cached;
      shift_periods = (v - plan->base_v) / state.replay_period;
      ++plan_hits_;
      t.plan_hits = 1;
      return plan;
    }
  }
  auto plan = std::make_shared<const AccessPlan>(build_plan(state, v, w));
  ++plan_misses_;
  t.plan_misses = 1;
  if (cacheable) plan_cache_.put(key, plan);
  return plan;
}

void ClusterfileClient::send_or_throw(Message msg) {
  const int dst = msg.dst_node;
  if (!net_.send(node_id_, std::move(msg)))
    throw std::runtime_error("ClusterfileClient: I/O node " +
                             std::to_string(dst) + " is unreachable");
}

void ClusterfileClient::seal(Message& msg, std::uint64_t req_id) {
  msg.req_id = req_id;
  if (net_.checksums_enabled()) stamp_checksum(msg);
}

/// Per-call state of one transact: the closures foreground entries
/// regenerate through, and the per-group (per-target) outcome accumulators.
/// A group succeeds while at least one of its requests completes, degrades
/// when a replica is lost along the way, and fails only when every request
/// is abandoned.
struct ClusterfileClient::Call {
  struct GroupState {
    int total = 0;
    int ok = 0;
    int failed = 0;
    int failovers = 0;
    int max_attempts = 1;
    int served_by = -1;  ///< last node that answered
    bool retried = false;
    bool timed_out = false;
    std::string error;  ///< first failure reason
    /// Created on the group's demotion, shared with its stragglers.
    std::shared_ptr<bool> short_flag;
  };
  MsgKind expected;
  int quorum;
  const std::function<Message(std::size_t)>& rebuild;
  const std::function<std::optional<Message>(std::size_t)>& reinstall;
  AccessTimings& t;
  std::vector<Message>* replies;
  std::vector<GroupState> groups;
};

void ClusterfileClient::transact(
    std::vector<TxReq> reqs, std::size_t group_count, MsgKind expected,
    int quorum,
    const std::function<Message(std::size_t)>& rebuild,
    const std::function<std::optional<Message>(std::size_t)>& reinstall,
    AccessTimings& t, std::vector<Message>* replies) {
  const std::size_t n = reqs.size();
  if (replies != nullptr) replies->assign(n, Message{});
  t.per_subfile.assign(group_count, SubfileAccess{});
  Call call{expected, quorum, rebuild, reinstall, t, replies,
            std::vector<Call::GroupState>(group_count)};
  // Foreground entries point at this call's closures and the caller's
  // buffer: however transact leaves (an unreachable node or a closed
  // network throws), none of them may outlive it.
  class CallScope {
   public:
    CallScope(ClusterfileClient& c, Call& call) : c_(c) { c_.call_ = &call; }
    ~CallScope() {
      std::erase_if(c_.pending_,
                    [](const auto& kv) { return !kv.second.background; });
      c_.call_ = nullptr;
    }
    CallScope(const CallScope&) = delete;
    CallScope& operator=(const CallScope&) = delete;

   private:
    ClusterfileClient& c_;
  } scope(*this, call);

  // One delivery budget for the whole access: every deadline — retries,
  // failovers, view re-installs, straggler retransmits — is clipped to the
  // summed backoff schedule, so a target's replica chain burns one
  // schedule total, never chain-length × schedule.
  const Clock::time_point hard_deadline = Clock::now() + policy_.budget();
  for (std::size_t i = 0; i < n; ++i) {
    Pending p;
    p.index = i;
    p.group = reqs[i].group;
    p.subfile = reqs[i].msg.subfile;
    p.backups = std::move(reqs[i].backups);
    p.hard_deadline = hard_deadline;
    Call::GroupState& g = call.groups[p.group];
    ++g.total;
    SubfileAccess& s = t.per_subfile[p.group];
    s.subfile = p.subfile;
    if (g.total == 1) s.io_node = reqs[i].msg.dst_node;  // primary names it
    launch(std::move(p), std::move(reqs[i].msg));
  }
  pump();

  // Collapse per-request outcomes into one status per group: an access is
  // kFailed only when a target lost *every* replica; losing some — or
  // serving a read from a backup — is kDegraded, correct data at a
  // reliability cost.
  for (std::size_t gi = 0; gi < group_count; ++gi) {
    const Call::GroupState& g = call.groups[gi];
    SubfileAccess& s = t.per_subfile[gi];
    s.attempts = g.max_attempts;
    s.failovers = g.failovers;
    s.replicas_failed = g.failed;
    if (g.total == 0) continue;
    if (g.ok == 0) {
      s.status = AccessStatus::kFailed;
      s.timed_out = g.timed_out;
      s.error = g.error;
      ++t.rel.failures;
    } else if (g.failed > 0 || g.failovers > 0) {
      s.status = AccessStatus::kDegraded;
      if (g.served_by >= 0) s.io_node = g.served_by;
      s.error = g.error;
      ++t.rel.degraded;
      t.rel.replica_failures += g.failed;
    } else {
      s.status = g.retried ? AccessStatus::kRetried : AccessStatus::kOk;
    }
  }

  rel_ += t.rel;
  if (!allow_partial_) {
    for (const SubfileAccess& s : t.per_subfile) {
      if (s.status != AccessStatus::kFailed) continue;
      const std::string what =
          "ClusterfileClient: subfile " + std::to_string(s.subfile) + ": " +
          s.error;
      if (s.timed_out) throw TimeoutError(what);
      throw std::runtime_error(what);
    }
  }
}

void ClusterfileClient::drain_stragglers() {
  AccessCanary::Scope guard(canary_);
  pump();
}

std::size_t ClusterfileClient::stragglers_pending() const {
  return static_cast<std::size_t>(
      std::count_if(pending_.begin(), pending_.end(),
                    [](const auto& kv) { return kv.second.background; }));
}

void ClusterfileClient::pump() {
  Channel& inbox = net_.inbox(node_id_);
  for (;;) {
    // The next actionable deadline, background entries included (they ride
    // along on whatever wait an access does anyway); primaries paused
    // behind a view re-install are driven by their aux entry's deadline.
    Clock::time_point next = Clock::time_point::max();
    bool waiting = false;
    for (const auto& [id, p] : pending_) {
      waiting = waiting || call_ == nullptr || !p.background;
      if (!p.waiting_view) next = std::min(next, p.deadline);
    }
    if (!waiting) return;
    const Clock::time_point now = Clock::now();
    if (next <= now) {
      on_timeouts(now);
      continue;
    }
    auto msg = inbox.receive_for(next - now);
    if (msg.has_value()) {
      on_reply(std::move(*msg));
    } else if (inbox.closed()) {
      if (call_ != nullptr)
        throw std::runtime_error(
            "ClusterfileClient: network closed while waiting");
      // Draining with the network gone: no ack can arrive. Abandon
      // everything so the table empties and scrub knows what it owes.
      while (!pending_.empty()) abandon(pending_.begin());
      return;
    }
  }
}

void ClusterfileClient::on_timeouts(Clock::time_point now) {
  std::vector<std::uint64_t> expired;
  for (const auto& [id, p] : pending_)
    if (!p.waiting_view && p.deadline <= now) expired.push_back(id);
  for (const std::uint64_t id : expired) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    Pending& p = it->second;
    ++counters_for(p).timeouts;
    // A backup is available: moving there beats hammering a node that just
    // missed a deadline — the chain shares one budget, so spreading the
    // attempts maximizes the replicas actually tried. The chain is
    // round-robin: the node that just timed out rejoins the tail, so one
    // dropped reply from a live node can't strand the remaining attempts on
    // a dead backup.
    const bool move = !p.background && !p.is_aux && !p.backups.empty();
    if (resend(id, p, move ? Retarget::kRotate : Retarget::kNone)) continue;
    give_up(id,
            "I/O node " + std::to_string(p.io_node) + " unresponsive after " +
                std::to_string(p.attempts) + " attempts",
            /*timed_out=*/true);
  }
}

void ClusterfileClient::on_reply(Message&& msg) {
  const std::uint64_t id = msg.req_id;
  const auto it = pending_.find(id);
  if (it == pending_.end()) {
    // Duplicate or late reply for a request already completed (or one we
    // never sent): discard, never fatal.
    ReliabilityCounters& rel = call_ != nullptr ? call_->t.rel : rel_;
    ++(verify_checksum(msg) ? rel.stale_replies : rel.corruptions_detected);
    return;
  }
  Pending& p = it->second;
  ReliabilityCounters& rel = counters_for(p);

  if (!verify_checksum(msg)) {
    // A corrupted reply: the request itself succeeded server-side, so
    // resend right away (idempotent) instead of waiting out the timer.
    ++rel.corruptions_detected;
    if (p.waiting_view || resend(id, p)) return;
    give_up(id,
            "replies from I/O node " + std::to_string(p.io_node) +
                " failed their checksum after " + std::to_string(p.attempts) +
                " attempts",
            /*timed_out=*/false);
    return;
  }

  if (msg.kind == MsgKind::kError) {
    if (msg.err == ErrCode::kUnknownView && !p.background && !p.is_aux &&
        !p.waiting_view && p.attempts < policy_.max_attempts) {
      // The server lost its projections (crash/restart): re-install the
      // view on the replica serving the request right now, then resend
      // the request once the re-install is acked.
      std::optional<Message> setv = call_->reinstall(p.index);
      if (setv.has_value()) {
        ++rel.view_reinstalls;
        Pending aux;
        aux.index = p.index;
        aux.group = p.group;
        aux.subfile = p.subfile;
        aux.is_aux = true;
        aux.partner = id;
        aux.hard_deadline = p.hard_deadline;
        setv->dst_node = p.io_node;
        p.waiting_view = true;
        p.partner = launch(std::move(aux), std::move(*setv));
        return;
      }
    }
    // The server caught a corrupted request (resend it) or its storage
    // EIO'd transiently (errors are never reply-cached, so the resend
    // re-executes).
    if ((msg.err == ErrCode::kBadChecksum || msg.err == ErrCode::kIoError) &&
        resend(id, p)) {
      if (msg.err == ErrCode::kBadChecksum) ++rel.corruptions_detected;
      return;
    }
    // Terminal for this replica — including kCorruptData, where a resend
    // would re-read the same rotten bytes (a foreground request moves to a
    // backup if one is left), and kUnknownView for a background entry: the
    // quorum already carried the write, so scrub repairs the replica
    // instead of a re-install dance.
    give_up(id,
            "server reported " + std::string(to_string(msg.err)) + ": " +
                msg.meta,
            /*timed_out=*/false);
    return;
  }

  if (p.is_aux) {
    if (msg.kind != MsgKind::kAck) {
      ++rel.stale_replies;
      return;
    }
    // View re-installed: resume the paused primary with a fresh attempt.
    const std::uint64_t parent = p.partner;
    pending_.erase(it);
    const auto pit = pending_.find(parent);
    if (pit == pending_.end()) return;
    Pending& pri = pit->second;
    pri.waiting_view = false;
    if (resend(parent, pri)) return;
    give_up(parent,
            "I/O node " + std::to_string(pri.io_node) +
                " re-installed its view past the delivery budget",
            /*timed_out=*/true);
    return;
  }

  // Only write fan-out is ever demoted, so a background entry awaits an ack.
  if (msg.kind != (p.background ? MsgKind::kAck : call_->expected)) {
    ++rel.stale_replies;
    return;
  }
  if (p.background) {
    ++stragglers_completed_;
    pending_.erase(it);
    return;
  }
  Call::GroupState& g = call_->groups[p.group];
  ++g.ok;
  g.max_attempts = std::max(g.max_attempts, p.attempts);
  if (p.attempts > 1) g.retried = true;
  g.served_by = p.io_node;
  if (call_->replies != nullptr) (*call_->replies)[p.index] = std::move(msg);
  const std::size_t gi = p.group;
  pending_.erase(it);
  if (call_->quorum > 0 && g.ok >= std::min(call_->quorum, g.total))
    demote(gi);
}

std::uint64_t ClusterfileClient::launch(Pending p, Message msg) {
  const std::uint64_t id = next_req_id();
  p.io_node = msg.dst_node;
  p.deadline =
      std::min(Clock::now() + policy_.timeout_for(1), p.hard_deadline);
  seal(msg, id);
  pending_.emplace(id, std::move(p));
  send_or_throw(std::move(msg));
  return id;
}

bool ClusterfileClient::resend(std::uint64_t id, Pending& p, Retarget to) {
  const Clock::time_point now = Clock::now();
  if (p.attempts >= policy_.max_attempts || now >= p.hard_deadline)
    return false;
  ReliabilityCounters& rel = counters_for(p);
  ++p.attempts;
  if (to == Retarget::kNone) {
    ++rel.retries;
  } else {
    ++rel.failovers;
    ++call_->groups[p.group].failovers;
    const int prev = p.io_node;
    p.io_node = p.backups.front();
    p.backups.erase(p.backups.begin());
    if (to == Retarget::kRotate) p.backups.push_back(prev);
    p.waiting_view = false;
  }
  Message msg = request_for(p);
  // Same req_id: a server replays its cached reply instead of re-applying,
  // and a late reply from a node left behind is stale.
  if (!p.background) seal(msg, id);
  p.deadline = std::min(now + policy_.timeout_for(p.attempts), p.hard_deadline);
  if (!p.background) {
    send_or_throw(std::move(msg));
  } else if (!net_.send(node_id_, std::move(msg))) {
    // The node crashed mid-straggler: no ack can ever arrive, so hand the
    // subfile to scrub instead of looping.
    abandon(pending_.find(id));
  }
  return true;
}

void ClusterfileClient::give_up(std::uint64_t id, const std::string& why,
                                bool timed_out) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.background) {
    abandon(it);
    return;
  }
  if (p.is_aux) {
    const std::uint64_t parent = p.partner;
    pending_.erase(it);
    give_up(parent, why, timed_out);
    return;
  }
  // Fail over to the next backup replica while the resend rule allows:
  // attempts carry across the move — the chain shares one schedule.
  Call::GroupState& g = call_->groups[p.group];
  g.max_attempts = std::max(g.max_attempts, p.attempts);
  if (!p.backups.empty() && resend(id, p, Retarget::kDrop)) return;
  ++g.failed;
  if (g.error.empty()) {
    g.error = why;
    g.timed_out = timed_out;
  }
  pending_.erase(it);
}

void ClusterfileClient::abandon(PendingMap::iterator it) {
  const Pending& p = it->second;
  ++stragglers_abandoned_;
  ++rel_.replica_failures;
  if (p.group_short && !*p.group_short) {
    *p.group_short = true;
    ++rel_.quorum_short;
  }
  // Deduplicated: the same (subfile, node) abandoned across many retries
  // (or many groups) owes exactly one scrub, and the debt set stays bounded
  // by subfiles × replicas instead of growing with the failure rate.
  const std::pair<int, int> owed{p.subfile, p.io_node};
  if (std::find(scrub_debt_.begin(), scrub_debt_.end(), owed) ==
      scrub_debt_.end())
    scrub_debt_.push_back(owed);
  pending_.erase(it);
}

void ClusterfileClient::demote(std::size_t group) {
  // Each entry keeps its req_id (so servers dedup a late original crossing
  // a retransmit, and a late ack still matches), its attempt count and its
  // schedule; the retransmit copy is materialized NOW, while the caller's
  // buffer behind rebuild() is still alive. Aux view re-installs are
  // dropped — a straggler that lands on kUnknownView is abandoned to scrub
  // instead of re-installing.
  Call::GroupState& g = call_->groups[group];
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = it->second;
    if (p.background || p.group != group) {
      ++it;
      continue;
    }
    if (p.is_aux) {
      it = pending_.erase(it);
      continue;
    }
    if (!g.short_flag) g.short_flag = std::make_shared<bool>(false);
    p.msg = request_for(p);
    seal(p.msg, it->first);
    if (p.waiting_view)
      p.deadline = std::min(Clock::now() + policy_.timeout_for(p.attempts),
                            p.hard_deadline);
    p.waiting_view = false;
    p.background = true;
    p.group_short = g.short_flag;
    ++call_->t.stragglers;
    ++it;
  }
}

Message ClusterfileClient::request_for(const Pending& p) const {
  if (p.background) return p.msg;  // sealed: same req_id, checksum stamped
  Message m;
  if (!p.is_aux) {
    m = call_->rebuild(p.index);
  } else {
    std::optional<Message> r = call_->reinstall(p.index);
    PFM_CHECK(r.has_value(), "transact: lost re-install template");
    m = std::move(*r);
  }
  // transact owns routing: after a failover the regenerated message goes to
  // the replica now serving the request, not the original target.
  m.dst_node = p.io_node;
  return m;
}

ReliabilityCounters& ClusterfileClient::counters_for(const Pending& p) {
  return p.background ? rel_ : call_->t.rel;
}

ClusterfileClient::AccessTimings ClusterfileClient::write(
    std::int64_t view_id, std::int64_t v, std::int64_t w,
    std::span<const std::byte> data) {
  AccessCanary::Scope guard(canary_);
  maybe_refresh_placement();
  if (v > w) throw std::invalid_argument("ClusterfileClient::write: v > w");
  if (static_cast<std::int64_t>(data.size()) < w - v + 1)
    throw std::invalid_argument("ClusterfileClient::write: short buffer");
  const ViewState& state = view_state(view_id);

  AccessTimings out;
  std::shared_ptr<const AccessPlan> plan;
  std::int64_t shift = 0;
  {
    // t_m: acquire the access plan — a cache replay on the paper's
    // repeated strided workloads, the full mapping pass otherwise.
    Timer t;
    plan = acquire_plan(state, view_id, v, w, shift, out);
    out.t_m_us = t.elapsed_us();
  }

  const auto make_write = [&](const PlanTarget& pt) {
    Message msg;
    msg.kind = MsgKind::kWrite;
    msg.subfile = pt.subfile;
    msg.view_id = view_id;
    msg.v = pt.base_vs + shift * pt.sub_period_bytes;
    msg.w = pt.base_ws + shift * pt.sub_period_bytes;
    msg.contiguous = pt.runs.contiguous;
    msg.payload.resize(static_cast<std::size_t>(pt.runs.bytes));
    return msg;
  };

  // Build the requests; gathering is the t_g phase (a single untimed
  // memcpy on the contiguous fast path, as in the paper). Writes fan out to
  // every replica of their target: each gathers once, backups reuse the
  // primary's payload by copy.
  std::vector<TxReq> reqs;
  std::vector<std::size_t> req_target;  // request index -> plan target index
  reqs.reserve(plan->targets.size());
  for (std::size_t k = 0; k < plan->targets.size(); ++k) {
    const PlanTarget& pt = plan->targets[k];
    const std::vector<int>& reps =
        replicas_[static_cast<std::size_t>(pt.subfile)];
    Message msg = make_write(pt);
    if (pt.runs.contiguous) {
      gather_runs(msg.payload, data, pt.runs);
    } else {
      Timer t;
      gather_runs(msg.payload, data, pt.runs);
      out.t_g_us += t.elapsed_us();
    }
    out.bytes += pt.runs.bytes;
    for (std::size_t r = 0; r < reps.size(); ++r) {
      TxReq req;
      req.msg = r + 1 < reps.size() ? msg : std::move(msg);
      req.msg.dst_node = reps[r];
      req.group = k;
      reqs.push_back(std::move(req));
      req_target.push_back(k);
    }
  }
  out.messages = static_cast<std::int64_t>(reqs.size());

  {
    // t_w: first request sent -> last acknowledgment received. Retransmits
    // re-gather from the caller's buffer (still live for the whole call) so
    // the fault-free path never copies a payload it doesn't have to.
    Timer t;
    transact(
        std::move(reqs), plan->targets.size(), MsgKind::kAck,
        /*quorum=*/meta_.write_quorum,
        /*rebuild=*/
        [&](std::size_t i) {
          const PlanTarget& pt = plan->targets[req_target[i]];
          Message msg = make_write(pt);
          gather_runs(msg.payload, data, pt.runs);
          return msg;
        },
        /*reinstall=*/
        [&](std::size_t i) -> std::optional<Message> {
          return set_view_msg(
              state.targets[plan->targets[req_target[i]].target_index],
              view_id);
        },
        out, nullptr);
    out.t_w_us = t.elapsed_us();
  }
  return out;
}

ClusterfileClient::AccessTimings ClusterfileClient::read(
    std::int64_t view_id, std::int64_t v, std::int64_t w,
    std::span<std::byte> out_buf) {
  AccessCanary::Scope guard(canary_);
  maybe_refresh_placement();
  if (v > w) throw std::invalid_argument("ClusterfileClient::read: v > w");
  if (static_cast<std::int64_t>(out_buf.size()) < w - v + 1)
    throw std::invalid_argument("ClusterfileClient::read: short buffer");
  const ViewState& state = view_state(view_id);

  AccessTimings out;
  std::shared_ptr<const AccessPlan> plan;
  std::int64_t shift = 0;
  {
    Timer t;
    plan = acquire_plan(state, view_id, v, w, shift, out);
    out.t_m_us = t.elapsed_us();
  }

  const auto make_read = [&](const PlanTarget& pt) {
    Message msg;
    msg.kind = MsgKind::kRead;
    msg.subfile = pt.subfile;
    msg.view_id = view_id;
    msg.v = pt.base_vs + shift * pt.sub_period_bytes;
    msg.w = pt.base_ws + shift * pt.sub_period_bytes;
    return msg;
  };

  // One request per target, aimed at the primary, with the remaining
  // replicas as the failover chain: a read retargets to a backup when its
  // current node is given up on, completing kDegraded instead of kFailed.
  std::vector<TxReq> reqs;
  reqs.reserve(plan->targets.size());
  for (std::size_t k = 0; k < plan->targets.size(); ++k) {
    const PlanTarget& pt = plan->targets[k];
    const std::vector<int>& reps =
        replicas_[static_cast<std::size_t>(pt.subfile)];
    TxReq req;
    req.msg = make_read(pt);
    req.msg.dst_node = reps[0];
    req.group = k;
    req.backups.assign(reps.begin() + 1, reps.end());
    reqs.push_back(std::move(req));
  }
  out.messages = static_cast<std::int64_t>(reqs.size());

  std::vector<Message> replies;
  {
    Timer t;
    transact(
        std::move(reqs), plan->targets.size(), MsgKind::kReadReply,
        /*quorum=*/0,
        /*rebuild=*/
        [&](std::size_t i) { return make_read(plan->targets[i]); },
        /*reinstall=*/
        [&](std::size_t i) -> std::optional<Message> {
          return set_view_msg(state.targets[plan->targets[i].target_index],
                              view_id);
        },
        out, &replies);
    out.t_w_us = t.elapsed_us();
  }

  // Scatter every reply into the caller's buffer through the plan's run
  // lists (the t_g analog on the read path). transact returns replies in
  // request order, so reply i belongs to plan target i; failed targets
  // (allow-partial mode) zero-fill their destination ranges so the caller
  // sees deterministic bytes, never stale buffer contents (see read()).
  for (std::size_t i = 0; i < plan->targets.size(); ++i) {
    const PlanTarget& pt = plan->targets[i];
    if (out.per_subfile[i].status == AccessStatus::kFailed) {
      for (const MaterializedRun& run : pt.runs.runs)
        std::memset(out_buf.data() + run.rel_lo, 0,
                    static_cast<std::size_t>(run.len));
      continue;
    }
    const Message& reply = replies[i];
    PFM_DCHECK(static_cast<std::int64_t>(reply.payload.size()) == pt.runs.bytes,
               "read: subfile ", reply.subfile, " returned ",
               reply.payload.size(), " bytes, plan expects ", pt.runs.bytes);
    if (pt.runs.contiguous) {
      // Fast path mirror of the write: one copy, no scatter cost.
      scatter_runs(out_buf.subspan(0, static_cast<std::size_t>(w - v + 1)),
                   reply.payload, pt.runs);
    } else {
      Timer t;
      scatter_runs(out_buf.subspan(0, static_cast<std::size_t>(w - v + 1)),
                   reply.payload, pt.runs);
      out.t_g_us += t.elapsed_us();
    }
    out.bytes += static_cast<std::int64_t>(reply.payload.size());
  }
  return out;
}

}  // namespace pfm
