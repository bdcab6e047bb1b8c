#include "simmpi/runtime.hpp"

#include <algorithm>
#include <bit>

#include "faults/fault_plan.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::simmpi {

namespace {

// Salts of the fabric clock's keyed draws, distinct from every fault salt
// (src/faults/fault_plan.cpp) so the draws are mutually independent.
constexpr std::uint64_t kSaltDelay = 0xDE1AULL;
constexpr std::uint64_t kSaltLatency = 0x1A7EULL;

}  // namespace

std::uint64_t fabric_deliver_epoch(const DeliveryModel& delivery,
                                   const AsyncWindow& async,
                                   std::uint64_t epoch, int src, int dst,
                                   std::uint64_t seq) {
  const auto draw = [&](std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t lane) {
    return util::keyed_draw(seed, salt, epoch, src, dst, seq, lane);
  };
  std::uint64_t deliver = epoch;
  if (delivery.delay_probability > 0.0 &&
      util::unit_interval(draw(delivery.seed, kSaltDelay, 0)) <
          delivery.delay_probability) {
    deliver += 1 + draw(delivery.seed, kSaltDelay, 1) %
                       static_cast<std::uint64_t>(delivery.max_delay_epochs);
  }
  if (async.max_staleness > 0) {
    const auto lo = static_cast<std::uint64_t>(async.min_latency_epochs);
    const auto hi = static_cast<std::uint64_t>(async.max_latency_epochs);
    deliver += lo + draw(async.seed, kSaltLatency, 0) % (hi - lo + 1);
    deliver = std::min(deliver, epoch + async.max_staleness);
  }
  return deliver;
}

Runtime::Runtime(int num_ranks, MachineModel model, DeliveryModel delivery,
                 AsyncWindow async)
    : num_ranks_(num_ranks),
      model_(model),
      delivery_(delivery),
      async_(async),
      stats_(num_ranks),
      windows_(static_cast<std::size_t>(num_ranks)),
      lanes_(static_cast<std::size_t>(num_ranks)),
      lane_seq_(static_cast<std::size_t>(num_ranks), 0),
      deferred_(static_cast<std::size_t>(num_ranks)),
      stage_pools_(static_cast<std::size_t>(num_ranks)),
      window_pools_(static_cast<std::size_t>(num_ranks)),
      fence_matured_(static_cast<std::size_t>(num_ranks)),
      epoch_flops_(static_cast<std::size_t>(num_ranks), 0.0),
      epoch_msgs_(static_cast<std::size_t>(num_ranks), 0),
      epoch_bytes_(static_cast<std::size_t>(num_ranks), 0),
      epoch_msgs_intra_(static_cast<std::size_t>(num_ranks), 0),
      epoch_bytes_intra_(static_cast<std::size_t>(num_ranks), 0),
      epoch_msgs_inter_(static_cast<std::size_t>(num_ranks), 0),
      epoch_bytes_inter_(static_cast<std::size_t>(num_ranks), 0) {
  DSOUTH_CHECK(num_ranks > 0);
  DSOUTH_CHECK(delivery.delay_probability == 0.0 ||
               delivery.max_delay_epochs >= 1);
  DSOUTH_CHECK(0 <= async.min_latency_epochs &&
               async.min_latency_epochs <= async.max_latency_epochs);
}

void Runtime::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (!tracer_) {
    m_msgs_sent_ = trace::kInvalidMetric;
    m_bytes_sent_ = trace::kInvalidMetric;
    m_flops_ = trace::kInvalidMetric;
    m_msgs_physical_ = trace::kInvalidMetric;
    m_msgs_logical_ = trace::kInvalidMetric;
    m_msgs_by_tag_.fill(trace::kInvalidMetric);
    refresh_fault_metrics();
    refresh_async_metrics();
    refresh_node_metrics();
    return;
  }
  DSOUTH_CHECK(tracer->num_ranks() == num_ranks_);
  auto& m = tracer_->metrics();
  m_msgs_sent_ = m.register_metric("simmpi.msgs_sent",
                                   trace::MetricKind::kCounter);
  m_bytes_sent_ = m.register_metric("simmpi.bytes_sent",
                                    trace::MetricKind::kCounter);
  m_flops_ = m.register_metric("simmpi.flops", trace::MetricKind::kCounter);
  m_msgs_physical_ = m.register_metric("simmpi.msgs_physical",
                                       trace::MetricKind::kCounter);
  m_msgs_logical_ = m.register_metric("simmpi.msgs_logical",
                                      trace::MetricKind::kCounter);
  m_msgs_by_tag_[static_cast<std::size_t>(MsgTag::kSolve)] =
      m.register_metric("simmpi.msgs_solve", trace::MetricKind::kCounter);
  m_msgs_by_tag_[static_cast<std::size_t>(MsgTag::kResidual)] =
      m.register_metric("simmpi.msgs_residual", trace::MetricKind::kCounter);
  m_msgs_by_tag_[static_cast<std::size_t>(MsgTag::kOther)] =
      m.register_metric("simmpi.msgs_other", trace::MetricKind::kCounter);
  refresh_fault_metrics();
  refresh_async_metrics();
  refresh_node_metrics();
}

void Runtime::set_profiler(prof::Profiler* profiler) {
  if (profiler) {
    DSOUTH_CHECK_MSG(profiler->num_ranks() == num_ranks_,
                     "profiler needs one lane per rank plus the runtime "
                     "lane: construct it with Profiler(num_ranks())");
  }
  prof_ = profiler;
}

void Runtime::set_fault_schedule(const faults::FaultSchedule* schedule) {
  if (schedule) {
    DSOUTH_CHECK(schedule->num_ranks() == num_ranks_);
  }
  faults_ = schedule;
  kills_ = faults_ && faults_->any_kills();
  refresh_fault_metrics();
}

bool Runtime::rank_dead(int rank) const {
  DSOUTH_ASSERT(rank >= 0 && rank < num_ranks_);
  return kills_ && faults_->dead(rank, epochs_);
}

RuntimeState Runtime::capture_state() const {
  for (const auto& lane : lanes_) {
    DSOUTH_CHECK_MSG(lane.empty(),
                     "capture_state requires empty staging lanes — "
                     "checkpoint between epochs, after the fence");
  }
  RuntimeState st(num_ranks_);
  st.epochs = epochs_;
  st.model_time = model_time_;
  st.last_epoch_seconds = last_epoch_seconds_;
  st.arrival_counter = arrival_counter_;
  st.lane_seq = lane_seq_;
  st.pending_flops = epoch_flops_;
  st.stats = stats_;
  for (int d = 0; d < num_ranks_; ++d) {
    for (const Message& msg : windows_[static_cast<std::size_t>(d)]) {
      st.window_msgs.push_back(
          RuntimeState::WindowMsg{d, msg.source, msg.tag, msg.payload});
    }
    for (const Deferred& held : deferred_[static_cast<std::size_t>(d)]) {
      st.deferred.push_back(RuntimeState::InFlight{
          d, held.source, held.tag, held.seq, held.staged_epoch,
          held.deliver_epoch, held.arrival, held.payload});
    }
  }
  return st;
}

void Runtime::restore_state(const RuntimeState& st) {
  DSOUTH_CHECK(st.stats.num_ranks() == num_ranks_);
  DSOUTH_CHECK(st.lane_seq.size() == static_cast<std::size_t>(num_ranks_));
  DSOUTH_CHECK(st.pending_flops.size() ==
               static_cast<std::size_t>(num_ranks_));
  for (const auto& lane : lanes_) {
    DSOUTH_CHECK_MSG(lane.empty(),
                     "restore_state requires empty staging lanes");
  }
  epochs_ = st.epochs;
  model_time_ = st.model_time;
  last_epoch_seconds_ = st.last_epoch_seconds;
  arrival_counter_ = st.arrival_counter;
  lane_seq_ = st.lane_seq;
  stats_ = st.stats;
  // Re-report the pending flops rather than copying them, so an attached
  // tracer records the compute events the next fence charges (the events
  // of the captured run stayed in its own trace).
  std::fill(epoch_flops_.begin(), epoch_flops_.end(), 0.0);
  for (int r = 0; r < num_ranks_; ++r) {
    const double flops = st.pending_flops[static_cast<std::size_t>(r)];
    if (flops != 0.0) add_flops(r, flops);
  }
  for (auto& win : windows_) win.clear();
  for (auto& held : deferred_) held.clear();
  for (const auto& wm : st.window_msgs) {
    DSOUTH_CHECK(wm.dest >= 0 && wm.dest < num_ranks_);
    windows_[static_cast<std::size_t>(wm.dest)].push_back(
        Message{wm.source, wm.tag, wm.payload});
  }
  for (const auto& inf : st.deferred) {
    DSOUTH_CHECK(inf.dest >= 0 && inf.dest < num_ranks_);
    deferred_[static_cast<std::size_t>(inf.dest)].push_back(
        Deferred{inf.source, inf.tag, inf.seq, inf.staged_epoch,
                 inf.deliver_epoch, inf.arrival, inf.payload});
  }
}

void Runtime::set_node_topology(const NodeTopology* topo,
                                NodeRoutingOptions opts) {
  // A flat topology (one rank per node) has no intra-node tier to model:
  // treat it exactly like no topology at all, so flat runs stay
  // byte-identical to topology-free runs (the header's degeneracy
  // contract).
  if (topo && topo->is_flat()) topo = nullptr;
  if (topo) {
    DSOUTH_CHECK(topo->num_ranks() == num_ranks_);
    const auto nn = static_cast<std::size_t>(topo->num_nodes());
    node_route_ = opts.route_via_leaders;
    if (node_route_) {
      DSOUTH_CHECK_MSG(
          opts.pair_channel_counts.size() == nn * nn,
          "routing needs the dense num_nodes^2 channel-count matrix "
          "(wire::node_pair_channel_counts)");
      node_pair_channels_ = std::move(opts.pair_channel_counts);
    } else {
      node_pair_channels_.clear();
    }
    group_puts_.assign(nn * nn * kNumTags, 0);
    group_records_.assign(nn * nn * kNumTags, 0);
    group_doubles_.assign(nn * nn * kNumTags, 0);
    group_touched_.clear();
    group_touched_.reserve(nn * nn * kNumTags);
  } else {
    node_route_ = false;
    node_pair_channels_.clear();
    group_puts_.clear();
    group_records_.clear();
    group_doubles_.clear();
    group_touched_.clear();
  }
  topo_ = topo;
  refresh_node_metrics();
}

void Runtime::refresh_node_metrics() {
  if (!tracer_ || !topo_) {
    m_node_msgs_intra_ = trace::kInvalidMetric;
    m_node_bytes_intra_ = trace::kInvalidMetric;
    m_node_msgs_inter_ = trace::kInvalidMetric;
    m_node_bytes_inter_ = trace::kInvalidMetric;
    m_node_forward_frames_ = trace::kInvalidMetric;
    m_node_forwarded_records_ = trace::kInvalidMetric;
    return;
  }
  auto& m = tracer_->metrics();
  m_node_msgs_intra_ = m.register_metric("simmpi.node_msgs_intra",
                                         trace::MetricKind::kCounter);
  m_node_bytes_intra_ = m.register_metric("simmpi.node_bytes_intra",
                                          trace::MetricKind::kCounter);
  m_node_msgs_inter_ = m.register_metric("simmpi.node_msgs_inter",
                                         trace::MetricKind::kCounter);
  m_node_bytes_inter_ = m.register_metric("simmpi.node_bytes_inter",
                                          trace::MetricKind::kCounter);
  m_node_forward_frames_ = m.register_metric("simmpi.node_forward_frames",
                                             trace::MetricKind::kCounter);
  m_node_forwarded_records_ = m.register_metric(
      "simmpi.node_forwarded_records", trace::MetricKind::kCounter);
}

void Runtime::refresh_async_metrics() {
  if (!tracer_ || !async_delivery()) {
    m_async_delivered_ = trace::kInvalidMetric;
    m_async_staleness_sum_ = trace::kInvalidMetric;
    m_async_staleness_max_ = trace::kInvalidMetric;
    return;
  }
  auto& m = tracer_->metrics();
  m_async_delivered_ = m.register_metric("simmpi.async_delivered",
                                         trace::MetricKind::kCounter);
  m_async_staleness_sum_ = m.register_metric("simmpi.async_staleness_sum",
                                             trace::MetricKind::kCounter);
  m_async_staleness_max_ = m.register_metric("simmpi.async_staleness_max",
                                             trace::MetricKind::kGauge);
}

void Runtime::refresh_fault_metrics() {
  if (!tracer_ || !faults_) {
    m_faults_dropped_ = trace::kInvalidMetric;
    m_faults_duplicated_ = trace::kInvalidMetric;
    m_faults_corrupted_ = trace::kInvalidMetric;
    m_faults_reordered_ = trace::kInvalidMetric;
    m_faults_killed_ = trace::kInvalidMetric;
    return;
  }
  auto& m = tracer_->metrics();
  m_faults_dropped_ = m.register_metric("simmpi.faults_dropped",
                                        trace::MetricKind::kCounter);
  m_faults_duplicated_ = m.register_metric("simmpi.faults_duplicated",
                                           trace::MetricKind::kCounter);
  m_faults_corrupted_ = m.register_metric("simmpi.faults_corrupted",
                                          trace::MetricKind::kCounter);
  m_faults_reordered_ = m.register_metric("simmpi.faults_reordered",
                                          trace::MetricKind::kCounter);
  // Registered only for plans that configure permanent failure, so
  // message-fault-only traces keep their pre-elastic metric set.
  m_faults_killed_ = faults_->any_kills()
                         ? m.register_metric("simmpi.faults_killed",
                                             trace::MetricKind::kCounter)
                         : trace::kInvalidMetric;
}

std::span<const Message> Runtime::window(int rank) const {
  DSOUTH_CHECK(rank >= 0 && rank < num_ranks_);
  return windows_[static_cast<std::size_t>(rank)];
}

void Runtime::put(int source, int dest, MsgTag tag,
                  std::span<const double> payload) {
  auto out = stage(source, dest, tag, payload.size());
  std::copy(payload.begin(), payload.end(), out.begin());
}

std::span<double> Runtime::stage(int source, int dest, MsgTag tag,
                                 std::size_t doubles,
                                 std::uint64_t logical_records) {
  DSOUTH_CHECK(source >= 0 && source < num_ranks_);
  DSOUTH_CHECK(dest >= 0 && dest < num_ranks_);
  DSOUTH_CHECK_MSG(source != dest, "rank " << source << " put to itself");
  DSOUTH_CHECK(logical_records >= 1);
  // Host profiling (prof/prof.hpp): the span goes into the SOURCE's lane,
  // written only by the thread driving that rank — same contract as the
  // staging state below.
  const prof::ScopedPhase prof_stage(prof_, source, prof::PhaseId::kStage);
  // Everything below is indexed by `source`: concurrent stages from
  // distinct sources touch disjoint state (including the source's own
  // buffer pool). Stats, fault decisions and delivery epochs are deferred
  // to the fence so their order does not depend on thread scheduling.
  const auto us = static_cast<std::size_t>(source);
  lanes_[us].push_back(Staged{dest, tag, lane_seq_[us]++, logical_records,
                              stage_pools_[us].acquire(doubles)});
  ++epoch_msgs_[us];
  const std::uint64_t bytes = message_bytes(doubles);
  epoch_bytes_[us] += bytes;
  if (tracer_) {
    // Indexed by `source` like everything above: the event goes to the
    // source's private trace lane, the metric slots are the source's own.
    tracer_->record(source, trace::EventKind::kPut, dest,
                    static_cast<int>(tag), static_cast<double>(doubles),
                    static_cast<double>(bytes), epochs_, model_time_);
    auto& m = tracer_->metrics();
    m.add(m_msgs_sent_, source, 1.0);
    m.add(m_bytes_sent_, source, static_cast<double>(bytes));
    m.add(m_msgs_physical_, source, 1.0);
    m.add(m_msgs_logical_, source,
          static_cast<double>(logical_records));
    m.add(m_msgs_by_tag_[static_cast<std::size_t>(tag)], source, 1.0);
  }
  return lanes_[us].back().payload;
}

void Runtime::add_flops(int rank, double flops) {
  DSOUTH_CHECK(rank >= 0 && rank < num_ranks_);
  DSOUTH_CHECK(flops >= 0.0);
  epoch_flops_[static_cast<std::size_t>(rank)] += flops;
  if (tracer_) {
    // Indexed by `rank` like the accumulator above. Recording each charge
    // (rather than a per-epoch total) preserves call order in the rank's
    // lane, so an analyzer summing compute events per (rank, epoch)
    // reproduces epoch_flops_ bit-exactly — same addends, same order.
    tracer_->record(rank, trace::EventKind::kCompute, /*peer=*/-1,
                    /*tag=*/-1, flops, 0.0, epochs_, model_time_);
    tracer_->metrics().add(m_flops_, rank, flops);
  }
}

void Runtime::node_prepass() {
  const std::uint64_t closed_epoch = epochs_;
  const NodeTopology& topo = *topo_;
  const auto nn = static_cast<std::size_t>(topo.num_nodes());

  // Charge one physical hop to `payer`: tier accumulators (the machine
  // model's inputs), CommStats, the kHop trace event (into the payer's
  // lane, folded into this fence's merge by end_epoch — the kFault
  // pattern), and the per-rank node metrics. Hop events carry the same
  // (epoch, t_model) stamp as the puts they settle: the pre-pass runs
  // before the epoch is charged.
  const auto charge_hop = [&](int payer, int phys_dest, int hop_kind,
                              std::uint64_t bytes, std::uint64_t records) {
    const bool inter = trace::hop_is_inter(hop_kind);
    const auto up = static_cast<std::size_t>(payer);
    if (inter) {
      ++epoch_msgs_inter_[up];
      epoch_bytes_inter_[up] += bytes;
    } else {
      ++epoch_msgs_intra_[up];
      epoch_bytes_intra_[up] += bytes;
    }
    stats_.record_hop(inter, bytes);
    if (tracer_) {
      tracer_->record(payer, trace::EventKind::kHop, phys_dest, hop_kind,
                      static_cast<double>(bytes),
                      static_cast<double>(records), closed_epoch,
                      model_time_);
      auto& met = tracer_->metrics();
      met.add(inter ? m_node_msgs_inter_ : m_node_msgs_intra_, payer, 1.0);
      met.add(inter ? m_node_bytes_inter_ : m_node_bytes_intra_, payer,
              static_cast<double>(bytes));
    }
  };

  for (int s = 0; s < num_ranks_; ++s) {
    for (const Staged& m : lanes_[static_cast<std::size_t>(s)]) {
      const std::uint64_t bytes = message_bytes(m.payload.size());
      const bool same = topo.same_node(s, m.dest);
      bool dropped = false;
      if (kills_ && (faults_->dead(s, closed_epoch) ||
                     faults_->dead(m.dest, closed_epoch))) {
        // Dead-endpoint traffic dies at its source exactly like a dropped
        // message: the sender paid one direct hop, no relay ever saw it.
        dropped = true;
      } else if (faults_) {
        // decide() is a stateless hash of (epoch, src, dst, seq), so this
        // pre-pass draw is identical to the one the delivery merge makes
        // later.
        dropped = faults_->decide(closed_epoch, s, m.dest, m.seq,
                                  m.payload.size())
                      .drop;
      }
      if (same || dropped || !node_route_) {
        // Intra-node traffic and un-routed inter-node traffic go direct.
        // A dropped message died at its source: the sender still paid the
        // single-hop wire charge, and no relay ever saw it.
        charge_hop(s, m.dest,
                   same ? trace::kHopIntraDirect : trace::kHopInterDirect,
                   bytes, m.records);
        continue;
      }
      const int sn = topo.node_of(s);
      const int dn = topo.node_of(m.dest);
      const int src_leader = topo.leader_of(sn);
      if (s != src_leader) {
        charge_hop(s, src_leader, trace::kHopRelayUp, bytes, m.records);
      }
      const std::size_t g =
          (static_cast<std::size_t>(sn) * nn + static_cast<std::size_t>(dn)) *
              kNumTags +
          static_cast<std::size_t>(m.tag);
      if (group_puts_[g] == 0) group_touched_.push_back(g);
      ++group_puts_[g];
      group_records_[g] += m.records;
      group_doubles_[g] += m.payload.size();
      const int dst_leader = topo.leader_of(dn);
      if (m.dest != dst_leader) {
        charge_hop(dst_leader, m.dest, trace::kHopRelayDown, bytes,
                   m.records);
      }
    }
  }

  // One leader->leader physical message per touched (src node, dst node,
  // tag) group, emitted in ascending group index — deterministic whatever
  // order the puts were staged in (in-place sort on a persistent vector:
  // no allocation). A group of one ships bare, byte-identical to a direct
  // charge. Larger groups are charged as a forward frame, and this charge
  // is the whole definition of one (no codec builds the frame): one magic
  // double, a presence bitmap of W = ceil(channels / 64) words over the
  // pair's plan channels, then the group's bodies back to back.
  std::sort(group_touched_.begin(), group_touched_.end());
  for (const std::size_t g : group_touched_) {
    const std::size_t pair = g / kNumTags;
    const auto sn = static_cast<int>(pair / nn);
    const auto dn = static_cast<int>(pair % nn);
    const std::uint32_t puts = group_puts_[g];
    const std::uint64_t records = group_records_[g];
    const std::uint64_t doubles = group_doubles_[g];
    group_puts_[g] = 0;
    group_records_[g] = 0;
    group_doubles_[g] = 0;
    const std::uint32_t channels = node_pair_channels_[pair];
    DSOUTH_CHECK_MSG(puts <= channels,
                     "node pair (" << sn << " -> " << dn << ") forwarded "
                                   << puts << " puts but the plan has only "
                                   << channels << " channels");
    std::uint64_t bytes;
    if (puts == 1) {
      bytes = message_bytes(static_cast<std::size_t>(doubles));
    } else {
      const std::uint64_t bitmap_words =
          (static_cast<std::uint64_t>(channels) + 63) / 64;
      bytes = message_bytes(
          static_cast<std::size_t>(1 + bitmap_words + doubles));
    }
    const int src_leader = topo.leader_of(sn);
    const int dst_leader = topo.leader_of(dn);
    charge_hop(src_leader, dst_leader, trace::kHopInterLeader, bytes,
               records);
    stats_.record_forward(records);
    if (tracer_) {
      auto& met = tracer_->metrics();
      met.add(m_node_forward_frames_, src_leader, 1.0);
      met.add(m_node_forwarded_records_, src_leader,
              static_cast<double>(records));
    }
  }
  group_touched_.clear();
}

void Runtime::fence() {
  // Host profiling: the fence runs single-threaded, so its spans (and the
  // nested node-prepass / delivery-draw spans below) go to the runtime
  // lane. Null-attached, this is one branch.
  const prof::ScopedPhase prof_fence(prof_, num_ranks_,
                                     prof::PhaseId::kFence);

  // Node-aware accounting first (no-op without a topology): it must see
  // the staging lanes intact, and it fills the tier accumulators the
  // charging loop below reads.
  if (topo_) {
    const prof::ScopedPhase prof_prepass(prof_, num_ranks_,
                                         prof::PhaseId::kNodePrepass);
    node_prepass();
  }

  // Charge the machine model for this epoch. A straggler rank's cost is
  // multiplied by its slowdown before the max: the bulk-synchronous fence
  // then runs at the straggler's pace. With a topology attached the
  // charge is per physical hop on the two-tier network (rank_cost_tiered,
  // fed by the prepass) and the fence's message total is the physical hop
  // count; without one it is the legacy per-put accounting, bit for bit.
  double max_rank_cost = 0.0;
  std::uint64_t epoch_total_msgs = 0;
  for (int r = 0; r < num_ranks_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    double rank_cost;
    if (topo_) {
      rank_cost = model_.rank_cost_tiered(
          epoch_flops_[i], epoch_msgs_intra_[i], epoch_bytes_intra_[i],
          epoch_msgs_inter_[i], epoch_bytes_inter_[i]);
      epoch_total_msgs += epoch_msgs_intra_[i] + epoch_msgs_inter_[i];
      epoch_msgs_intra_[i] = 0;
      epoch_bytes_intra_[i] = 0;
      epoch_msgs_inter_[i] = 0;
      epoch_bytes_inter_[i] = 0;
    } else {
      rank_cost = model_.rank_cost(epoch_flops_[i], epoch_msgs_[i],
                                   epoch_bytes_[i]);
      epoch_total_msgs += epoch_msgs_[i];
    }
    if (faults_) rank_cost *= faults_->slowdown(r);
    max_rank_cost = std::max(max_rank_cost, rank_cost);
    epoch_flops_[i] = 0.0;
    epoch_msgs_[i] = 0;
    epoch_bytes_[i] = 0;
  }
  last_epoch_seconds_ =
      model_.epoch_seconds(max_rank_cost, epoch_total_msgs, num_ranks_);
  model_time_ += last_epoch_seconds_;
  const std::uint64_t closed_epoch = epochs_;
  ++epochs_;

  // Fold pending per-tenant attributions (batched serving) into CommStats
  // in ascending source order — the same deterministic order the delivery
  // merge below consumes the staging lanes in. No-op unless a batch
  // configured tenants (set_num_tenants).
  for (std::size_t i = 0; i < tenant_lane_records_.size(); ++i) {
    if (tenant_lane_records_[i] == 0 && tenant_lane_doubles_[i] == 0) {
      continue;
    }
    stats_.record_tenant(i % num_tenants_, tenant_lane_records_[i],
                         tenant_lane_doubles_[i]);
    tenant_lane_records_[i] = 0;
    tenant_lane_doubles_[i] = 0;
  }

  // Fault-event hook: kFault events go into the SOURCE rank's trace lane
  // (mid-merge, like the puts they describe) and are folded into the
  // global stream by the end_epoch() below — which therefore runs AFTER
  // the merge loop. For fault-free runs the merge loop records nothing,
  // so the trace stream is byte-identical to the pre-fault ordering.
  auto record_fault = [this, closed_epoch](int src, int dest, int action,
                                           std::uint64_t seq, double detail) {
    if (tracer_) {
      tracer_->record(src, trace::EventKind::kFault, dest, action,
                      static_cast<double>(seq), detail, closed_epoch,
                      model_time_);
    }
  };

  // Per-message accounting, merged from the per-source staging lanes in
  // (source, send-order) order — exactly the chronological put order of a
  // sequential rank sweep, so stats accumulate in the same order
  // regardless of which backend (or test) staged the puts. Fault decisions
  // and delivery epochs are keyed draws and depend on no order at all.
  // The fence runs on a single thread after the backend
  // joins the epoch, so it may touch every rank's pools: each payload is
  // copied from its source's staging buffer into a buffer from the
  // DEST's window pool and the staging buffer returns to its source —
  // both pools stay closed per-rank loops, which is what keeps
  // steady-state traffic allocation-free.
  for (int s = 0; s < num_ranks_; ++s) {
    auto& lane = lanes_[static_cast<std::size_t>(s)];
    for (auto& m : lane) {
      stats_.record_send(s, m.tag, message_bytes(m.payload.size()),
                         m.records);
      if (kills_ && (faults_->dead(s, closed_epoch) ||
                     faults_->dead(m.dest, closed_epoch))) {
        // Permanent rank failure: traffic from or to a dead rank is
        // swallowed at the fence — the sender paid for the put
        // (record_send above) and no other fault draw applies, exactly
        // like a fault drop.
        stats_.record_dead_drop(s);
        record_fault(s, m.dest, /*action=*/6, m.seq, 0.0);
        if (tracer_) tracer_->metrics().add(m_faults_killed_, s, 1.0);
        stage_pools_[static_cast<std::size_t>(s)].release(
            std::move(m.payload));
        continue;
      }
      faults::FaultDecision fd;
      if (faults_) {
        fd = faults_->decide(closed_epoch, s, m.dest, m.seq,
                             m.payload.size());
      }
      if (fd.drop) {
        // Dropped before the fabric: the sender still paid for the put
        // (record_send above, machine-model bytes), but the message never
        // reaches the fabric clock. Later messages' delivery epochs are
        // keyed draws, so the drop shifts none of them.
        stats_.record_drop(s);
        record_fault(s, m.dest, /*action=*/0, m.seq, 0.0);
        if (tracer_) tracer_->metrics().add(m_faults_dropped_, s, 1.0);
        stage_pools_[static_cast<std::size_t>(s)].release(
            std::move(m.payload));
        continue;
      }
      std::uint64_t deliver_epoch;
      {
        // The host span times async runs' draws only: bulk-synchronous
        // fences record no kDeliveryPolicy span.
        const prof::ScopedPhase prof_draw(async_delivery() ? prof_ : nullptr,
                                          num_ranks_,
                                          prof::PhaseId::kDeliveryPolicy);
        deliver_epoch = fabric_deliver_epoch(delivery_, async_, closed_epoch,
                                             s, m.dest, m.seq);
      }
      if (fd.reorder_extra > 0) {
        deliver_epoch += static_cast<std::uint64_t>(fd.reorder_extra);
        record_fault(s, m.dest, /*action=*/2, m.seq,
                     static_cast<double>(fd.reorder_extra));
        if (tracer_) tracer_->metrics().add(m_faults_reordered_, s, 1.0);
      }
      if (faults_) {
        // A stalled sender's traffic is frozen until its stall window
        // closes (composes with delay/reorder by taking the max).
        const std::uint64_t hold = faults_->hold_until(s, closed_epoch);
        if (hold != closed_epoch) {
          record_fault(s, m.dest, /*action=*/5, m.seq,
                       static_cast<double>(hold - closed_epoch));
          deliver_epoch = std::max(deliver_epoch, hold);
        }
      }
      const auto ud = static_cast<std::size_t>(m.dest);
      const std::size_t delivered_len =
          fd.truncate ? fd.truncate_len : m.payload.size();
      std::vector<double> delivered = window_pools_[ud].acquire(delivered_len);
      std::copy(m.payload.begin(),
                m.payload.begin() + static_cast<std::ptrdiff_t>(delivered_len),
                delivered.begin());
      stage_pools_[static_cast<std::size_t>(s)].release(
          std::move(m.payload));
      if (fd.truncate) {
        stats_.record_corrupt(s);
        record_fault(s, m.dest, /*action=*/4, m.seq,
                     static_cast<double>(delivered_len));
        if (tracer_) tracer_->metrics().add(m_faults_corrupted_, s, 1.0);
      } else if (fd.corrupt) {
        double& slot = delivered[fd.corrupt_index];
        slot = std::bit_cast<double>(std::bit_cast<std::uint64_t>(slot) ^
                                     (1ULL << fd.corrupt_bit));
        stats_.record_corrupt(s);
        record_fault(s, m.dest, /*action=*/3, m.seq,
                     static_cast<double>(fd.corrupt_index) * 64.0 +
                         static_cast<double>(fd.corrupt_bit));
        if (tracer_) tracer_->metrics().add(m_faults_corrupted_, s, 1.0);
      }
      auto& sink =
          deliver_epoch < epochs_ ? fence_matured_[ud] : deferred_[ud];
      if (fd.duplicate) {
        // Two identical deliveries with the same (source, seq) key: the
        // stable maturation sort keeps them adjacent and in push order.
        std::vector<double> dup = window_pools_[ud].acquire(delivered_len);
        std::copy(delivered.begin(), delivered.end(), dup.begin());
        stats_.record_duplicate(s);
        record_fault(s, m.dest, /*action=*/1, m.seq, 0.0);
        if (tracer_) tracer_->metrics().add(m_faults_duplicated_, s, 1.0);
        sink.push_back(Deferred{s, m.tag, m.seq, closed_epoch, deliver_epoch,
                                arrival_counter_++, std::move(dup)});
      }
      sink.push_back(Deferred{s, m.tag, m.seq, closed_epoch, deliver_epoch,
                              arrival_counter_++, std::move(delivered)});
    }
    lane.clear();
  }

  // Permanent-failure sweep (kill plans only): purge in-flight deferred
  // messages whose source died after staging them — "its in-flight
  // traffic is dropped" — or whose destination is dead. Deterministic:
  // destination-ascending walk in held order, gated on the same monotone
  // dead() predicate every backend evaluates identically.
  if (kills_) {
    for (int r = 0; r < num_ranks_; ++r) {
      const auto i = static_cast<std::size_t>(r);
      auto& held = deferred_[i];
      const bool dest_dead = faults_->dead(r, closed_epoch);
      fence_keep_.clear();
      for (auto& d : held) {
        if (dest_dead || faults_->dead(d.source, closed_epoch)) {
          stats_.record_dead_drop(d.source);
          record_fault(d.source, r, /*action=*/6, d.seq, 1.0);
          if (tracer_) {
            tracer_->metrics().add(m_faults_killed_, d.source, 1.0);
          }
          window_pools_[i].release(std::move(d.payload));
        } else {
          fence_keep_.push_back(std::move(d));
        }
      }
      held.swap(fence_keep_);
    }
  }

  // Deliver matured messages (fresh plus previously-deferred ones whose
  // epoch has come), sorted by (source, send order) so every run is
  // bit-identical regardless of the order ranks were stepped in. Runs
  // BEFORE end_epoch() so the kDeliver events recorded into destination
  // lanes here fold into this fence's merge; bulk-synchronous runs record
  // nothing here, so their streams keep the pre-async ordering exactly.
  for (int r = 0; r < num_ranks_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    auto& held = deferred_[i];
    auto& ready = fence_matured_[i];
    fence_keep_.clear();
    for (auto& d : held) {
      if (d.deliver_epoch < epochs_) {
        ready.push_back(std::move(d));
      } else {
        fence_keep_.push_back(std::move(d));
      }
    }
    held.swap(fence_keep_);
    // Stable: duplicated messages share a (source, seq) key, and their
    // delivery order must not depend on the sort's tie-breaking, so the
    // arrival counter completes the key into a total order (equivalent to
    // a stable sort, but in-place — std::stable_sort's temp buffer would
    // cost an allocation per fence).
    std::sort(ready.begin(), ready.end(),
              [](const Deferred& a, const Deferred& b) {
                if (a.source != b.source) return a.source < b.source;
                if (a.seq != b.seq) return a.seq < b.seq;
                return a.arrival < b.arrival;
              });
    auto& win = windows_[i];
    for (auto& d : ready) {
      if (async_delivery()) {
        // Staleness = epochs between staging and this delivering fence
        // (which closed `closed_epoch`). 0 for same-fence delivery.
        const std::uint64_t staleness = closed_epoch - d.staged_epoch;
        stats_.record_async_delivery(r, staleness);
        if (tracer_) {
          tracer_->record(r, trace::EventKind::kDeliver, d.source,
                          static_cast<int>(d.tag),
                          static_cast<double>(staleness),
                          static_cast<double>(d.payload.size()), closed_epoch,
                          model_time_);
          auto& met = tracer_->metrics();
          met.add(m_async_delivered_, r, 1.0);
          met.add(m_async_staleness_sum_, r,
                  static_cast<double>(staleness));
          if (m_async_staleness_max_ != trace::kInvalidMetric &&
              static_cast<double>(staleness) >
                  met.value(m_async_staleness_max_, r)) {
            met.set(m_async_staleness_max_, r,
                    static_cast<double>(staleness));
          }
        }
      }
      win.push_back(Message{d.source, d.tag, std::move(d.payload)});
    }
    ready.clear();
  }

  if (tracer_) {
    // Merge the per-rank event lanes in (rank, record-order) order — the
    // same deterministic order the staged puts merged in above — and stamp
    // the fence event with the post-charge modeled time.
    tracer_->end_epoch(closed_epoch, model_time_, last_epoch_seconds_,
                       epoch_total_msgs);
  }
}

void Runtime::consume(int rank) {
  DSOUTH_CHECK(rank >= 0 && rank < num_ranks_);
  const auto i = static_cast<std::size_t>(rank);
  auto& win = windows_[i];
  auto& pool = window_pools_[i];
  for (auto& msg : win) pool.release(std::move(msg.payload));
  const std::size_t consumed = win.size();
  win.clear();
  // Swap-shrink a pathological window: a delivery burst (delayed-delivery
  // pileup) can leave capacity far above steady state. The floor keeps
  // ordinary small windows from thrashing on quiet epochs.
  constexpr std::size_t kShrinkFloor = 64;
  if (win.capacity() > kShrinkFloor && win.capacity() > 4 * consumed) {
    std::vector<Message>().swap(win);
  }
}

void Runtime::drain_delayed() {
  // Terminates because deferred deliver_epochs are fixed finite values and
  // every fence strictly increments epochs_; the guard turns a logic error
  // (a schedule handing out ever-later hold epochs) into a check failure
  // instead of a hang.
  for (std::uint64_t guard = 0;; ++guard) {
    DSOUTH_CHECK_MSG(guard < (1ULL << 20), "drain_delayed did not converge");
    bool any = false;
    for (const auto& lane : lanes_) {
      if (!lane.empty()) any = true;
    }
    for (const auto& held : deferred_) {
      if (!held.empty()) any = true;
    }
    if (!any) break;
    fence();
  }
}

void Runtime::reset_stats() {
  stats_.reset();
  // A reset means "nothing has been sent yet" — attributions staged since
  // the last fence must not leak into the next measurement window.
  std::fill(tenant_lane_records_.begin(), tenant_lane_records_.end(), 0);
  std::fill(tenant_lane_doubles_.begin(), tenant_lane_doubles_.end(), 0);
}

void Runtime::set_num_tenants(std::size_t n) {
  num_tenants_ = n;
  const std::size_t slots = static_cast<std::size_t>(num_ranks_) * n;
  tenant_lane_records_.assign(slots, 0);
  tenant_lane_doubles_.assign(slots, 0);
  stats_.configure_tenants(n);
}

void Runtime::add_tenant_records(int source, int tenant,
                                 std::uint64_t records,
                                 std::uint64_t doubles) {
  DSOUTH_CHECK(source >= 0 && source < num_ranks_);
  DSOUTH_CHECK(tenant >= 0 &&
               static_cast<std::size_t>(tenant) < num_tenants_);
  const std::size_t i =
      static_cast<std::size_t>(source) * num_tenants_ +
      static_cast<std::size_t>(tenant);
  tenant_lane_records_[i] += records;
  tenant_lane_doubles_[i] += doubles;
}

}  // namespace dsouth::simmpi
