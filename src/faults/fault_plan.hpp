#pragma once

/// \file fault_plan.hpp
/// Deterministic fault-injection plans for the simulated runtime
/// (docs/resilience.md).
///
/// A FaultPlan is a declarative description of what may go wrong on the
/// simulated fabric: per-edge message drop / duplication / bounded
/// reordering / payload corruption or truncation probabilities, straggler
/// ranks whose epochs run slower, and transient rank stalls that hold a
/// rank's outgoing messages for k epochs. Compiling the plan against a
/// rank count yields a FaultSchedule, which the Runtime consults at fence
/// time (Runtime::set_fault_schedule).
///
/// Determinism contract: every draw is a *stateless* keyed hash
/// (util::keyed_draw) of (seed, fault-type salt, epoch, src, dst, seq).
/// Because a message's
/// (epoch, src, dst, seq) key is assigned identically whichever execution
/// backend staged it (seq is the source's monotonic send counter), the
/// same plan produces bit-identical faults — and therefore bit-identical
/// runs — on the sequential and multithreaded backends, and the draws are
/// independent of the runtime's delivery-delay and latency draws (distinct
/// salts over the same key), so the two compose without perturbing each
/// other.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsouth::faults {

/// Per-channel fault probabilities (all in [0, 1], all default 0).
struct EdgeFaults {
  double drop_probability = 0.0;       ///< message silently lost
  double duplicate_probability = 0.0;  ///< message delivered twice
  double reorder_probability = 0.0;    ///< held 1..max_reorder extra fences
  double corrupt_probability = 0.0;    ///< one payload bit flipped
  double truncate_probability = 0.0;   ///< payload cut to a shorter prefix

  bool any() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           reorder_probability > 0.0 || corrupt_probability > 0.0 ||
           truncate_probability > 0.0;
  }
};

/// Override the default EdgeFaults on one directed (src -> dst) channel.
struct EdgeOverride {
  int src = -1;
  int dst = -1;
  EdgeFaults faults;
};

/// A rank whose local epoch cost is multiplied by `slowdown` (>= 1.0):
/// the bulk-synchronous fence then charges every epoch at the straggler's
/// pace — the "one slow node drags the machine" regime.
struct Straggler {
  int rank = -1;
  double slowdown = 1.0;
};

/// A transient stall: `rank` goes silent for `epochs` epochs starting at
/// `first_epoch` — messages it stages during the window are held and land
/// together at the fence that closes the stall's last epoch. (Rank
/// programs still run; only the rank's outgoing traffic is frozen, which
/// is how a one-sided-RMA peer experiences a stalled sender.)
struct Stall {
  int rank = -1;
  std::uint64_t first_epoch = 0;
  std::uint64_t epochs = 0;
};

/// A *permanent* rank failure: `rank` is dead from `epoch` on — it stops
/// relaxing, everything it has in flight is dropped, and peers observe
/// silence forever after (src/elastic recovers from this;
/// docs/resilience.md "Permanent failure and recovery"). Unlike a Stall
/// there is no recovery window: death is monotone in the epoch counter.
struct RankKill {
  int rank = -1;
  std::uint64_t epoch = 0;  ///< first epoch the rank is dead in
};

/// Seeded random permanent failures: each (rank, epoch) pair with
/// epoch < max_kill_epoch draws dead with probability `probability` from
/// the stateless (seed, salt, epoch, rank) hash — the same SplitMix64
/// scheme every other fault type uses, so kill draws perturb no other
/// stream. A rank's kill epoch is the *first* epoch whose draw fires;
/// FaultSchedule precomputes the draws at compile time, so runtime
/// queries are array lookups.
struct RandomKills {
  double probability = 0.0;        ///< per-(rank,epoch) death probability
  std::uint64_t max_kill_epoch = 0;  ///< draws cover epochs [0, max)
};

/// Declarative fault-injection plan. Default-constructed == no faults;
/// Runtime behaviour with `any() == false` is byte-identical to a run
/// with no plan at all (the driver never attaches an empty plan).
struct FaultPlan {
  std::uint64_t seed = 0xFA17ULL;
  EdgeFaults defaults;              ///< applied to every directed channel
  std::vector<EdgeOverride> edges;  ///< per-channel overrides (win over
                                    ///< defaults; last override wins)
  int max_reorder_epochs = 2;       ///< bound on reordering delay (>= 1)
  std::vector<Straggler> stragglers;
  std::vector<Stall> stalls;
  /// Explicit kill-at-epoch overrides (the earliest epoch wins when a rank
  /// appears more than once, or also draws a random kill).
  std::vector<RankKill> kills;
  /// Seeded random permanent failures (composes with explicit kills).
  RandomKills random_kills;

  /// True when the plan can perturb anything at all.
  bool any() const;
};

/// What the schedule decided for one staged message. At most one of
/// `drop`, (`corrupt` | `truncate`) applies to the payload; `duplicate`
/// and `reorder_extra` compose with either.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  bool truncate = false;
  int reorder_extra = 0;          ///< extra epochs to hold the message
  std::size_t corrupt_index = 0;  ///< payload double whose bit flips
  int corrupt_bit = 0;            ///< which of its 64 bits
  std::size_t truncate_len = 0;   ///< delivered payload length (prefix)
};

/// A FaultPlan compiled against a rank count: dense per-edge probability
/// table, per-rank slowdowns, per-rank stall windows. Immutable after
/// construction, so it is safe to share by const pointer with a Runtime
/// whose rank programs run concurrently.
class FaultSchedule {
 public:
  FaultSchedule(const FaultPlan& plan, int num_ranks);

  int num_ranks() const { return num_ranks_; }
  const FaultPlan& plan() const { return plan_; }

  /// Decide the fate of the message (src -> dst) with per-source send
  /// counter `seq`, staged in `epoch`. Pure function of the schedule's
  /// seed and the arguments — see the determinism contract above.
  FaultDecision decide(std::uint64_t epoch, int src, int dst,
                       std::uint64_t seq, std::size_t payload_doubles) const;

  /// Epoch-cost multiplier for `rank` (1.0 unless a straggler).
  double slowdown(int rank) const;

  /// The earliest epoch at which a message staged by `rank` in `epoch`
  /// may be delivered: `epoch` itself, or the end of the stall window
  /// covering `epoch` when the rank is stalled.
  std::uint64_t hold_until(int rank, std::uint64_t epoch) const;

  /// True when some stall window covers (rank, epoch).
  bool stalled(int rank, std::uint64_t epoch) const {
    return hold_until(rank, epoch) != epoch;
  }

  /// Sentinel kill epoch for a rank that never dies.
  static constexpr std::uint64_t kNeverKilled = ~0ULL;

  /// The epoch at which `rank` dies — the minimum over its explicit
  /// RankKill entries and its first firing random-kill draw — or
  /// kNeverKilled. Precomputed at construction, so this is a lookup.
  std::uint64_t kill_epoch(int rank) const;

  /// True when `rank` is permanently dead at `epoch`.
  bool dead(int rank, std::uint64_t epoch) const {
    return epoch >= kill_epoch(rank);
  }

  /// True when the plan configures any permanent failure at all (the
  /// runtime's cue to run the dead-traffic sweep at each fence).
  bool any_kills() const { return any_kills_; }

 private:
  const EdgeFaults& edge(int src, int dst) const {
    return edges_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(num_ranks_) +
                  static_cast<std::size_t>(dst)];
  }

  FaultPlan plan_;
  int num_ranks_;
  std::vector<EdgeFaults> edges_;   // dense num_ranks x num_ranks
  std::vector<double> slowdowns_;   // per rank, default 1.0
  std::vector<std::vector<Stall>> stalls_;  // per rank, sorted by start
  std::vector<std::uint64_t> kill_epochs_;  // per rank, kNeverKilled default
  bool any_kills_ = false;
};

}  // namespace dsouth::faults
