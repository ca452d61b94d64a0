// Coordinator: fans a TopK query out to every shard worker, merges the
// per-shard exact top-k lists into the exact global top-k, and bounds
// tail latency with per-query deadlines + hedged requests.
//
// ## Exact-merge argument (the dist_oracle_test contract)
//
// Shards partition the bundle's rows (by site, shard_map.h), each
// worker returns its exact shard-local top-k under the same blended
// score and the same (score desc, global row asc) tie-break as the
// single-process engine, and the global top-k is contained in the
// union of shard top-k's (a page in the global top-k beats every page
// outside it, in particular all pages of its own shard outside the
// shard's top-k). The coordinator's k-way merge uses the identical
// comparator on global rows, so the merged list is element-for-element
// identical to QueryEngine::TopK on the unsharded bundle. Scores agree
// bitwise because both sides evaluate the same double expression
// alpha*q + (1-alpha)*pr on the same doubles.
//
// Exploration (Pandey per-slot promotion) survives distribution in two
// different ways:
//   * site queries route to the single owning shard with epsilon/seed
//     intact — the worker's posting group is identical (under the
//     monotone row translation) to the unsharded one, so the engine's
//     own exploration already matches the oracle.
//   * global queries are fanned out with epsilon forced to 0; after
//     the exact merge the coordinator runs the engine's own draw loop
//     (DrawExplorationPromotions, same Rng stream) over the merged
//     rows, then resolves the promoted rows' (page_id, quality,
//     pagerank) from the owning shards and computes the same blend.
//     The draws need only row numbers, which the merge already has.
//
// ## Deadline / hedging (per wave)
//
// A wave is one loop on the calling thread. It sends the encoded frame
// on each target shard's primary connection, then polls every
// in-flight connection until all shards settle or the deadline passes:
//
//     send primaries ──▶ poll ──▶ all settled? ──▶ merge (exact)
//          │ hedge_delay passes with shard(s) unsettled
//          ▼
//     send hedges (replica, or 2nd connection) ──▶ poll
//          │ deadline passes with shard(s) still unsettled
//          ▼
//     close every connection still in flight,
//     return partial results with degraded = true
//
// A shard settles when one of its connections delivers a whole frame,
// or when its primary failed and no rescue can come (hedging off, or
// the hedge failed too). Connects are non-blocking and run inside the
// same loop, so an unreachable host costs its own shard the deadline
// and nothing more. Cancel is close: the QRKF stream has no way to skip
// an abandoned response, so a connection still in flight when its wave
// ends is closed, and it reconnects on its next send — which is also
// the worker-rejoin path. Nothing from a closed connection can reach a
// later wave, so a wave never has to tell a stale answer from its own.
//
// Thread model: no threads of its own. Start, Stop and TopK run on the
// caller's thread and are externally synchronized — run one
// Coordinator per client thread, mirroring TopKScratch. The counters
// may be read from any thread.

#ifndef QRANK_DIST_COORDINATOR_H_
#define QRANK_DIST_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/rpc.h"
#include "dist/shard_map.h"
#include "serve/query_engine.h"

namespace qrank {

struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Where shard s lives. With a replica, hedged requests go there;
/// without one they open a second connection to the primary (which
/// rescues a wedged connection, not a dead worker).
struct ShardAddress {
  ShardEndpoint primary;
  bool has_replica = false;
  ShardEndpoint replica;
};

struct CoordinatorOptions {
  /// Per-query budget; a shard that has not answered by then is
  /// canceled and the query returns degraded partial results.
  std::chrono::milliseconds query_deadline{250};
  /// How long a shard may stay silent before its hedge request fires.
  /// >= query_deadline disables hedging.
  std::chrono::milliseconds hedge_delay{60};
};

/// One distributed TopK answer. Reuse the instance across queries:
/// entries allocates only until it has seen the largest k.
struct DistTopKResult {
  std::vector<TopKEntry> entries;  // best first; rows are GLOBAL rows
  /// True when any target shard missed the deadline / dropped, or a
  /// global query had to skip or abandon exploration resolve.
  bool degraded = false;
  uint32_t shards_asked = 0;
  uint32_t shards_answered = 0;
  uint32_t hedges_fired = 0;
};

class Coordinator {
 public:
  /// `shards[s]` addresses shard s; shards.size() must equal
  /// map.num_shards.
  Coordinator(ShardMap map, std::vector<ShardAddress> shards,
              CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Sizes the per-query scratch. No connections are opened yet —
  /// each connects on its first send and again on the send after a
  /// failure (the worker-rejoin path).
  Status Start();

  /// Closes every connection. Idempotent; TopK fails afterwards.
  void Stop();

  /// Distributed top-k. Exact (oracle-identical) when result->degraded
  /// is false; partial results otherwise. One call at a time per
  /// Coordinator (see header comment).
  Status TopK(const TopKQuery& query, DistTopKResult* result);

  const ShardMap& shard_map() const { return map_; }

  uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
  uint64_t degraded_queries() const {
    return degraded_queries_.load(std::memory_order_relaxed);
  }
  uint64_t hedges_fired() const {
    return hedges_fired_.load(std::memory_order_relaxed);
  }

 private:
  /// One persistent connection to a shard. Two per shard: the primary
  /// is lanes_[2s], the hedge lanes_[2s+1] (to the replica if any).
  struct Lane {
    enum class Phase : uint8_t {
      kIdle,        // no request this wave
      kConnecting,  // non-blocking connect in progress
      kSending,     // request frame partly written
      kReceiving,   // response frame partly read
      kAnswered,    // whole validated response in `response`
      kFailed,      // connection closed on an error
    };
    bool in_flight() const {
      return phase == Phase::kConnecting || phase == Phase::kSending ||
             phase == Phase::kReceiving;
    }

    ShardEndpoint endpoint;
    Socket socket;
    Phase phase = Phase::kIdle;
    size_t sent = 0;
    FrameReader reader;
    std::vector<uint8_t> response;
  };

  /// Tracks one exploration promotion so an unresolvable row (owner
  /// shard degraded) can be rolled back to the deterministic entry.
  struct Promotion {
    size_t slot = 0;
    TopKEntry original;
    bool filled = false;
  };

  /// Per-query scratch, preallocated by Start: the fan-out, merge and
  /// exploration paths are allocation-free after warm-up.
  struct QueryScratch {
    std::vector<uint8_t> request_frame;
    std::vector<uint8_t> resolve_frame;
    std::vector<pollfd> pollfds;              // slot per lane
    std::vector<Lane*> polled;                // lane of each pollfds entry
    std::vector<const Lane*> answer;          // slot per shard; null = none
    std::vector<uint8_t> shard_ok;            // slot per shard
    std::vector<WireTopKResponse> responses;  // slot per shard
    std::vector<size_t> cursor;               // slot per shard
    WireResolveRequest resolve_request;
    WireResolveResponse resolve_response;
    std::vector<Promotion> promotions;
  };

  /// Puts `frame` on `lane`: connects first when the lane has no live
  /// connection, else writes at once.
  void Send(Lane* lane, std::span<const uint8_t> frame);

  /// Moves `lane` forward with whatever its socket has ready.
  void Advance(Lane* lane, std::span<const uint8_t> frame);

  /// Fans `frame` to shards [shard_lo, shard_hi), hedging unsettled
  /// shards at hedge_time, until every shard settled or `deadline`.
  /// Leaves each shard's response (or null) in scratch_.answer and
  /// returns the number of shards that answered.
  uint32_t RunWave(std::span<const uint8_t> frame, uint32_t shard_lo,
                   uint32_t shard_hi, RpcDeadline hedge_time,
                   RpcDeadline deadline, DistTopKResult* result);

  /// Exact k-way merge of the decoded shard responses (shard_ok slots)
  /// into result->entries. Allocation-free after warm-up.
  void MergeResponses(uint32_t k, uint32_t shard_lo, uint32_t shard_hi,
                      DistTopKResult* result);

  /// Draws the engine's exploration promotions over the merged rows,
  /// then resolves promoted rows via a resolve wave. Rolls back
  /// promotions it cannot resolve and marks the result degraded.
  void ApplyGlobalExploration(const TopKQuery& query, RpcDeadline deadline,
                              DistTopKResult* result);

  const ShardMap map_;
  const std::vector<ShardAddress> shards_;
  const CoordinatorOptions options_;

  bool started_ = false;
  bool stopped_ = false;
  std::vector<Lane> lanes_;
  QueryScratch scratch_;
  uint64_t next_request_id_ = 1;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> degraded_queries_{0};
  std::atomic<uint64_t> hedges_fired_{0};
};

}  // namespace qrank

#endif  // QRANK_DIST_COORDINATOR_H_
