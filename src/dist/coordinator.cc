#include "dist/coordinator.h"

#include "common/annotations.h"

namespace qrank {
namespace {

/// The engine's result order on global rows: higher blended score
/// first, ties broken toward the lower row. Must mirror
/// query_engine.cc's Worse() for the exact-merge contract.
inline bool BetterEntry(const WireTopKEntry& a, const WireTopKEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.global_row < b.global_row;
}

}  // namespace

Coordinator::Coordinator(ShardMap map, std::vector<ShardAddress> shards,
                         CoordinatorOptions options)
    : map_(std::move(map)),
      shards_(std::move(shards)),
      options_(options) {}

Coordinator::~Coordinator() { Stop(); }

Status Coordinator::Start() {
  if (shards_.size() != map_.num_shards) {
    return Status::InvalidArgument(
        "coordinator needs one ShardAddress per shard: map has " +
        std::to_string(map_.num_shards) + ", got " +
        std::to_string(shards_.size()));
  }
  if (started_) return Status::FailedPrecondition("Coordinator already started");
  const uint32_t num_shards = map_.num_shards;
  lanes_.resize(size_t{num_shards} * 2);
  for (uint32_t s = 0; s < num_shards; ++s) {
    const ShardAddress& address = shards_[s];
    lanes_[size_t{s} * 2].endpoint = address.primary;
    lanes_[size_t{s} * 2 + 1].endpoint =
        address.has_replica ? address.replica : address.primary;
  }
  scratch_.pollfds.resize(lanes_.size());
  scratch_.polled.resize(lanes_.size());
  scratch_.answer.assign(num_shards, nullptr);
  scratch_.shard_ok.assign(num_shards, 0);
  scratch_.responses.resize(num_shards);
  scratch_.cursor.assign(num_shards, 0);
  started_ = true;
  return Status::OK();
}

void Coordinator::Stop() {
  if (!started_) return;
  stopped_ = true;
  lanes_.clear();  // closes every connection
}

void Coordinator::Send(Lane* lane, std::span<const uint8_t> frame) {
  lane->sent = 0;
  lane->reader.Reset();
  if (lane->socket.valid()) {
    lane->phase = Lane::Phase::kSending;
    Advance(lane, frame);
    return;
  }
  Result<Socket> conn =
      Socket::StartConnect(lane->endpoint.host, lane->endpoint.port);
  if (!conn.ok()) {
    lane->phase = Lane::Phase::kFailed;
    return;
  }
  lane->socket = std::move(conn).value();
  lane->phase = Lane::Phase::kConnecting;
}

void Coordinator::Advance(Lane* lane, std::span<const uint8_t> frame) {
  using Phase = Lane::Phase;
  // Dead, refused or desynced stream: drop the connection so the
  // lane's next send reconnects (the worker-rejoin path).
  const auto fail = [lane] {
    lane->socket.Close();
    lane->phase = Phase::kFailed;
  };
  if (lane->phase == Phase::kConnecting) {
    if (!lane->socket.FinishConnect().ok()) return fail();
    lane->phase = Phase::kSending;
  }
  if (lane->phase == Phase::kSending) {
    const Result<size_t> n = lane->socket.SendSome(frame.subspan(lane->sent));
    if (!n.ok()) return fail();
    lane->sent += n.value();
    if (lane->sent == frame.size()) lane->phase = Phase::kReceiving;
    return;  // the response cannot have arrived before the request left
  }
  if (lane->phase == Phase::kReceiving) {
    const Result<bool> done = lane->reader.Read(lane->socket, &lane->response);
    if (!done.ok()) return fail();
    if (done.value()) lane->phase = Phase::kAnswered;
  }
}

uint32_t Coordinator::RunWave(std::span<const uint8_t> frame,
                              uint32_t shard_lo, uint32_t shard_hi,
                              RpcDeadline hedge_time, RpcDeadline deadline,
                              DistTopKResult* result) {
  using Phase = Lane::Phase;
  Lane* const lanes = lanes_.data() + size_t{shard_lo} * 2;
  const size_t num_lanes = size_t{shard_hi - shard_lo} * 2;
  for (size_t i = 0; i < num_lanes; i += 2) Send(&lanes[i], frame);

  // A shard is settled once a lane answered, or once its primary failed
  // and no rescue can come — hedging is off for this wave, or the hedge
  // was sent and failed too. Waiting longer on a failed shard cannot
  // produce an answer, so a fast connection refusal must not stall the
  // wave until the deadline.
  const bool hedging = hedge_time < deadline;
  bool hedged = !hedging;
  for (;;) {
    size_t num_polled = 0;
    bool settled = true;
    for (size_t i = 0; i < num_lanes; i += 2) {
      const Lane& prim = lanes[i];
      const Lane& hedge = lanes[i + 1];
      if (prim.phase == Phase::kAnswered || hedge.phase == Phase::kAnswered ||
          (prim.phase == Phase::kFailed &&
           (!hedging || hedge.phase == Phase::kFailed))) {
        continue;
      }
      settled = false;
      for (size_t j = i; j < i + 2; ++j) {
        if (!lanes[j].in_flight()) continue;
        const short events =
            lanes[j].phase == Phase::kReceiving ? POLLIN : POLLOUT;
        scratch_.pollfds[num_polled] = {lanes[j].socket.fd(), events, 0};
        scratch_.polled[num_polled++] = &lanes[j];
      }
    }
    if (settled) break;

    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    if (!hedged && now >= hedge_time) {
      hedged = true;
      for (size_t i = 0; i < num_lanes; i += 2) {
        if (lanes[i].phase == Phase::kAnswered) continue;
        Send(&lanes[i + 1], frame);
        hedges_fired_.fetch_add(1, std::memory_order_relaxed);
        ++result->hedges_fired;
      }
      continue;
    }
    const Result<int> ready =
        PollUntil(std::span<pollfd>(scratch_.pollfds.data(), num_polled),
                  hedged ? deadline : hedge_time);
    if (!ready.ok()) break;
    for (size_t p = 0; p < num_polled; ++p) {
      if (scratch_.pollfds[p].revents != 0) {
        Advance(scratch_.polled[p], frame);
      }
    }
  }

  uint32_t answered = 0;
  for (size_t i = 0; i < num_lanes; i += 2) {
    const Lane* src = lanes[i].phase == Phase::kAnswered       ? &lanes[i]
                      : lanes[i + 1].phase == Phase::kAnswered ? &lanes[i + 1]
                                                               : nullptr;
    scratch_.answer[shard_lo + i / 2] = src;
    if (src != nullptr) ++answered;
  }
  for (size_t i = 0; i < num_lanes; ++i) {
    // Cancel is close: a connection abandoned mid-request cannot be
    // reused (see header).
    if (lanes[i].in_flight()) lanes[i].socket.Close();
    lanes[i].phase = Phase::kIdle;
  }
  return answered;
}

QRANK_HOT void Coordinator::MergeResponses(uint32_t k, uint32_t shard_lo,
                                           uint32_t shard_hi,
                                           DistTopKResult* result) {
  for (uint32_t s = shard_lo; s < shard_hi; ++s) scratch_.cursor[s] = 0;
  result->entries.clear();
  while (result->entries.size() < k) {
    int best = -1;
    const WireTopKEntry* best_entry = nullptr;
    for (uint32_t s = shard_lo; s < shard_hi; ++s) {
      if (scratch_.shard_ok[s] == 0) continue;
      const std::vector<WireTopKEntry>& entries =
          scratch_.responses[s].entries;
      const size_t cur = scratch_.cursor[s];
      if (cur >= entries.size()) continue;
      if (best < 0 || BetterEntry(entries[cur], *best_entry)) {
        best = static_cast<int>(s);
        best_entry = &entries[cur];
      }
    }
    if (best < 0) break;
    ++scratch_.cursor[static_cast<size_t>(best)];
    // qrank-lint: allow(hot-alloc) amortized warm-up: grows to the
    // largest k the caller's reused DistTopKResult has seen, then 0.
    result->entries.push_back(TopKEntry{best_entry->global_row,
                                        best_entry->page_id,
                                        best_entry->score,
                                        best_entry->promoted != 0});
  }
}

void Coordinator::ApplyGlobalExploration(const TopKQuery& query,
                                         RpcDeadline deadline,
                                         DistTopKResult* result) {
  // The engine's draws over the merged rows. Only row numbers matter
  // here; page ids and scores of promoted rows are resolved from the
  // owning shards afterwards.
  std::vector<TopKEntry>& out = result->entries;
  scratch_.promotions.clear();
  DrawExplorationPromotions(
      query.exploration_seed, query.exploration_epsilon, {},
      map_.total_pages, out, [this, &out](size_t j, NodeId row) {
        scratch_.promotions.push_back(Promotion{j, out[j], false});
        out[j] = TopKEntry{row, 0, 0.0, true};
      });
  if (scratch_.promotions.empty()) return;

  // Resolve wave: every shard is asked; each returns the rows it owns.
  scratch_.resolve_request.request_id = next_request_id_++;
  scratch_.resolve_request.global_rows.clear();
  for (const Promotion& promo : scratch_.promotions) {
    scratch_.resolve_request.global_rows.push_back(out[promo.slot].row);
  }
  EncodeResolveRequest(scratch_.resolve_request, &scratch_.resolve_frame);
  const uint32_t answered = RunWave(scratch_.resolve_frame, 0,
                                    map_.num_shards, deadline, deadline,
                                    result);
  if (answered < map_.num_shards) result->degraded = true;

  const double alpha = query.blend_alpha;
  for (uint32_t s = 0; s < map_.num_shards; ++s) {
    const Lane* lane = scratch_.answer[s];
    if (lane == nullptr ||
        lane->reader.header().type != FrameType::kResolveResponse) {
      continue;
    }
    const Status decoded = DecodeResolveResponse(
        std::span<const uint8_t>(lane->response).subspan(kFrameHeaderBytes),
        &scratch_.resolve_response);
    if (!decoded.ok() ||
        scratch_.resolve_response.request_id !=
            scratch_.resolve_request.request_id ||
        scratch_.resolve_response.status !=
            static_cast<uint32_t>(StatusCode::kOk)) {
      continue;
    }
    for (const WireResolveEntry& e : scratch_.resolve_response.entries) {
      for (Promotion& promo : scratch_.promotions) {
        if (promo.filled || out[promo.slot].row != e.global_row) continue;
        out[promo.slot].page_id = e.page_id;
        out[promo.slot].score =
            alpha * e.quality + (1.0 - alpha) * e.pagerank;
        promo.filled = true;
      }
    }
  }

  for (const Promotion& promo : scratch_.promotions) {
    if (promo.filled) continue;
    // Owner shard degraded away mid-query: keep the deterministic
    // entry rather than serving a promotion with fabricated scores.
    out[promo.slot] = promo.original;
    result->degraded = true;
  }
}

Status Coordinator::TopK(const TopKQuery& query, DistTopKResult* result) {
  if (!started_ || stopped_) {
    return Status::FailedPrecondition("Coordinator is not running");
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (!(query.blend_alpha >= 0.0 && query.blend_alpha <= 1.0)) {
    return Status::InvalidArgument("blend_alpha must be in [0, 1]");
  }
  if (!(query.exploration_epsilon >= 0.0 &&
        query.exploration_epsilon <= 1.0)) {
    return Status::InvalidArgument("exploration_epsilon must be in [0, 1]");
  }
  if (query.site != kAllSites && query.site >= map_.num_sites) {
    return Status::InvalidArgument("site out of range");
  }
  if (query.k > kMaxWireTopK) {
    return Status::InvalidArgument("k exceeds the wire cap");
  }

  result->entries.clear();
  result->degraded = false;
  result->shards_asked = 0;
  result->shards_answered = 0;
  result->hedges_fired = 0;

  const auto now = std::chrono::steady_clock::now();
  const RpcDeadline deadline = now + options_.query_deadline;
  const RpcDeadline hedge_time = now + options_.hedge_delay;

  const bool site_query = query.site != kAllSites;
  WireTopKRequest request;
  request.request_id = next_request_id_++;
  request.k = query.k;
  request.site = query.site;
  request.blend_alpha = query.blend_alpha;
  // Site queries run exploration on the owning worker (exact by row
  // translation); global queries replay it here after the merge.
  request.exploration_epsilon =
      site_query ? query.exploration_epsilon : 0.0;
  request.exploration_seed = query.exploration_seed;
  EncodeTopKRequest(request, &scratch_.request_frame);

  uint32_t shard_lo = 0;
  uint32_t shard_hi = map_.num_shards;
  if (site_query) {
    shard_lo = map_.ShardForSite(query.site);
    shard_hi = shard_lo + 1;
  }
  result->shards_asked = shard_hi - shard_lo;

  RunWave(scratch_.request_frame, shard_lo, shard_hi, hedge_time, deadline,
          result);

  // Decode the collected frames; a shard only counts as answered when
  // it produced a well-formed OK TopK response for this request.
  for (uint32_t s = shard_lo; s < shard_hi; ++s) {
    scratch_.shard_ok[s] = 0;
    const Lane* lane = scratch_.answer[s];
    if (lane == nullptr ||
        lane->reader.header().type != FrameType::kTopKResponse) {
      continue;
    }
    const Status decoded = DecodeTopKResponse(
        std::span<const uint8_t>(lane->response).subspan(kFrameHeaderBytes),
        &scratch_.responses[s]);
    if (!decoded.ok()) continue;
    const WireTopKResponse& resp = scratch_.responses[s];
    if (resp.request_id != request.request_id ||
        resp.status != static_cast<uint32_t>(StatusCode::kOk)) {
      continue;
    }
    scratch_.shard_ok[s] = 1;
    ++result->shards_answered;
  }
  if (result->shards_answered < result->shards_asked) {
    result->degraded = true;
  }

  MergeResponses(query.k, shard_lo, shard_hi, result);

  if (!site_query && query.exploration_epsilon > 0.0) {
    if (result->degraded) {
      // Partial merges cannot replay the oracle's exploration stream;
      // serve the deterministic partial results instead.
    } else {
      ApplyGlobalExploration(query, deadline, result);
    }
  }

  if (result->degraded) {
    degraded_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace qrank
