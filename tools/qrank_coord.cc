// qrank_coord: query a sharded score-bundle deployment (src/dist/)
// through the coordinator — fan-out, exact merge, deadlines, hedging.
//
// Usage:
//   qrank_coord query --map=FILE --workers=LIST [--k=N] [--alpha=X]
//                     [--site=N] [--epsilon=X] [--seed=N]
//                     [--deadline-ms=N] [--hedge-ms=N]
//   qrank_coord bench --map=FILE --workers=LIST [--queries=N] [--k=N]
//                     [--alpha=X] [--site=N] [--deadline-ms=N]
//                     [--hedge-ms=N]
//   qrank_coord info  --map=FILE --workers=LIST
//
// LIST is one host:port per shard, comma-separated, in shard order;
// append |host:port for an optional hedge replica, e.g.
//   --workers=127.0.0.1:7001,127.0.0.1:7002|127.0.0.1:7012
//
// `query` prints the same TSV rows as `qrank_serve query` — by the
// exact-merge contract (src/dist/coordinator.h) a non-degraded answer
// is byte-identical to the single-process output on the unsharded
// bundle, which is what the CI smoke test diffs. Rows are global rows.
// A degraded answer prints the partial rows plus `degraded ...` on
// stderr and exits 3. `bench` reports aggregate QPS + sampled p50/p99.
// `info` pings every shard and prints its shape and generation.
//
// Exit status: 0 = success, 2 = usage/connect error, 3 = degraded.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/latency_histogram.h"
#include "common/status.h"
#include "dist/coordinator.h"
#include "dist/rpc.h"
#include "dist/shard_map.h"
#include "dist/wire_format.h"
#include "serve/query_engine.h"
#include "query_flags.h"

namespace qrank {
namespace {

void PrintUsage(std::ostream& os) {
  os << "usage: qrank_coord query --map=FILE --workers=LIST [--k=N]\n"
        "                         [--alpha=X] [--site=N] [--epsilon=X]\n"
        "                         [--seed=N] [--deadline-ms=N] "
        "[--hedge-ms=N]\n"
        "       qrank_coord bench --map=FILE --workers=LIST [--queries=N]\n"
        "                         [--k=N] [--alpha=X] [--site=N]\n"
        "                         [--deadline-ms=N] [--hedge-ms=N]\n"
        "       qrank_coord info  --map=FILE --workers=LIST\n"
        "  LIST = host:port[|replica_host:replica_port],... in shard "
        "order\n";
}

bool ParseEndpoint(const std::string& text, ShardEndpoint* out) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    return false;
  }
  int64_t port = 0;
  for (size_t i = colon + 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    port = port * 10 + (text[i] - '0');
    if (port > 65535) return false;
  }
  if (port == 0) return false;
  out->host = text.substr(0, colon);
  out->port = static_cast<uint16_t>(port);
  return true;
}

bool ParseWorkerList(const std::string& list,
                     std::vector<ShardAddress>* out) {
  out->clear();
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string item = list.substr(start, comma - start);
    if (item.empty()) return false;
    ShardAddress address;
    const size_t bar = item.find('|');
    if (bar == std::string::npos) {
      if (!ParseEndpoint(item, &address.primary)) return false;
    } else {
      if (!ParseEndpoint(item.substr(0, bar), &address.primary)) return false;
      if (!ParseEndpoint(item.substr(bar + 1), &address.replica)) {
        return false;
      }
      address.has_replica = true;
    }
    out->push_back(std::move(address));
    if (comma == list.size()) break;
    start = comma + 1;
  }
  return !out->empty();
}

struct Deployment {
  ShardMap map;
  std::vector<ShardAddress> shards;
  CoordinatorOptions options;
};

/// Parses --map/--workers/--deadline-ms/--hedge-ms. Returns exit code
/// 0 when parsing succeeded.
int LoadDeployment(FlagParser& flags, Deployment* out) {
  const std::string map_path = flags.GetString("map", "");
  const std::string workers = flags.GetString("workers", "");
  const int64_t deadline_ms = flags.GetInt("deadline-ms", 250);
  const int64_t hedge_ms = flags.GetInt("hedge-ms", 60);
  if (!flags.status().ok() || map_path.empty() || workers.empty() ||
      deadline_ms <= 0 || hedge_ms <= 0) {
    PrintUsage(std::cerr);
    return 2;
  }
  Result<ShardMap> map = LoadShardMap(map_path);
  if (!map.ok()) {
    std::cerr << "qrank_coord: " << map_path << ": "
              << map.status().ToString() << "\n";
    return 2;
  }
  if (!ParseWorkerList(workers, &out->shards)) {
    std::cerr << "qrank_coord: malformed --workers list\n";
    return 2;
  }
  if (out->shards.size() != map.value().num_shards) {
    std::cerr << "qrank_coord: map has " << map.value().num_shards
              << " shards but --workers lists " << out->shards.size()
              << "\n";
    return 2;
  }
  out->map = std::move(map).value();
  out->options.query_deadline = std::chrono::milliseconds(deadline_ms);
  out->options.hedge_delay = std::chrono::milliseconds(hedge_ms);
  return 0;
}

int CmdQuery(FlagParser& flags) {
  Deployment deployment;
  int rc = LoadDeployment(flags, &deployment);
  Result<TopKQuery> query = QueryFromFlags(flags);
  if (!query.ok()) {
    std::cerr << "qrank_coord: " << query.status().ToString() << "\n";
  }
  if (rc != 0) return rc;
  if (!query.ok()) {
    PrintUsage(std::cerr);
    return 2;
  }
  Coordinator coord(std::move(deployment.map), std::move(deployment.shards),
                    deployment.options);
  Status st = coord.Start();
  if (!st.ok()) {
    std::cerr << "qrank_coord: start: " << st.ToString() << "\n";
    return 2;
  }
  DistTopKResult result;
  st = coord.TopK(query.value(), &result);
  if (!st.ok()) {
    std::cerr << "qrank_coord: query: " << st.ToString() << "\n";
    coord.Stop();
    return 2;
  }
  size_t rank = 1;
  for (const TopKEntry& e : result.entries) {
    std::printf("%zu\t%u\t%u\t%.17g\t%d\n", rank++, e.row, e.page_id,
                e.score, e.promoted ? 1 : 0);
  }
  if (result.degraded) {
    std::cerr << "degraded: " << result.shards_answered << "/"
              << result.shards_asked << " shards answered ("
              << result.hedges_fired << " hedges)\n";
  }
  coord.Stop();
  return result.degraded ? 3 : 0;
}

int CmdBench(FlagParser& flags) {
  Deployment deployment;
  int rc = LoadDeployment(flags, &deployment);
  Result<TopKQuery> query = QueryFromFlags(flags);
  if (!query.ok()) {
    std::cerr << "qrank_coord: " << query.status().ToString() << "\n";
  }
  const int64_t num_queries = flags.GetInt("queries", 2000);
  if (rc != 0) return rc;
  if (!query.ok() || !flags.status().ok() || num_queries <= 0) {
    PrintUsage(std::cerr);
    return 2;
  }
  Coordinator coord(std::move(deployment.map), std::move(deployment.shards),
                    deployment.options);
  Status st = coord.Start();
  if (!st.ok()) {
    std::cerr << "qrank_coord: start: " << st.ToString() << "\n";
    return 2;
  }
  TopKQuery q = query.value();
  DistTopKResult result;
  using Clock = std::chrono::steady_clock;
  LatencyHistogram sampled;  // every 16th query timed individually
  double checksum = 0.0;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < num_queries; ++i) {
    q.exploration_seed = static_cast<uint64_t>(i);
    const bool timed = (i & 15) == 0;
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    st = coord.TopK(q, &result);
    if (!st.ok()) {
      std::cerr << "qrank_coord: query " << i << ": " << st.ToString()
                << "\n";
      coord.Stop();
      return 2;
    }
    if (timed) {
      sampled.AddNanos(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
    }
    if (!result.entries.empty()) checksum += result.entries[0].score;
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::printf(
      "%u shards: %" PRId64 " queries in %.3f s = %.0f QPS "
      "(p50 %.0f ns, p99 %.0f ns, degraded %" PRIu64 ", hedges %" PRIu64
      ", checksum %.6g)\n",
      coord.shard_map().num_shards, num_queries, elapsed_s,
      num_queries / elapsed_s, sampled.PercentileNanos(0.50),
      sampled.PercentileNanos(0.99),
      coord.degraded_queries(), coord.hedges_fired(), checksum);
  const bool degraded = coord.degraded_queries() > 0;
  coord.Stop();
  return degraded ? 3 : 0;
}

int CmdInfo(FlagParser& flags) {
  Deployment deployment;
  const int rc = LoadDeployment(flags, &deployment);
  if (rc != 0) return rc;
  std::printf("map: %u shards, %" PRIu64 " pages, %u sites\n",
              deployment.map.num_shards, deployment.map.total_pages,
              deployment.map.num_sites);
  // Ping each worker directly: one InfoRequest per primary endpoint.
  int status = 0;
  std::vector<uint8_t> frame;
  for (uint32_t s = 0; s < deployment.map.num_shards; ++s) {
    const ShardEndpoint& ep = deployment.shards[s].primary;
    const RpcDeadline deadline =
        std::chrono::steady_clock::now() + deployment.options.query_deadline;
    const auto report = [&](const Status& st) {
      std::printf("shard %u\t%s:%u\tUNREACHABLE\t%s\n", s, ep.host.c_str(),
                  ep.port, st.ToString().c_str());
      status = 3;
    };
    Result<Socket> sock = Socket::Connect(ep.host, ep.port, deadline);
    if (!sock.ok()) {
      report(sock.status());
      continue;
    }
    EncodeInfoRequest(s + 1, &frame);
    Status st = SendFrame(sock.value(), frame, deadline);
    WireInfoResponse info;
    if (st.ok()) {
      Result<FrameHeader> header = RecvFrame(sock.value(), &frame, deadline);
      if (!header.ok()) {
        st = header.status();
      } else if (header.value().type != FrameType::kInfoResponse) {
        st = Status::Corruption("unexpected frame type from worker");
      } else {
        st = DecodeInfoResponse(
            std::span<const uint8_t>(frame).subspan(kFrameHeaderBytes),
            &info);
      }
    }
    if (!st.ok()) {
      report(st);
      continue;
    }
    std::printf("shard %u\t%s:%u\tshard_index=%u\tpages=%u\tgeneration=%"
                PRIu64 "%s\n",
                s, ep.host.c_str(), ep.port, info.shard_index,
                info.num_local_pages, info.generation,
                info.shard_index == s ? "" : "\tSHARD-MISMATCH");
    if (info.shard_index != s) status = 3;
  }
  return status;
}

int Run(int argc, const char* const* argv) {
  if (argc < 2) {
    PrintUsage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  // FlagParser skips its argv[0]; handing it argv + 1 makes the
  // subcommand that slot, so positional holds only the operands.
  FlagParser flags(argc - 1, argv + 1);
  int rc;
  if (command == "query" && flags.positional().empty()) {
    rc = CmdQuery(flags);
  } else if (command == "bench" && flags.positional().empty()) {
    rc = CmdBench(flags);
  } else if (command == "info" && flags.positional().empty()) {
    rc = CmdInfo(flags);
  } else {
    PrintUsage(std::cerr);
    return 2;
  }
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (!unused.empty()) {
    std::cerr << "qrank_coord: unknown flag --" << unused.front() << "\n";
    PrintUsage(std::cerr);
    return 2;
  }
  return rc;
}

}  // namespace
}  // namespace qrank

int main(int argc, char** argv) { return qrank::Run(argc, argv); }
