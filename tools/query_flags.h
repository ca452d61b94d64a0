// The query flags qrank_serve and qrank_coord share: --k, --alpha,
// --site, --epsilon and --seed, parsed into a TopKQuery.

#ifndef QRANK_TOOLS_QUERY_FLAGS_H_
#define QRANK_TOOLS_QUERY_FLAGS_H_

#include <cstdint>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "serve/query_engine.h"

namespace qrank {

/// --k must fit a uint32_t and --site, when given, must name a site
/// below the kAllSites sentinel; anything else is InvalidArgument
/// rather than a value wrapped through a narrowing cast.
inline Result<TopKQuery> QueryFromFlags(FlagParser& flags) {
  TopKQuery query;
  const int64_t k = flags.GetInt("k", 10);
  query.blend_alpha = flags.GetDouble("alpha", 1.0);
  const bool has_site = flags.Has("site");
  const int64_t site = flags.GetInt("site", 0);
  query.exploration_epsilon = flags.GetDouble("epsilon", 0.0);
  query.exploration_seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  if (!flags.status().ok()) return flags.status();
  if (k < 0 || k > int64_t{UINT32_MAX}) {
    return Status::InvalidArgument("--k=" + std::to_string(k) +
                                   " is outside [0, 4294967295]");
  }
  if (has_site && (site < 0 || site >= int64_t{kAllSites})) {
    return Status::InvalidArgument("--site=" + std::to_string(site) +
                                   " is outside [0, 4294967294]");
  }
  query.k = static_cast<uint32_t>(k);
  query.site = has_site ? static_cast<SiteId>(site) : kAllSites;
  return query;
}

}  // namespace qrank

#endif  // QRANK_TOOLS_QUERY_FLAGS_H_
