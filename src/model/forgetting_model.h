// Forgetting extension of the user-visitation model (Section 9.1).
//
// The base model predicts popularity can only increase, but the paper's
// crawl contained many pages with consistently *decreasing* PageRank; the
// authors suggest modeling users who "forget" pages they visited. Here a
// user who likes page p forgets it (and drops the link) at rate
// `forget_rate`, turning the logistic law into
//
//   dP/dt = (r/n) * P * (Q - P) - forget_rate * P
//
// whose equilibrium P* = Q - forget_rate * n / r is *below* quality (and
// the page dies out entirely when forget_rate >= (r/n) * Q). The
// closed-form solution is again logistic with effective quality P*:
//
//   dP/dt = (r/n) * P * (P* - P).
//
// A key consequence (tested in tests/model): the paper's estimator
// I + P now converges to Q - forget_rate*n/r instead of Q — i.e., it
// *underestimates* quality by exactly the forgetting margin, which
// quantifies the bias the paper flags as future work.
//
// qrank-lint: allow(orphan-module) Section 9.1's forgetting extension,
// reported in EXPERIMENTS.md; only its tests run it.

#ifndef QRANK_MODEL_FORGETTING_MODEL_H_
#define QRANK_MODEL_FORGETTING_MODEL_H_

#include "common/status.h"
#include "model/visitation_model.h"

namespace qrank {

struct ForgettingParams {
  VisitationParams base;
  /// Rate at which a user who likes the page forgets it (>= 0).
  double forget_rate = 0.0;
};

class ForgettingModel {
 public:
  /// Validates parameters. Also requires initial popularity strictly
  /// below the equilibrium when the equilibrium is positive, or any
  /// positive initial popularity when the page is doomed to die out.
  static Result<ForgettingModel> Create(const ForgettingParams& params);

  const ForgettingParams& params() const { return params_; }

  /// Equilibrium popularity P* = Q - forget_rate * n / r (may be <= 0,
  /// meaning the page's popularity decays to zero).
  double EquilibriumPopularity() const { return equilibrium_; }

  /// P(p,t), exact solution of the forgetting ODE.
  double Popularity(double t) const;

  /// dP/dt at time t.
  double PopularityDerivative(double t) const;

  /// The paper's estimator I + P evaluated under this model; converges to
  /// EquilibriumPopularity(), not Q — the forgetting bias.
  double EstimatorSum(double t) const;

  /// The asymptotic error Q - lim_{t->inf} (I + P) = forget_rate * n / r.
  double AsymptoticEstimatorBias() const;

 private:
  explicit ForgettingModel(const ForgettingParams& params);

  ForgettingParams params_;
  double equilibrium_;
  double rate_;  // r/n
};

}  // namespace qrank

#endif  // QRANK_MODEL_FORGETTING_MODEL_H_
