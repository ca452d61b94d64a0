// Classic fixed-step RK4 integrator.
//
// Used to cross-validate the closed-form solutions of visitation_model.h
// against direct integration of the underlying ODEs, and to evaluate
// model extensions (forgetting_model.h) that have no closed form.
//
// qrank-lint: allow(orphan-module) the RK4 reference the model tests
// compare the closed forms against; no production path integrates ODEs.

#ifndef QRANK_MODEL_ODE_H_
#define QRANK_MODEL_ODE_H_

#include <functional>
#include <vector>

#include "common/status.h"

namespace qrank {

/// dy/dt = f(t, y), scalar state.
using OdeRhs = std::function<double(double t, double y)>;

struct OdeSolution {
  std::vector<double> times;
  std::vector<double> values;
  /// values.back(), for convenience.
  double final_value = 0.0;
};

/// Integrates from (t0, y0) to t1 with `steps` RK4 steps, recording every
/// state. Requires t1 > t0 and steps >= 1.
Result<OdeSolution> IntegrateRk4(const OdeRhs& f, double t0, double y0,
                                 double t1, size_t steps);

}  // namespace qrank

#endif  // QRANK_MODEL_ODE_H_
