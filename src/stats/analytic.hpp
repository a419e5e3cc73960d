// Closed-form error models of Section 3: the NMSE of estimating the
// fraction θ_i of vertices with out-degree i from B independent samples.
//
//   random edge sampling   (eq. 3): NMSE(i) = sqrt((1/π_i - 1)/B),
//                                   π_i = i θ_i / d̄,
//   random vertex sampling (eq. 4): NMSE(i) = sqrt((1/θ_i - 1)/B).
//
// Edge sampling wins exactly when π_i > θ_i ⇔ i > d̄: the tail of the
// degree distribution is better estimated from edges. Stationary random
// walks (and FS) sample edges uniformly and inherit eq. 3's behaviour.
#pragma once

namespace frontier {

/// eq. 3. Requires theta_i in (0,1], degree i >= 1, mean_degree > 0.
[[nodiscard]] double analytic_nmse_edge_sampling(double theta_i, double degree,
                                                 double mean_degree,
                                                 double budget);

/// eq. 4. Requires theta_i in (0,1].
[[nodiscard]] double analytic_nmse_vertex_sampling(double theta_i,
                                                   double budget);

}  // namespace frontier
