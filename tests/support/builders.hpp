// Shared fixtures for the test suites: canned system models, protocol runs,
// hand-built executions with exactly controlled delays, and the mean of a
// critical cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "delaymodel/assignment.hpp"
#include "graph/distance_matrix.hpp"
#include "proto/ping_pong.hpp"
#include "sim/simulator.hpp"

namespace cs::test {

/// SystemModel with the same symmetric [lb, ub] bounds on every link.
SystemModel bounded_model(Topology topo, double lb, double ub);

/// SystemModel with only a lower bound on every link.
SystemModel lower_bound_model(Topology topo, double lb);

/// SystemModel with a round-trip bias bound on every link.
SystemModel bias_model(Topology topo, double bias);

/// SystemModel with bounds AND bias on every link (composite).
SystemModel bounded_bias_model(Topology topo, double lb, double ub,
                               double bias);

/// Run the ping-pong protocol under the model with random start offsets in
/// [0, max_skew]; returns the execution with ground truth.
SimResult run_ping_pong(const SystemModel& model, std::uint64_t seed,
                        double max_skew, std::size_t rounds = 4);

/// Hand-built two-processor execution: p0 starts at real time s0, p1 at s1;
/// messages 0->1 realize exactly `delays_01` (sent at evenly spaced clock
/// times), and messages 1->0 realize `delays_10`.  All events land at
/// non-negative clock times.
Execution two_node_execution(double s0, double s1,
                             const std::vector<double>& delays_01,
                             const std::vector<double>& delays_10);

/// Mean m̃s weight of the cycle p_0 -> ... -> p_{m-1} -> p_0, summed from
/// p_0 on (the order SHIFTS sums its critical cycle in).
double cycle_mean_of(const DistanceMatrix& ms,
                     const std::vector<NodeId>& cycle);

}  // namespace cs::test
