// Standalone per-layer probes for the traced run: each one rebuilds, outside
// any scenario, the data-structure state a scenario was observed to reach
// (queue depth, live containers, share-tree siblings) and times the layer's
// hot operation at that size. They touch no scenario state.
#ifndef HOSTBENCH_LAYER_BENCH_H_
#define HOSTBENCH_LAYER_BENCH_H_

#include <cstddef>

namespace hostbench {

// Host ns per EventQueue::Schedule + RunNext pair with `depth` events pending.
double QueueScheduleRunNs(std::size_t depth);

// Host ns per ContainerManager::Create + drop of the last reference, with
// `live` sibling containers alive under the same parent.
double ContainerCreateDestroyNs(std::size_t live);

// Host ns per ShareTree Pop / OnCharge / Push cycle under a parent with
// `siblings` time-share children, a few of them backlogged.
double SharePickNs(std::size_t siblings);

}  // namespace hostbench

#endif  // HOSTBENCH_LAYER_BENCH_H_
