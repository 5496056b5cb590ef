#include "hostbench/layer_bench.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/rc/manager.h"
#include "src/sched/share_tree.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"

namespace hostbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTrials = 5;
constexpr auto kMinTrial = std::chrono::milliseconds(20);
constexpr int kBatch = 64;

// Median over kTrials of host ns per call of `op`; each trial repeats `op`
// in batches until it has run for at least kMinTrial.
template <typename Op>
double MedianNsPerOp(Op&& op) {
  sim::SampleSet per_op;
  for (int t = 0; t < kTrials; ++t) {
    std::int64_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    Clock::duration elapsed{};
    do {
      for (int i = 0; i < kBatch; ++i) {
        op();
      }
      calls += kBatch;
      elapsed = Clock::now() - t0;
    } while (elapsed < kMinTrial);
    per_op.Add(
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
        static_cast<double>(calls));
  }
  return per_op.Median();
}

}  // namespace

double QueueScheduleRunNs(std::size_t depth) {
  sim::EventQueue q;
  sim::Rng rng(1);
  // Pre-drawn delays (1 us .. 10 ms) keep the RNG out of the timed loop.
  std::vector<sim::Duration> delays(4096);
  for (sim::Duration& d : delays) {
    d = rng.UniformInt(1, 10000);
  }
  std::size_t next = 0;
  sim::SimTime now = 0;
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    q.Schedule(now + delays[next++ % delays.size()], [] {});
  }
  return MedianNsPerOp([&] {
    now = q.RunNext();
    q.Schedule(now + delays[next++ % delays.size()], [] {});
  });
}

double ContainerCreateDestroyNs(std::size_t live) {
  rc::ContainerManager manager;
  std::vector<rc::ContainerRef> keep;
  keep.reserve(live);
  for (std::size_t i = 0; i < live; ++i) {
    keep.push_back(manager.Create(nullptr, "conn").value());
  }
  return MedianNsPerOp([&] {
    rc::ContainerRef c = manager.Create(nullptr, "conn").value();
    c.reset();
  });
}

double SharePickNs(std::size_t siblings) {
  struct Item {
    rc::ResourceContainer* owner = nullptr;
  };
  rc::ContainerManager manager;
  sched::ShareTree tree(&manager, sched::ShareTreeOptions{});
  const std::size_t n = std::max<std::size_t>(siblings, 1);
  std::vector<rc::ContainerRef> cts;
  cts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cts.push_back(manager.Create(nullptr, "conn").value());
  }
  // Every sibling has been runnable once (as every connection container in
  // a scenario was), then a handful stay backlogged.
  std::vector<Item> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].owner = cts[i].get();
    tree.Push(cts[i].get(), &items[i]);
    tree.Pop(0);
  }
  const std::size_t backlog = std::min<std::size_t>(n, 16);
  for (std::size_t i = 0; i < backlog; ++i) {
    tree.Push(items[i].owner, &items[i]);
  }
  sim::SimTime now = 0;
  const double ns = MedianNsPerOp([&] {
    auto* item = static_cast<Item*>(tree.Pop(now));
    tree.OnCharge(*item->owner, 100, now);
    tree.Push(item->owner, item);
    now += 100;
  });
  // Drain, then destroy newest-first: destroying thousands of siblings
  // oldest-first while the tree is alive takes minutes.
  for (std::size_t i = 0; i < backlog; ++i) {
    tree.Pop(now);
  }
  while (!cts.empty()) {
    cts.pop_back();
  }
  return ns;
}

}  // namespace hostbench
