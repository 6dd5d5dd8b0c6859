#include "sim/memory_manager.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/task_graph.hpp"
#include "sim/bus.hpp"
#include "sim/lru_eviction.hpp"
#include "util/rng.hpp"

namespace mg::sim {
namespace {

using core::DataId;

/// Records load/evict notifications in order.
class RecordingObserver : public MemoryManager::Observer {
 public:
  void on_data_loaded(core::GpuId, DataId data) override {
    loads.push_back(data);
  }
  void on_data_evicted(core::GpuId, DataId data) override {
    evictions.push_back(data);
  }
  std::vector<DataId> loads;
  std::vector<DataId> evictions;
};

/// Ten data items of 10 bytes each; one task touching each (required by the
/// builder, unused here).
core::TaskGraph make_graph(int num_data = 10, std::uint64_t size = 10) {
  core::TaskGraphBuilder builder;
  for (int i = 0; i < num_data; ++i) {
    const DataId data = builder.add_data(size);
    builder.add_task(1.0, {data});
  }
  return builder.build();
}

struct Fixture {
  explicit Fixture(std::uint64_t capacity, int num_data = 10,
                   std::uint64_t size = 10)
      : graph(make_graph(num_data, size)),
        bus(events, 1e6, 0.0),  // 1 byte/us, zero latency: easy arithmetic
        manager(0, graph, capacity, bus),
        lru(1, graph.num_data()) {
    manager.set_observer(&observer);
    manager.set_eviction_policy(&lru);
  }

  EventQueue events;
  core::TaskGraph graph;
  Bus bus;
  MemoryManager manager;
  LruEviction lru;
  RecordingObserver observer;
};

TEST(MemoryManager, FetchMakesDataResident) {
  Fixture fixture(100);
  EXPECT_FALSE(fixture.manager.is_present(0));
  fixture.manager.fetch(0, /*demand=*/true);
  EXPECT_FALSE(fixture.manager.is_present(0));
  EXPECT_TRUE(fixture.manager.is_present_or_fetching(0));
  fixture.events.run_until_empty();
  EXPECT_TRUE(fixture.manager.is_present(0));
  EXPECT_EQ(fixture.observer.loads, (std::vector<DataId>{0}));
  EXPECT_EQ(fixture.manager.used_bytes(), 10u);
}

TEST(MemoryManager, RefetchOfResidentDataIsNoOp) {
  Fixture fixture(100);
  fixture.manager.fetch(0, true);
  fixture.events.run_until_empty();
  fixture.manager.fetch(0, true);
  fixture.manager.fetch(0, false);
  fixture.events.run_until_empty();
  EXPECT_EQ(fixture.observer.loads.size(), 1u);
}

TEST(MemoryManager, ConcurrentFetchOfSameDataCoalesces) {
  Fixture fixture(100);
  fixture.manager.fetch(0, false);
  fixture.manager.fetch(0, true);  // while in flight
  fixture.events.run_until_empty();
  EXPECT_EQ(fixture.observer.loads.size(), 1u);
  EXPECT_EQ(fixture.manager.used_bytes(), 10u);
}

TEST(MemoryManager, CommittedBytesRespectCapacity) {
  Fixture fixture(35);  // room for 3 of 10 bytes
  for (DataId data = 0; data < 3; ++data) fixture.manager.fetch(data, true);
  EXPECT_EQ(fixture.manager.used_bytes(), 30u);
  fixture.events.run_until_empty();
  EXPECT_EQ(fixture.manager.used_bytes(), 30u);
  EXPECT_LE(fixture.manager.used_bytes(), fixture.manager.capacity_bytes());
}

TEST(MemoryManager, LruEvictsLeastRecentlyUsed) {
  Fixture fixture(30);
  for (DataId data = 0; data < 3; ++data) {
    fixture.manager.fetch(data, true);
    fixture.events.run_until_empty();
  }
  // Touch 0 so 1 becomes the least recently used.
  fixture.manager.touch(0);
  fixture.manager.fetch(3, true);
  fixture.events.run_until_empty();
  EXPECT_EQ(fixture.observer.evictions, (std::vector<DataId>{1}));
  EXPECT_TRUE(fixture.manager.is_present(3));
  EXPECT_TRUE(fixture.manager.is_present(0));
}

TEST(MemoryManager, PinnedDataIsNotEvicted) {
  Fixture fixture(30);
  for (DataId data = 0; data < 3; ++data) {
    fixture.manager.fetch(data, true);
    fixture.events.run_until_empty();
  }
  fixture.manager.pin(0);
  fixture.manager.pin(1);
  fixture.manager.fetch(3, true);
  fixture.events.run_until_empty();
  EXPECT_EQ(fixture.observer.evictions, (std::vector<DataId>{2}));
}

TEST(MemoryManager, FetchStallsWhenAllPinnedAndResumesOnUnpin) {
  Fixture fixture(30);
  for (DataId data = 0; data < 3; ++data) {
    fixture.manager.fetch(data, true);
    fixture.events.run_until_empty();
    fixture.manager.pin(data);
  }
  fixture.manager.fetch(3, true);
  fixture.events.run_until_empty();
  EXPECT_FALSE(fixture.manager.is_present_or_fetching(3));
  EXPECT_EQ(fixture.manager.stalled_fetches(), 1u);

  fixture.manager.unpin(1);
  fixture.events.run_until_empty();
  EXPECT_TRUE(fixture.manager.is_present(3));
  EXPECT_EQ(fixture.observer.evictions, (std::vector<DataId>{1}));
  EXPECT_EQ(fixture.manager.stalled_fetches(), 0u);
}

TEST(MemoryManager, StalledDemandBeatsStalledPrefetch) {
  Fixture fixture(30);
  for (DataId data = 0; data < 3; ++data) {
    fixture.manager.fetch(data, true);
    fixture.events.run_until_empty();
    fixture.manager.pin(data);
  }
  // Only one slot frees up; the demand fetch must win the retry despite
  // being parked after the prefetch.
  fixture.manager.fetch(3, /*demand=*/false);
  fixture.manager.fetch(4, /*demand=*/true);
  EXPECT_EQ(fixture.manager.stalled_fetches(), 2u);
  fixture.manager.unpin(0);
  // The freed slot went to the demand fetch: 4 is in flight, 3 still parked.
  EXPECT_EQ(fixture.manager.residency(4),
            MemoryManager::Residency::kFetching);
  EXPECT_EQ(fixture.manager.residency(3), MemoryManager::Residency::kAbsent);
  EXPECT_EQ(fixture.manager.stalled_fetches(), 1u);
  fixture.events.run_until_empty();
  // Once 4 lands (unpinned, as nothing in this test pins it), the parked
  // prefetch may legitimately recycle its slot; the load order is what the
  // priority guarantees.
  ASSERT_GE(fixture.observer.loads.size(), 4u);
  EXPECT_EQ(fixture.observer.loads[3], 4u);
}

TEST(MemoryManager, StalledFetchDeduplicatesAndUpgrades) {
  Fixture fixture(10);
  fixture.manager.fetch(0, true);
  fixture.events.run_until_empty();
  fixture.manager.pin(0);
  fixture.manager.fetch(1, false);
  fixture.manager.fetch(1, true);  // same data again: single upgraded entry
  EXPECT_EQ(fixture.manager.stalled_fetches(), 1u);
}

TEST(MemoryManager, ResidentListTracksContents) {
  Fixture fixture(100);
  for (DataId data = 0; data < 4; ++data) fixture.manager.fetch(data, true);
  fixture.events.run_until_empty();
  EXPECT_EQ(fixture.manager.resident().size(), 4u);
  EXPECT_EQ(fixture.manager.evictions(), 0u);
}

TEST(MemoryManager, JournalReplayMatchesAFullPoll) {
  // Random fetches, hints, pins, event progress, capacity shocks with
  // emergency_evict, drain wipes and finally deactivate. After every step a
  // mirror that only re-probes the data the journal logged since its last
  // read must equal a full is_present_or_fetching poll.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Fixture fixture(60, /*num_data=*/16);
    MemoryManager& manager = fixture.manager;
    util::Rng rng(seed);
    const std::vector<DataId>* journal = manager.residency_journal();
    ASSERT_NE(journal, nullptr);
    std::vector<bool> replayed(16, false);
    std::size_t cursor = 0;
    core::ResidencyMirror mirror;
    mirror.reset(16);
    std::vector<DataId> pinned;
    std::uint64_t flips = 0;
    for (int step = 0; step < 3000; ++step) {
      const auto data = static_cast<DataId>(rng.below(16));
      switch (rng.below(10)) {
        case 0:
        case 1:
          manager.fetch(data, rng.chance(0.5));
          break;
        case 2:
          (void)manager.fetch_hint(data, rng.chance(0.5));
          break;
        case 3:
        case 4:
        case 5:
          (void)fixture.events.run_one();
          break;
        case 6:
          if (manager.is_present(data) && pinned.size() < 3) {
            manager.pin(data);
            pinned.push_back(data);
          } else if (!pinned.empty()) {
            manager.unpin(pinned.back());
            pinned.pop_back();
          }
          break;
        case 7:
          // Capacity shock: shrink and evict down to it, or restore.
          if (rng.chance(0.5)) {
            manager.set_capacity(20 + 10 * rng.below(4));
            (void)manager.emergency_evict();
          } else {
            manager.set_capacity(60);
          }
          break;
        case 8:
          if (rng.chance(0.1)) {
            // Planned drain: cancel parked fetches, let transfers land,
            // release pins, then wipe.
            for (const DataId pin : pinned) manager.unpin(pin);
            pinned.clear();
            manager.cancel_stalled();
            fixture.events.run_until_empty();
            manager.cancel_stalled();
            if (manager.quiescent()) manager.wipe_resident();
          }
          break;
        default:
          if (step > 2800 && manager.active()) manager.deactivate();
          break;
      }
      for (; cursor < journal->size(); ++cursor) {
        const DataId logged = (*journal)[cursor];
        replayed[logged] = manager.is_present_or_fetching(logged);
      }
      mirror.sync(manager, [&](DataId, bool) { ++flips; });
      for (DataId d = 0; d < 16; ++d) {
        ASSERT_EQ(replayed[d], manager.is_present_or_fetching(d))
            << "seed " << seed << " step " << step << " data " << d;
        ASSERT_EQ(mirror.contains(d), manager.is_present_or_fetching(d))
            << "seed " << seed << " step " << step << " data " << d;
      }
    }
    EXPECT_FALSE(manager.active());
    EXPECT_GT(flips, 100u);
  }
}

TEST(MemoryManagerDeath, OversizedDataAborts) {
  Fixture fixture(5);  // smaller than any data item
  EXPECT_DEATH(fixture.manager.fetch(0, true), "larger than GPU memory");
}

}  // namespace
}  // namespace mg::sim
