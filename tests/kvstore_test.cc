#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kvstore/kvstore.h"
#include "sim/cluster.h"
#include "sim/fabric.h"

namespace rcc::kv {
namespace {

TEST(KvStore, SetGetRoundTrip) {
  Store store;
  ASSERT_TRUE(store.SetString(nullptr, "k", "value").ok());
  auto r = store.GetString(nullptr, "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "value");
}

TEST(KvStore, GetMissingIsNotFound) {
  Store store;
  EXPECT_EQ(store.Get(nullptr, "missing").status().code(), Code::kNotFound);
}

TEST(KvStore, OverwriteBumpsVersion) {
  Store store;
  store.SetString(nullptr, "k", "a");
  store.SetString(nullptr, "k", "b");
  auto v = store.VersionOf(nullptr, "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 2u);
  EXPECT_EQ(store.GetString(nullptr, "k").value(), "b");
}

TEST(KvStore, DeleteRemoves) {
  Store store;
  store.SetString(nullptr, "k", "a");
  store.Delete(nullptr, "k");
  EXPECT_EQ(store.Get(nullptr, "k").status().code(), Code::kNotFound);
}

TEST(KvStore, AddAndGetAllocatesSlots) {
  Store store;
  EXPECT_EQ(store.AddAndGet(nullptr, "c", 1).value(), 1);
  EXPECT_EQ(store.AddAndGet(nullptr, "c", 1).value(), 2);
  EXPECT_EQ(store.AddAndGet(nullptr, "c", 5).value(), 7);
  EXPECT_EQ(store.AddAndGet(nullptr, "c", -7).value(), 0);
}

TEST(KvStore, CompareAndSwapFirstWriterWins) {
  Store store;
  EXPECT_TRUE(store.CompareAndSwap(nullptr, "k", 0, {1}).value());
  EXPECT_FALSE(store.CompareAndSwap(nullptr, "k", 0, {2}).value());
  EXPECT_TRUE(store.CompareAndSwap(nullptr, "k", 1, {3}).value());
  EXPECT_EQ(store.Get(nullptr, "k").value(), std::vector<uint8_t>{3});
}

TEST(KvStore, ListPrefixSorted) {
  Store store;
  store.SetString(nullptr, "a/2", "x");
  store.SetString(nullptr, "a/1", "x");
  store.SetString(nullptr, "b/1", "x");
  auto keys = store.ListPrefix(nullptr, "a/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a/1");
  EXPECT_EQ(keys[1], "a/2");
}

// The blocking cases run as Cluster tasks: a store wait parks its fiber,
// and only a simulation's fibers can block.

TEST(KvStore, WaitBlocksUntilSet) {
  Store store;
  Result<std::vector<uint8_t>> r = Status(Code::kInternal, "not run");
  sim::Cluster cluster;
  cluster.Spawn(2, [&](sim::Endpoint& ep) {
    if (ep.pid() == 0) {
      EXPECT_EQ(store.size(), 0u);  // the key is set after this parks
      r = store.Wait(nullptr, "late");
    } else {
      ep.Busy(20e-3);
      store.SetString(nullptr, "late", "v");
    }
  });
  cluster.Join();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(r.value().begin(), r.value().end()), "v");
}

TEST(KvStore, WaitEntryDeliversVersionAndVisibility) {
  sim::Cluster cluster;
  Store store(1e-3);
  Result<Entry> r = Status(Code::kInternal, "not run");
  cluster.Spawn(2, [&](sim::Endpoint& ep) {
    if (ep.pid() == 0) {
      r = store.WaitEntry(&ep, "staged");
    } else {
      ep.Busy(3.0);
      store.SetString(&ep, "staged", "v1");
    }
  });
  cluster.Join();
  sim::Endpoint& reader = cluster.endpoint(0);
  sim::Endpoint& writer = cluster.endpoint(1);
  ASSERT_TRUE(r.ok());
  const Entry& e = r.value();
  EXPECT_EQ(std::string(e.value.begin(), e.value.end()), "v1");
  EXPECT_GE(e.visible_at, 3.0);  // carries the writer's virtual time
  EXPECT_EQ(e.version, 1u);
  EXPECT_GE(reader.now(), e.visible_at);  // causally after the write
  // An overwrite is visible to a later WaitEntry with a bumped version.
  store.SetString(&writer, "staged", "v2");
  auto r2 = store.WaitEntry(&reader, "staged");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(std::string(r2.value().value.begin(), r2.value().value.end()),
            "v2");
  EXPECT_EQ(r2.value().version, 2u);
}

TEST(KvStore, WaitEntryVersionedVisibilityUnderRacingWriters) {
  // The race the async admission depends on: writers re-publish one key
  // (CAS-guarded, so version k always carries the value "v<k>") while
  // readers snapshot it through WaitEntry. Every observed Entry must be
  // internally consistent — the value exactly the one its version
  // published, never a torn (version, value) pair — and the versions a
  // single reader observes must never move backwards. Every rank yields
  // between its steps, and writers yield between reading the version and
  // swapping, so writers interleave with readers and lose CAS races.
  Store store;
  constexpr uint64_t kFinalVersion = 300;
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;

  bool consistent = true;
  int failed_swaps = 0;
  sim::Cluster cluster;
  cluster.Spawn(kWriters + kReaders, [&](sim::Endpoint& ep) {
    if (ep.pid() < kWriters) {
      for (;;) {
        auto v = store.VersionOf(nullptr, "hot");
        const uint64_t cur = v.ok() ? v.value() : 0;
        if (cur >= kFinalVersion) return;
        const std::string val = "v" + std::to_string(cur + 1);
        sim::YieldTask();
        auto swapped = store.CompareAndSwap(
            nullptr, "hot", cur, std::vector<uint8_t>(val.begin(), val.end()));
        if (!swapped.value()) ++failed_swaps;
      }
    }
    uint64_t last = 0;
    for (;;) {
      auto e = store.WaitEntry(nullptr, "hot");
      if (!e.ok()) {
        consistent = false;
        return;
      }
      const Entry& en = e.value();
      const std::string want = "v" + std::to_string(en.version);
      if (std::string(en.value.begin(), en.value.end()) != want ||
          en.version < last) {
        consistent = false;
        return;
      }
      last = en.version;
      if (en.version >= kFinalVersion) return;
      sim::YieldTask();
    }
  });
  cluster.Join();
  EXPECT_TRUE(consistent);
  EXPECT_GT(failed_swaps, 0);  // the writers really raced
  auto fin = store.WaitEntry(nullptr, "hot");
  ASSERT_TRUE(fin.ok());
  EXPECT_EQ(fin.value().version, kFinalVersion);
  EXPECT_EQ(std::string(fin.value().value.begin(), fin.value().value.end()),
            "v" + std::to_string(kFinalVersion));
}

TEST(KvStore, WaitAbortsWhenCallerDies) {
  Store store;
  Result<std::vector<uint8_t>> r = Status(Code::kInternal, "not run");
  sim::Cluster cluster;
  cluster.Spawn(2, [&](sim::Endpoint& ep) {
    if (ep.pid() == 0) {
      r = store.Wait(&ep, "never");
    } else {
      ep.Busy(20e-3);
      ep.fabric().Kill(0);
    }
  });
  cluster.Join();
  EXPECT_EQ(r.status().code(), Code::kAborted);
}

TEST(KvStore, OperationsChargeRoundTrip) {
  sim::Fabric fabric{sim::SimConfig{}};
  fabric.RegisterProcess(0);
  sim::Endpoint ep(&fabric, 0);
  Store store(/*roundtrip=*/1e-3);
  store.SetString(&ep, "k", "v");
  EXPECT_NEAR(ep.now(), 1e-3, 1e-9);
  store.GetString(&ep, "k");
  EXPECT_NEAR(ep.now(), 2e-3, 1e-9);
}

TEST(KvStore, ReaderObservesWriterVirtualTime) {
  sim::Fabric fabric{sim::SimConfig{}};
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  sim::Endpoint writer(&fabric, 0), reader(&fabric, 1);
  writer.Busy(5.0);
  Store store(1e-3);
  store.SetString(&writer, "k", "v");
  auto r = store.GetString(&reader, "k");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(reader.now(), 5.0);  // causally after the write
}

TEST(KvStore, ClearEmptiesStore) {
  Store store;
  store.SetString(nullptr, "a", "1");
  store.SetString(nullptr, "b", "2");
  EXPECT_EQ(store.size(), 2u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace rcc::kv
