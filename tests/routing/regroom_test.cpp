// Staged re-grooming on PinnedDetourOracle: make-before-break
// transactions, commit-time leg verification and epoch semantics.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "routing/oracle.hpp"
#include "topo/builders.hpp"

namespace quartz::routing {
namespace {

using topo::LinkId;
using topo::NodeId;

struct RegroomFixture {
  topo::BuiltTopology topo;
  std::unique_ptr<EcmpRouting> routing;
  std::unique_ptr<PinnedDetourOracle> oracle;

  explicit RegroomFixture(int switches = 4, int hosts = 2) {
    topo::QuartzRingParams p;
    p.switches = switches;
    p.hosts_per_switch = hosts;
    topo = topo::quartz_ring(p);
    routing = std::make_unique<EcmpRouting>(topo.graph);
    oracle = std::make_unique<PinnedDetourOracle>(*routing, topo.quartz_rings);
  }

  NodeId host(int sw, int i) const { return topo.host_groups[static_cast<std::size_t>(sw)][i]; }

  LinkId mesh_link(NodeId a, NodeId b) const {
    for (const topo::LinkId id : topo.graph.link_ids()) {
      const topo::Link& link = topo.graph.link(id);
      if (link.wdm_channel < 0) continue;
      if ((link.a == a && link.b == b) || (link.a == b && link.b == a)) return id;
    }
    return topo::kInvalidLink;
  }

  /// One routing decision at the source ToR for a host pair.
  LinkId route_once(NodeId src, NodeId dst) const {
    FlowKey key;
    key.src = src;
    key.dst = dst;
    key.flow_hash = mix_hash(17);
    return oracle->next_link(topo.tors[0], key);
  }
};

TEST(Regroom, StagedPinsDoNotRouteUntilCommit) {
  RegroomFixture f;
  const NodeId src = f.host(0, 0);
  const NodeId dst = f.host(1, 0);
  const std::uint64_t epoch_before = f.oracle->state_epoch();

  f.oracle->begin_regroom();
  f.oracle->stage_pin(src, dst, f.topo.tors[2]);
  EXPECT_TRUE(f.oracle->regrooming());
  EXPECT_EQ(f.oracle->pin_count(), 0u);
  EXPECT_EQ(f.oracle->state_epoch(), epoch_before);  // nothing applied yet

  const auto result = f.oracle->commit_regroom();
  EXPECT_EQ(result.applied, 1);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(f.oracle->pin_count(), 1u);
  EXPECT_EQ(f.oracle->state_epoch(), epoch_before + 1);  // exactly one bump
  EXPECT_FALSE(f.oracle->regrooming());

  // The committed pin routes via the staged intermediate.
  const LinkId first_hop = f.route_once(src, dst);
  EXPECT_EQ(first_hop, f.mesh_link(f.topo.tors[0], f.topo.tors[2]));
}

TEST(Regroom, RoutingDuringOpenTransactionThrows) {
  RegroomFixture f;
  f.oracle->begin_regroom();
  EXPECT_THROW(f.route_once(f.host(0, 0), f.host(1, 0)), std::logic_error);
  f.oracle->abort_regroom();
  EXPECT_NO_THROW(f.route_once(f.host(0, 0), f.host(1, 0)));
}

TEST(Regroom, ImmediatePinDuringOpenTransactionThrows) {
  RegroomFixture f;
  f.oracle->begin_regroom();
  EXPECT_THROW(f.oracle->pin(f.host(0, 0), f.host(1, 0), f.topo.tors[2]), std::logic_error);
  f.oracle->abort_regroom();
}

TEST(Regroom, NestedBeginAndDanglingStageThrow) {
  RegroomFixture f;
  EXPECT_THROW(f.oracle->stage_pin(f.host(0, 0), f.host(1, 0), f.topo.tors[2]),
               std::logic_error);
  EXPECT_THROW(f.oracle->commit_regroom(), std::logic_error);
  f.oracle->begin_regroom();
  EXPECT_THROW(f.oracle->begin_regroom(), std::logic_error);
  f.oracle->abort_regroom();
}

TEST(Regroom, AbortDiscardsTheStagedPlan) {
  RegroomFixture f;
  const std::uint64_t epoch_before = f.oracle->state_epoch();
  f.oracle->begin_regroom();
  f.oracle->stage_pin(f.host(0, 0), f.host(1, 0), f.topo.tors[2]);
  f.oracle->abort_regroom();
  EXPECT_EQ(f.oracle->pin_count(), 0u);
  EXPECT_EQ(f.oracle->state_epoch(), epoch_before);
  // A later commit does not resurrect aborted changes.
  f.oracle->begin_regroom();
  const auto result = f.oracle->commit_regroom();
  EXPECT_EQ(result.applied, 0);
}

TEST(Regroom, CommitRejectsPinsWithDeadDetourLegs) {
  RegroomFixture f;
  FailureView view(f.topo.graph.link_count());
  f.oracle->attach_failure_view(&view);
  // Kill the first leg of the detour via tors[2]; the leg via tors[3]
  // stays alive.
  view.set_dead(f.mesh_link(f.topo.tors[0], f.topo.tors[2]), true);

  f.oracle->begin_regroom();
  f.oracle->stage_pin(f.host(0, 0), f.host(1, 0), f.topo.tors[2]);  // dead leg
  f.oracle->stage_pin(f.host(0, 1), f.host(1, 1), f.topo.tors[3]);  // alive
  const auto result = f.oracle->commit_regroom();
  EXPECT_EQ(result.applied, 1);
  EXPECT_EQ(result.rejected, 1);
  EXPECT_EQ(f.oracle->pin_count(), 1u);

  // The rejected pair keeps its previous (direct) route: break nothing
  // until the replacement is made.
  const LinkId hop = f.route_once(f.host(0, 0), f.host(1, 0));
  EXPECT_EQ(hop, f.mesh_link(f.topo.tors[0], f.topo.tors[1]));
}

TEST(Regroom, CommitRejectsViaEndpointSwitches) {
  RegroomFixture f;
  f.oracle->begin_regroom();
  // Detouring "via" either endpoint's own ToR is no detour at all.
  f.oracle->stage_pin(f.host(0, 0), f.host(1, 0), f.topo.tors[0]);
  f.oracle->stage_pin(f.host(0, 1), f.host(1, 1), f.topo.tors[1]);
  const auto result = f.oracle->commit_regroom();
  EXPECT_EQ(result.applied, 0);
  EXPECT_EQ(result.rejected, 2);
  EXPECT_EQ(f.oracle->pin_count(), 0u);
}

TEST(Regroom, UnpinRemovesAndRestoresTheFastPath) {
  RegroomFixture f;
  const NodeId src = f.host(0, 0);
  const NodeId dst = f.host(1, 0);
  f.oracle->pin(src, dst, f.topo.tors[2]);
  const std::uint64_t epoch_pinned = f.oracle->state_epoch();

  f.oracle->begin_regroom();
  f.oracle->stage_unpin(src, dst);
  const auto result = f.oracle->commit_regroom();
  EXPECT_EQ(result.removed, 1);
  EXPECT_EQ(f.oracle->pin_count(), 0u);
  EXPECT_EQ(f.oracle->state_epoch(), epoch_pinned + 1);
  // Back to the direct mesh hop.
  EXPECT_EQ(f.route_once(src, dst), f.mesh_link(f.topo.tors[0], f.topo.tors[1]));

  // Unpinning a pair that is not pinned is a harmless no-op.
  f.oracle->begin_regroom();
  f.oracle->stage_unpin(src, dst);
  EXPECT_EQ(f.oracle->commit_regroom().removed, 0);
}

TEST(Regroom, SwapCommitIsAtomicWithOneEpochBump) {
  RegroomFixture f;
  const NodeId src = f.host(0, 0);
  const NodeId dst = f.host(1, 0);
  f.oracle->pin(src, dst, f.topo.tors[2]);
  const std::uint64_t epoch_before = f.oracle->state_epoch();

  // Swap the detour intermediate in one transaction.
  f.oracle->begin_regroom();
  f.oracle->stage_unpin(src, dst);
  f.oracle->stage_pin(src, dst, f.topo.tors[3]);
  const auto result = f.oracle->commit_regroom();
  EXPECT_EQ(result.removed, 1);
  EXPECT_EQ(result.applied, 1);
  EXPECT_EQ(f.oracle->pin_count(), 1u);
  EXPECT_EQ(f.oracle->state_epoch(), epoch_before + 1);
  EXPECT_EQ(f.route_once(src, dst), f.mesh_link(f.topo.tors[0], f.topo.tors[3]));
}

TEST(Regroom, StagePinValidatesEndpoints) {
  RegroomFixture f;
  f.oracle->begin_regroom();
  EXPECT_THROW(f.oracle->stage_pin(f.topo.tors[0], f.host(1, 0), f.topo.tors[2]),
               std::invalid_argument);
  EXPECT_THROW(f.oracle->stage_pin(f.host(0, 0), f.host(1, 0), f.host(2, 0)),
               std::invalid_argument);
  f.oracle->abort_regroom();
}

}  // namespace
}  // namespace quartz::routing
