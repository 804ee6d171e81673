#include "circuit/leakage.hpp"

#include <gtest/gtest.h>

#include "tech/itrs.hpp"

namespace lain::circuit {
namespace {

using tech::DeviceModel;
using tech::DeviceType;
using tech::Mosfet;
using tech::VtClass;

class LeakageTest : public ::testing::Test {
 protected:
  const tech::TechNode& node = tech::itrs_node(tech::Node::k45nm);
  DeviceModel model{node, 383.0};
  Mosfet n1um{DeviceType::kNmos, VtClass::kNominal, 1e-6};
};

TEST_F(LeakageTest, OffInverterLeaksItsOffDevice) {
  // Inverter with input high: NMOS on (out=0), PMOS off and leaking.
  Netlist nl;
  const NodeId in = nl.add_node("IN");
  const NodeId out = nl.add_node("OUT");
  const Mosfet p{DeviceType::kPmos, VtClass::kNominal, 2e-6};
  nl.add_device("pu", p, DeviceRole::kDriverPull, in, out, nl.vdd());
  nl.add_device("pd", n1um, DeviceRole::kDriverPull, in, out, nl.gnd());
  NodeVoltages nv(nl, model.vdd_v());
  nv.set_logic(in, true);
  nv.set_logic(out, false);
  const LeakageSolver solver(nl, model);
  const LeakageResult res = solver.solve(nv);
  // Subthreshold power should match the PMOS's Ioff * Vdd closely.
  EXPECT_NEAR(res.subthreshold_w, model.ioff_a(p) * model.vdd_v(),
              0.05 * res.subthreshold_w);
  EXPECT_GT(res.gate_w, 0.0);
}

TEST_F(LeakageTest, StackEffect) {
  // Two series OFF NMOS leak much less than one OFF NMOS: the solver
  // must find the intermediate node's equilibrium.
  Netlist single, stacked;
  {
    const NodeId top = single.add_node("TOP");
    single.add_device("m", n1um, DeviceRole::kOther, single.gnd(), top,
                      single.gnd());
    NodeVoltages nv(single, model.vdd_v());
    nv.set_logic(top, true);
    // TOP at Vdd, gate 0 -> full Ioff.
  }
  const NodeId top1 = single.find_node("TOP");
  NodeVoltages nv1(single, model.vdd_v());
  nv1.set_logic(top1, true);
  const double leak1 =
      LeakageSolver(single, model).solve(nv1).subthreshold_w;

  const NodeId top2 = stacked.add_node("TOP");
  const NodeId mid = stacked.add_node("MID", NodeKind::kInternal);
  stacked.add_device("hi", n1um, DeviceRole::kOther, stacked.gnd(), top2, mid);
  stacked.add_device("lo", n1um, DeviceRole::kOther, stacked.gnd(), mid,
                     stacked.gnd());
  NodeVoltages nv2(stacked, model.vdd_v());
  nv2.set_logic(top2, true);
  const LeakageResult res2 = LeakageSolver(stacked, model).solve(nv2);

  EXPECT_LT(res2.subthreshold_w, leak1 / 3.0);  // classic stack effect
  // The intermediate node settles a few hundred mV above ground.
  const double vmid = res2.node_voltage_v[static_cast<size_t>(mid)];
  EXPECT_GT(vmid, 0.02);
  EXPECT_LT(vmid, 0.5);
}

TEST_F(LeakageTest, OnDeviceDrivesInternalNodeToRail) {
  Netlist nl;
  const NodeId mid = nl.add_node("MID", NodeKind::kInternal);
  // ON NMOS to GND (gate at Vdd), OFF NMOS to a high node: mid ~ 0.
  const NodeId hi = nl.add_node("HI");
  nl.add_device("on", n1um, DeviceRole::kOther, nl.vdd(), mid, nl.gnd());
  nl.add_device("off", n1um, DeviceRole::kOther, nl.gnd(), hi, mid);
  NodeVoltages nv(nl, model.vdd_v());
  nv.set_logic(hi, true);
  const LeakageResult res = LeakageSolver(nl, model).solve(nv);
  EXPECT_LT(res.node_voltage_v[static_cast<size_t>(mid)], 0.05);
}

TEST_F(LeakageTest, HighVtCutsLeakage) {
  auto make = [&](VtClass vt) {
    Netlist nl;
    const NodeId top = nl.add_node("TOP");
    Mosfet m = n1um;
    m.vt = vt;
    nl.add_device("m", m, DeviceRole::kOther, nl.gnd(), top, nl.gnd());
    NodeVoltages nv(nl, model.vdd_v());
    nv.set_logic(top, true);
    return LeakageSolver(nl, model).solve(nv).subthreshold_w;
  };
  EXPECT_GT(make(VtClass::kNominal), 5.0 * make(VtClass::kHigh));
}

TEST_F(LeakageTest, UnsetSignalNodeThrows) {
  Netlist nl;
  const NodeId a = nl.add_node("A");
  nl.add_device("m", n1um, DeviceRole::kOther, nl.gnd(), a, nl.gnd());
  NodeVoltages nv(nl, model.vdd_v());
  EXPECT_THROW(LeakageSolver(nl, model).solve(nv), std::invalid_argument);
}

TEST_F(LeakageTest, DeviceWithoutDriveThrowsOnlyWhenOn) {
  // A +1 V threshold shift leaves the device no drive at Vdd
  // (ion_a == 0).  Building the solver and evaluating the device OFF
  // must still work; only an ON evaluation (gate overdriven above the
  // rail) needs its resistance and throws, as the device model does.
  const DeviceModel weak(node, 383.0, /*vth_shift_v=*/1.0,
                         /*drive_scale=*/1.0, /*vdd_scale=*/1.0);
  ASSERT_EQ(weak.ion_a(n1um), 0.0);
  Netlist nl;
  const NodeId g = nl.add_node("G");
  const NodeId d = nl.add_node("D");
  nl.add_device("m", n1um, DeviceRole::kOther, g, d, nl.gnd());
  const LeakageSolver solver(nl, weak);

  NodeVoltages off(nl, weak.vdd_v());
  off.set(g, 0.0);
  off.set(d, weak.vdd_v());
  EXPECT_GT(solver.solve(off).subthreshold_w, 0.0);

  NodeVoltages on(nl, weak.vdd_v());
  on.set(g, 3.0 * weak.vdd_v());
  on.set(d, 0.5 * weak.vdd_v());
  EXPECT_THROW(solver.solve(on), std::domain_error);
}

TEST_F(LeakageTest, FloatingNodeBetweenOffDevicesSettles) {
  // A wire segment isolated by OFF switches from Vdd-ish and GND-ish
  // drivers floats to an equilibrium strictly inside the rails.
  Netlist nl;
  const NodeId seg = nl.add_node("SEG", NodeKind::kInternal);
  const NodeId hi = nl.add_node("HI");
  const NodeId lo = nl.add_node("LO");
  nl.add_device("sw_hi", n1um, DeviceRole::kSegmentSwitch, nl.gnd(), hi, seg);
  nl.add_device("sw_lo", n1um, DeviceRole::kSegmentSwitch, nl.gnd(), seg, lo);
  NodeVoltages nv(nl, model.vdd_v());
  nv.set_logic(hi, true);
  nv.set_logic(lo, false);
  const LeakageResult res = LeakageSolver(nl, model).solve(nv);
  const double v = res.node_voltage_v[static_cast<size_t>(seg)];
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, model.vdd_v());
}

TEST_F(LeakageTest, NoDoubleCountingInSeriesPath) {
  // Vdd -> off -> mid -> off -> GND carries ONE current; power must be
  // ~ I_path * Vdd, not 2x.
  Netlist nl;
  const NodeId mid = nl.add_node("MID", NodeKind::kInternal);
  const Mosfet p{DeviceType::kPmos, VtClass::kNominal, 1e-6};
  nl.add_device("top", p, DeviceRole::kOther, nl.vdd(), mid, nl.vdd());
  nl.add_device("bot", n1um, DeviceRole::kOther, nl.gnd(), mid, nl.gnd());
  NodeVoltages nv(nl, model.vdd_v());
  const LeakageResult res = LeakageSolver(nl, model).solve(nv);
  // Power equals the series current once (currents balance at mid).
  const double i_bot =
      res.device_sub_a[static_cast<size_t>(nl.find_device("bot"))];
  EXPECT_NEAR(res.subthreshold_w, i_bot * model.vdd_v(),
              0.02 * res.subthreshold_w);
}

}  // namespace
}  // namespace lain::circuit
