// leakage.hpp — state-dependent leakage analysis with stack effect.
//
// Given a netlist and a logic state (voltages of all signal nodes),
// the solver:
//
//   1. solves the floating internal nodes (series-stack intermediate
//      nodes) by current balance — this is what produces the classic
//      *stack effect*: an intermediate node between two OFF devices
//      rises a few hundred mV, giving the bottom device negative Vgs
//      and the top device reduced Vds (less DIBL), cutting the stack's
//      leakage by roughly an order of magnitude;
//   2. evaluates every device's subthreshold current at the solved
//      voltages, plus gate (oxide tunneling) leakage — channel
//      component when ON, overlap/EDT component when OFF;
//   3. reports total leakage power and per-device breakdowns.
//
// This is the engine behind every "active leakage" / "standby leakage"
// number in the Table 1 reproduction: active states weight data
// polarities by the static probability; standby states are the parked
// states each scheme engineers (node A grounded, wire precharged, ...).

#pragma once

#include <vector>

#include "circuit/netlist.hpp"
#include "tech/mosfet.hpp"

namespace lain::circuit {

// Voltage assignment per node.  Signal nodes must be set by the caller
// (use `kUnset` / helpers below); internal nodes may be left unset and
// are solved.  Rails are forced regardless of input.
inline constexpr double kUnsetVoltage = -1.0;

class NodeVoltages {
 public:
  NodeVoltages(const Netlist& nl, double vdd_v);

  void set(NodeId node, double voltage_v);
  void set_logic(NodeId node, bool high);
  double get(NodeId node) const { return v_.at(static_cast<size_t>(node)); }
  bool is_set(NodeId node) const { return get(node) >= 0.0; }

  std::vector<double>& raw() { return v_; }
  const std::vector<double>& raw() const { return v_; }
  double vdd_v() const { return vdd_v_; }

 private:
  std::vector<double> v_;
  double vdd_v_;
};

struct LeakageResult {
  double subthreshold_w = 0.0;  // total subthreshold leakage power
  double gate_w = 0.0;          // total gate (oxide) leakage power
  std::vector<double> device_sub_a;   // per-device subthreshold current
  std::vector<double> device_gate_a;  // per-device gate current
  std::vector<double> node_voltage_v; // solved node voltages

  double total_w() const { return subthreshold_w + gate_w; }
};

// Build one solver per netlist and reuse it across states: the
// constructor flattens the netlist into CSR node->device adjacency and
// per-device terminals, and hoists each device's ON resistance out of
// the relaxation loop.  Both netlist and model must outlive the solver.
class LeakageSolver {
 public:
  LeakageSolver(const Netlist& nl, const tech::DeviceModel& model);

  // Solves internal nodes and evaluates leakage.  Throws
  // std::invalid_argument if a signal node was left unset, and
  // std::domain_error if a device without drive is evaluated ON.
  LeakageResult solve(const NodeVoltages& state) const;

 private:
  // One device as the relaxation loop reads it.
  struct Dev {
    tech::Mosfet mos;
    NodeId gate, drain, source;
    // model.eff_resistance_ohm(mos), or NaN when the device has no
    // drive (evaluating it ON then throws, as the model does).
    double r_on_ohm;
  };

  double channel_current(const Dev& d, double vg, double va, double vb) const;
  // Signed current into `node` (a drain/source terminal of d) through
  // d, at node voltages v.
  double current_into(const Dev& d, NodeId node, const double* v) const;
  double solve_node(NodeId node, double* v) const;

  const Netlist& nl_;
  const tech::DeviceModel& model_;
  std::vector<Dev> devs_;
  // CSR adjacency: devices touching node n via drain/source are
  // adj_[adj_begin_[n] .. adj_begin_[n + 1]), in device order (a
  // device's drain entry before its source entry).
  std::vector<std::size_t> adj_begin_;
  std::vector<DeviceId> adj_;
};

}  // namespace lain::circuit
