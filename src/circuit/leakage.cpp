#include "circuit/leakage.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lain::circuit {
namespace {

// Fraction of the gate area that still tunnels when the channel is off
// (gate-to-drain/source overlap, edge direct tunneling).
constexpr double kOverlapFraction = 0.08;

}  // namespace

NodeVoltages::NodeVoltages(const Netlist& nl, double vdd_v)
    : v_(nl.node_count(), kUnsetVoltage), vdd_v_(vdd_v) {
  v_.at(static_cast<size_t>(nl.gnd())) = 0.0;
  v_.at(static_cast<size_t>(nl.vdd())) = vdd_v;
}

void NodeVoltages::set(NodeId node, double voltage_v) {
  if (voltage_v < 0.0) throw std::invalid_argument("voltage must be >= 0");
  v_.at(static_cast<size_t>(node)) = voltage_v;
}

void NodeVoltages::set_logic(NodeId node, bool high) {
  set(node, high ? vdd_v_ : 0.0);
}

LeakageSolver::LeakageSolver(const Netlist& nl, const tech::DeviceModel& model)
    : nl_(nl), model_(model), adj_begin_(nl.node_count() + 1, 0) {
  devs_.reserve(nl.device_count());
  for (const Device& d : nl.devices()) {
    const double r_on = model.ion_a(d.mos) > 0.0
                            ? model.eff_resistance_ohm(d.mos)
                            : std::numeric_limits<double>::quiet_NaN();
    devs_.push_back({d.mos, d.gate, d.drain, d.source, r_on});
    ++adj_begin_[static_cast<size_t>(d.drain) + 1];
    ++adj_begin_[static_cast<size_t>(d.source) + 1];
  }
  for (std::size_t n = 1; n < adj_begin_.size(); ++n) {
    adj_begin_[n] += adj_begin_[n - 1];
  }
  adj_.resize(adj_begin_.back());
  std::vector<std::size_t> next(adj_begin_.begin(), adj_begin_.end() - 1);
  for (std::size_t i = 0; i < devs_.size(); ++i) {
    const Dev& d = devs_[i];
    adj_[next[static_cast<size_t>(d.drain)]++] = static_cast<DeviceId>(i);
    adj_[next[static_cast<size_t>(d.source)]++] = static_cast<DeviceId>(i);
  }
}

// Current through one MOSFET given terminal voltages, positive from
// the high S/D terminal to the low one.  ON devices conduct through
// their effective resistance; OFF devices leak subthreshold current.
double LeakageSolver::channel_current(const Dev& d, double vg, double va,
                                      double vb) const {
  // va/vb are the two S/D terminals; orient so current flows hi -> lo.
  const double hi = std::max(va, vb);
  const double lo = std::min(va, vb);
  const double vds = hi - lo;
  if (vds <= 0.0) return 0.0;
  double vgs;  // effective gate overdrive reference
  if (d.mos.type == tech::DeviceType::kNmos) {
    vgs = vg - lo;  // NMOS source is the low terminal
  } else {
    vgs = hi - vg;  // PMOS source is the high terminal
  }
  const double vth = model_.vth_v(d.mos, vds);
  if (vgs > vth) {
    // ON: resistive conduction.  Scale resistance with remaining
    // overdrive so partially-on devices conduct weakly.
    if (std::isnan(d.r_on_ohm)) {
      throw std::domain_error("device has no drive (overdrive <= 0)");
    }
    const double od_full = model_.vdd_v() - vth;
    const double scale = std::max((vgs - vth) / std::max(od_full, 1e-9), 1e-3);
    return vds / (d.r_on_ohm / scale);
  }
  return model_.subthreshold_a(d.mos, vgs, vds);
}

double LeakageSolver::current_into(const Dev& d, NodeId node,
                                   const double* v) const {
  const double vg = v[static_cast<size_t>(d.gate)];
  const double vd = v[static_cast<size_t>(d.drain)];
  const double vs = v[static_cast<size_t>(d.source)];
  const double i = channel_current(d, vg, vd, vs);
  // Current flows from the higher S/D terminal to the lower one.
  const bool node_is_drain = (node == d.drain);
  const double v_this = node_is_drain ? vd : vs;
  const double v_other = node_is_drain ? vs : vd;
  if (v_this > v_other) return -i;  // current leaves this node
  if (v_this < v_other) return +i;  // current enters this node
  return 0.0;
}

double LeakageSolver::solve_node(NodeId node, double* v) const {
  // Net current into `node` is monotonically decreasing in its voltage
  // (raising the node increases outflow / decreases inflow), so
  // bisection on [0, Vdd] finds the balance point.
  const std::size_t n = static_cast<size_t>(node);
  const DeviceId* first = adj_.data() + adj_begin_[n];
  const DeviceId* last = adj_.data() + adj_begin_[n + 1];
  double lo = 0.0, hi = model_.vdd_v();
  auto net_current = [&](double vn) {
    v[n] = vn;
    double sum = 0.0;
    for (const DeviceId* it = first; it != last; ++it) {
      sum += current_into(devs_[static_cast<size_t>(*it)], node, v);
    }
    return sum;
  };
  const double f_lo = net_current(lo);
  if (f_lo <= 0.0) {  // even at 0 V current flows out: node sits at GND
    v[n] = 0.0;
    return 0.0;
  }
  const double f_hi = net_current(hi);
  if (f_hi >= 0.0) {  // even at Vdd current flows in: node sits at Vdd
    v[n] = hi;
    return hi;
  }
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    // lo and hi are adjacent doubles: f(lo) > 0 and f(hi) <= 0 would
    // keep both bounds where they are for every remaining iteration.
    if (mid == lo || mid == hi) break;
    if (net_current(mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double result = 0.5 * (lo + hi);
  v[n] = result;
  return result;
}

LeakageResult LeakageSolver::solve(const NodeVoltages& state) const {
  std::vector<double> v = state.raw();
  std::vector<NodeId> unknown;
  const std::vector<Node>& nodes = nl_.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (v[i] >= 0.0) continue;
    if (nodes[i].kind == NodeKind::kInternal) {
      unknown.push_back(static_cast<NodeId>(i));
      v[i] = 0.0;  // initial guess
    } else {
      throw std::invalid_argument("signal node left unset: " + nodes[i].name);
    }
  }

  // Gauss-Seidel relaxation over unknown nodes.
  for (int sweep = 0; sweep < 100; ++sweep) {
    double max_delta = 0.0;
    for (NodeId n : unknown) {
      const double before = v[static_cast<size_t>(n)];
      const double after = solve_node(n, v.data());
      max_delta = std::max(max_delta, std::fabs(after - before));
    }
    if (max_delta < 1e-7) break;
  }

  LeakageResult res;
  res.node_voltage_v = v;
  res.device_sub_a.resize(devs_.size(), 0.0);
  res.device_gate_a.resize(devs_.size(), 0.0);
  const double vdd = model_.vdd_v();

  for (std::size_t i = 0; i < devs_.size(); ++i) {
    const Dev& d = devs_[i];
    const double vg = v[static_cast<size_t>(d.gate)];
    const double vd_ = v[static_cast<size_t>(d.drain)];
    const double vs = v[static_cast<size_t>(d.source)];
    const double hi = std::max(vd_, vs);
    const double lo = std::min(vd_, vs);
    const double vds = hi - lo;
    const double vgs = (d.mos.type == tech::DeviceType::kNmos) ? vg - lo
                                                               : hi - vg;
    const double vth = model_.vth_v(d.mos, std::max(vds, 1e-6));
    const bool on = vgs > vth;

    if (!on && vds > 0.0) {
      res.device_sub_a[i] = model_.subthreshold_a(d.mos, vgs, vds);
    }

    // Gate leakage: full channel tunneling when ON, overlap (EDT)
    // component against each S/D terminal when OFF.
    double ig = 0.0;
    if (d.mos.type == tech::DeviceType::kNmos) {
      if (on) {
        ig = model_.gate_leak_a(d.mos, vg - lo);
      } else {
        ig = kOverlapFraction * (model_.gate_leak_a(d.mos, vg - vd_) +
                                 model_.gate_leak_a(d.mos, vg - vs) +
                                 model_.gate_leak_a(d.mos, vd_ - vg) +
                                 model_.gate_leak_a(d.mos, vs - vg));
      }
    } else {
      if (on) {
        ig = model_.gate_leak_a(d.mos, hi - vg);
      } else {
        ig = kOverlapFraction * (model_.gate_leak_a(d.mos, vd_ - vg) +
                                 model_.gate_leak_a(d.mos, vs - vg) +
                                 model_.gate_leak_a(d.mos, vg - vd_) +
                                 model_.gate_leak_a(d.mos, vg - vs));
      }
    }
    res.device_gate_a[i] = ig;
    res.gate_w += ig * vdd;
  }

  // Subthreshold power: sum the current entering every grounded-level
  // sink once (avoids double counting series stacks).
  double sink_current = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (v[i] > 1e-9) continue;  // only 0 V sinks
    for (std::size_t k = adj_begin_[i]; k < adj_begin_[i + 1]; ++k) {
      const double into = current_into(devs_[static_cast<size_t>(adj_[k])],
                                       static_cast<NodeId>(i), v.data());
      if (into > 0.0) sink_current += into;
    }
  }
  res.subthreshold_w = sink_current * vdd;
  return res;
}

}  // namespace lain::circuit
