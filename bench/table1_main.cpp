// E1 — regenerates Table 1 of the paper (5x5 crossbar, 128-bit flits,
// 45 nm, 3 GHz, 50 % static probability) and prints a paper-vs-
// measured comparison.  See README, "Calibration", for the fit.

#include <cstdio>

#include "core/leakage_aware.hpp"

int main() {
  std::printf("E1: Table 1 — leakage-aware crossbar schemes @ 45 nm, 3 GHz\n");
  std::printf("Design point: 5x5 matrix crossbar, 128-bit flits, 110 C, "
              "static probability 0.5\n\n");

  const lain::core::Table1 t = lain::core::make_table1();
  std::printf("%s\n", t.formatted.c_str());
  std::printf("Paper vs measured:\n%s\n",
              lain::core::format_comparison(t).c_str());
  return 0;
}
