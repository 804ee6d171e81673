#include "xbar/characterize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace lain::xbar {
namespace {

class CharacterizeTest : public ::testing::Test {
 protected:
  static const Characterization& of(Scheme s) {
    static std::map<Scheme, Characterization> cache;
    auto it = cache.find(s);
    if (it == cache.end()) {
      it = cache.emplace(s, characterize(table1_spec(), s)).first;
    }
    return it->second;
  }
};

TEST_F(CharacterizeTest, AllQuantitiesPositive) {
  for (Scheme s : all_schemes()) {
    const Characterization& c = of(s);
    EXPECT_GT(c.delay_hl_s, 0.0) << scheme_name(s);
    EXPECT_GT(c.delay_lh_s, 0.0) << scheme_name(s);
    EXPECT_GT(c.active_leakage_w, 0.0) << scheme_name(s);
    EXPECT_GT(c.idle_leakage_w, 0.0) << scheme_name(s);
    EXPECT_GT(c.standby_leakage_w, 0.0) << scheme_name(s);
    EXPECT_GT(c.dynamic_power_w, 0.0) << scheme_name(s);
    EXPECT_GT(c.total_power_w, 0.0) << scheme_name(s);
    EXPECT_GE(c.min_idle_cycles, 1) << scheme_name(s);
  }
}

TEST_F(CharacterizeTest, StandbyBelowIdle) {
  // Gating must actually reduce leakage for every scheme.
  for (Scheme s : all_schemes()) {
    const Characterization& c = of(s);
    EXPECT_LT(c.standby_leakage_w, c.idle_leakage_w) << scheme_name(s);
  }
}

TEST_F(CharacterizeTest, DelaysInPlausibleBand) {
  // All schemes sit within 2x of the SC baseline's ~60 ps.
  for (Scheme s : all_schemes()) {
    const Characterization& c = of(s);
    EXPECT_GT(c.delay_hl_s, 20e-12) << scheme_name(s);
    EXPECT_LT(c.delay_hl_s, 120e-12) << scheme_name(s);
    EXPECT_GT(c.delay_lh_s, 20e-12) << scheme_name(s);
    EXPECT_LT(c.delay_lh_s, 120e-12) << scheme_name(s);
  }
}

TEST_F(CharacterizeTest, TotalPowerDecomposition) {
  for (Scheme s : all_schemes()) {
    const Characterization& c = of(s);
    EXPECT_NEAR(c.total_power_w,
                c.dynamic_power_w + c.control_power_w + c.active_leakage_w,
                1e-12)
        << scheme_name(s);
  }
}

TEST_F(CharacterizeTest, PrechargedSchemesPayDynamicPenalty) {
  // At 50 % static probability the precharged wire switches twice as
  // often (the Table 1 footnote's "worst case for power").
  EXPECT_GT(of(Scheme::kDPC).dynamic_power_w,
            1.2 * of(Scheme::kSC).dynamic_power_w);
  EXPECT_GT(of(Scheme::kSDPC).dynamic_power_w,
            of(Scheme::kSDFC).dynamic_power_w);
}

TEST_F(CharacterizeTest, SleepPenaltyStructure) {
  // Precharged schemes park in the state the precharge cycle restores
  // for free: their penalty is the sleep line only.
  EXPECT_LT(of(Scheme::kDPC).sleep_penalty_j(),
            0.2 * of(Scheme::kSC).sleep_penalty_j());
  EXPECT_DOUBLE_EQ(of(Scheme::kDPC).wakeup_energy_j, 0.0);
  EXPECT_GT(of(Scheme::kSC).wakeup_energy_j, 0.0);
}

TEST_F(CharacterizeTest, RelativeSavingHelper) {
  EXPECT_DOUBLE_EQ(relative_saving(10.0, 5.0), 0.5);
  EXPECT_DOUBLE_EQ(relative_saving(10.0, 10.0), 0.0);
  EXPECT_LT(relative_saving(10.0, 12.0), 0.0);
  EXPECT_THROW(relative_saving(0.0, 1.0), std::domain_error);
}

TEST_F(CharacterizeTest, DelayPenaltyHelper) {
  const Characterization& base = of(Scheme::kSC);
  EXPECT_DOUBLE_EQ(delay_penalty(base, base), 0.0);
  // Faster schemes report "No" (zero), not negative.
  EXPECT_DOUBLE_EQ(delay_penalty(base, of(Scheme::kDFC)), 0.0);
  // Segmented schemes pay a positive penalty.
  EXPECT_GT(delay_penalty(base, of(Scheme::kSDFC)), 0.0);
  EXPECT_GT(delay_penalty(base, of(Scheme::kSDPC)), 0.0);
}

TEST_F(CharacterizeTest, SmallerCrossbarIsFasterAndCooler) {
  CrossbarSpec small = table1_spec();
  small.flit_bits = 32;
  const Characterization c32 = characterize(small, Scheme::kSC);
  const Characterization& c128 = of(Scheme::kSC);
  EXPECT_LT(c32.delay_hl_s, c128.delay_hl_s);
  EXPECT_LT(c32.total_power_w, c128.total_power_w);
  EXPECT_LT(c32.active_leakage_w, c128.active_leakage_w);
}

TEST_F(CharacterizeTest, StaticProbabilityExtremes) {
  // At p=1 (all ones) a precharged crossbar almost never discharges:
  // its dynamic power collapses.
  CrossbarSpec ones = table1_spec();
  ones.static_probability = 0.95;
  CrossbarSpec worst = table1_spec();
  worst.static_probability = 0.5;
  const Characterization dpc_ones = characterize(ones, Scheme::kDPC);
  const Characterization dpc_worst = characterize(worst, Scheme::kDPC);
  EXPECT_LT(dpc_ones.dynamic_power_w, 0.4 * dpc_worst.dynamic_power_w);
}

TEST_F(CharacterizeTest, InvalidSpecThrows) {
  CrossbarSpec bad = table1_spec();
  bad.static_probability = 1.5;
  EXPECT_THROW(characterize(bad, Scheme::kSC), std::invalid_argument);
  bad = table1_spec();
  bad.freq_hz = 0.0;
  EXPECT_THROW(characterize(bad, Scheme::kSC), std::invalid_argument);
}

TEST_F(CharacterizeTest, MismatchedLeakageStatesThrow) {
  const LeakageStates dpc = solve_leakage_states(table1_spec(), Scheme::kDPC);
  EXPECT_THROW(characterize(table1_spec(), Scheme::kSC, dpc),
               std::invalid_argument);
}

std::uint64_t bits_of(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// The exact bit patterns of every Characterization field at the
// Table 1 design point.  Any change in the arithmetic of the leakage
// solver, the device model or the characterization (an operation
// reordered, a constant refolded, a fast-math flag) fails here, even
// where the rounded Table 1 figures would not move.  Update these
// only for a deliberate model change, and say so in CHANGES.md.
TEST(CharacterizeGolden, Table1SpecBitPatternsArePinned) {
  struct Golden {
    Scheme scheme;
    // delay_hl, delay_lh, active/idle/standby leakage, dynamic,
    // control, total power, sleep entry and wakeup energy.
    std::uint64_t field[10];
    int min_idle_cycles;
  };
  const Golden golden[] = {
      {Scheme::kSC,
       {0x3dd0d61e847ddd88ull, 0x3dcd7de963e556ccull,
        0x3fb7368b287affa4ull, 0x3fb735c0388e5959ull,
        0x3fb046df810c1f6eull, 0x3fb506769fd69cb8ull,
        0x3f5b9a90399e8740ull, 0x3fc655b6049c0b3cull,
        0x3da5a258bfdf9495ull, 0x3da920d4bd718cbeull},
       3},
      {Scheme::kDFC,
       {0x3dcf037e122653e0ull, 0x3dcfdf066404db89ull,
        0x3fb4ef8e966d4e9eull, 0x3fb4eec3a680a852ull,
        0x3fa8b7f2312ef511ull, 0x3fb506769fd69cb8ull,
        0x3f5b9a90399e8740ull, 0x3fc53237bb9532baull,
        0x3da5a258bfdf9495ull, 0x3da920d4bd718cbeull},
       2},
      {Scheme::kDPC,
       {0x3dd0fd2fc8b6920dull, 0x3dce4b3690e86565ull,
        0x3fa449dc98524389ull, 0x3fa44846b878f6f3ull,
        0x3f81f04dae436ce4ull, 0x3fbf82b01ddaad2bull,
        0x3f5b9a90399e8740ull, 0x3fc50b0455752486ull,
        0x3d627136abf52687ull, 0x0000000000000000ull},
       1},
      {Scheme::kSDFC,
       {0x3dd55bbbc89defabull, 0x3dd6e84a7ab4ba0dull,
        0x3fac3464e9d8b85eull, 0x3fb18ca735c2a1e6ull,
        0x3f989e7cbfe1aa56ull, 0x3fb5ac6c013cadd4ull,
        0x3f7cfbe43c800e04ull, 0x3fc2cb2e5cf88572ull,
        0x3da6c96c2a9ee6feull, 0x3da7b5274cea68a7ull},
       2},
      {Scheme::kSDPC,
       {0x3dd3bac89af964beull, 0x3dd25031914b8b9eull,
        0x3f9aace799b5efdcull, 0x3f9dbf517c40dcccull,
        0x3f7c22ced2940180ull, 0x3fc625742ad6db12ull,
        0x3f7cfbe43c800e04ull, 0x3fca62f03ff1997eull,
        0x3d727136abf52687ull, 0x0000000000000000ull},
       1},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(scheme_name(g.scheme));
    const Characterization c = characterize(table1_spec(), g.scheme);
    const double fields[] = {c.delay_hl_s,        c.delay_lh_s,
                             c.active_leakage_w,  c.idle_leakage_w,
                             c.standby_leakage_w, c.dynamic_power_w,
                             c.control_power_w,   c.total_power_w,
                             c.sleep_entry_energy_j, c.wakeup_energy_j};
    EXPECT_EQ(c.scheme, g.scheme);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(bits_of(fields[i]), g.field[i]) << "field " << i;
    }
    EXPECT_EQ(c.min_idle_cycles, g.min_idle_cycles);
  }
}

}  // namespace
}  // namespace lain::xbar
