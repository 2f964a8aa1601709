// Tests for classical difference-of-means DPA.
#include <gtest/gtest.h>

#include <vector>

#include "attack/cpa.h"
#include "attack/dpa.h"
#include "crypto/aes128.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace la = leakydsp::attack;
namespace lc = leakydsp::crypto;
namespace lv = leakydsp::victim;
namespace lu = leakydsp::util;

namespace {

lc::Block random_block(lu::Rng& rng) {
  lc::Block b;
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng() & 0xff);
  return b;
}

}  // namespace

TEST(Dpa, RecoversKeyFromStrongLeakage) {
  lu::Rng rng(1601);
  const lc::Key key = random_block(rng);
  const lc::Aes128 aes(key);
  la::DpaAttack dpa(1);
  lc::Block pt = random_block(rng);
  for (int t = 0; t < 6000; ++t) {
    const auto trace = aes.encrypt_trace(pt);
    const double leak =
        -static_cast<double>(lv::block_hd(trace.states[9], trace.states[10]));
    dpa.add_trace(trace.ciphertext,
                  std::vector<double>{leak + rng.gaussian(0.0, 2.0)});
    pt = trace.ciphertext;
  }
  EXPECT_EQ(dpa.recovered_round_key(), aes.round_keys()[10]);
}

TEST(Dpa, WeakerThanCpaAtSameTraceCount) {
  // At a trace count where CPA is already solid, single-bit DPA recovers
  // fewer bytes — the statistical gap between using 1 and 8 hypothesis
  // bits.
  lu::Rng rng(1602);
  const lc::Key key = random_block(rng);
  const lc::Aes128 aes(key);
  la::DpaAttack dpa(1);
  la::CpaAttack cpa(1);
  lc::Block pt = random_block(rng);
  const double sigma = 10.0;
  for (int t = 0; t < 2500; ++t) {
    const auto trace = aes.encrypt_trace(pt);
    const double leak =
        -static_cast<double>(lv::block_hd(trace.states[9], trace.states[10])) +
        rng.gaussian(0.0, sigma);
    dpa.add_trace(trace.ciphertext, std::vector<double>{leak});
    cpa.add_trace(trace.ciphertext, std::vector<double>{leak});
    pt = trace.ciphertext;
  }
  int dpa_correct = 0;
  int cpa_correct = 0;
  const auto& truth = aes.round_keys()[10];
  const auto cpa_rk = cpa.recovered_round_key();
  const auto dpa_rk = dpa.recovered_round_key();
  for (int b = 0; b < 16; ++b) {
    if (cpa_rk[static_cast<std::size_t>(b)] ==
        truth[static_cast<std::size_t>(b)]) {
      ++cpa_correct;
    }
    if (dpa_rk[static_cast<std::size_t>(b)] ==
        truth[static_cast<std::size_t>(b)]) {
      ++dpa_correct;
    }
  }
  EXPECT_GT(cpa_correct, dpa_correct);
  EXPECT_GE(cpa_correct, 14);
}

TEST(Dpa, TargetBitSelectable) {
  for (const int bit : {0, 3, 7}) {
    EXPECT_NO_THROW(la::DpaAttack(4, bit));
  }
  EXPECT_THROW(la::DpaAttack(4, 8), lu::PreconditionError);
  EXPECT_THROW(la::DpaAttack(0, 0), lu::PreconditionError);
}

TEST(Dpa, Contracts) {
  la::DpaAttack dpa(2);
  EXPECT_THROW(dpa.add_trace(lc::Block{}, std::vector<double>(1)),
               lu::PreconditionError);
  EXPECT_THROW(dpa.snapshot_byte(0), lu::PreconditionError);  // no traces
  EXPECT_THROW(dpa.snapshot_byte(16), lu::PreconditionError);
}
