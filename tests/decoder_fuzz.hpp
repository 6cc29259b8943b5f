#pragma once
// Seeded fuzzing of strict decoders, shared by the test binaries. A strict
// decoder maps every input to kCorrupt, or to a value whose encoding is the
// input again, byte for byte; it never throws. `reencode` decodes its input
// and encodes the result again, returning a StatusOr<std::string>.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "util/artifact.hpp"
#include "util/rng.hpp"

namespace drcshap::fuzz {

/// Re-encodes an exactly sized heap copy of `input`, so AddressSanitizer
/// reports any read past its end, and checks the invariant above. Returns
/// whether the input decoded.
template <typename Reencode>
bool reencodes_exactly(const std::string& input, Reencode reencode) {
  const std::unique_ptr<char[]> copy(new char[input.size()]);
  std::memcpy(copy.get(), input.data(), input.size());
  bool ok = false;
  EXPECT_NO_THROW({
    const StatusOr<std::string> again =
        reencode(std::string_view(copy.get(), input.size()));
    ok = again.ok();
    if (ok) {
      EXPECT_EQ(again.value(), input);
    } else {
      EXPECT_EQ(again.status().code(), StatusCode::kCorrupt);
    }
  });
  return ok;
}

/// `valid` decodes; a trailing byte and every truncation are kCorrupt; and
/// 2 000 seeded flips of 1-3 bytes each keep the invariant.
template <typename Reencode>
void truncations_and_flips(const std::string& valid, Rng& rng,
                           Reencode reencode) {
  EXPECT_TRUE(reencodes_exactly(valid, reencode));
  EXPECT_FALSE(reencodes_exactly(valid + '\0', reencode));
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(reencodes_exactly(valid.substr(0, len), reencode));
  }
  for (int trial = 0; trial < 2000; ++trial) {
    std::string flipped = valid;
    for (std::size_t flips = 1 + rng.index(3); flips > 0; --flips) {
      flipped[rng.index(flipped.size())] ^=
          static_cast<char>(1 + rng.index(255));
    }
    reencodes_exactly(flipped, reencode);
  }
}

}  // namespace drcshap::fuzz
