// libFuzzer target for the exposition server's HTTP request-line parser.
#include <cstddef>
#include <cstdint>

#include "harness/harness.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return leakydsp::fuzz::fuzz_http(data, size);
}
