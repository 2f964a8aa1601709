#include <string>
#include <string_view>

#include "harness/harness.h"
#include "obs/http.h"
#include "util/contracts.h"

namespace leakydsp::fuzz {

int fuzz_http(const std::uint8_t* data, std::size_t size) {
  const std::string_view request(reinterpret_cast<const char*>(data), size);
  const auto req = obs::parse_request_line(request);
  if (req.has_value()) {
    LD_ENSURE(req->method.find(' ') == std::string::npos &&
                  req->target.find(' ') == std::string::npos &&
                  req->target.starts_with(req->path),
              "request line split at the wrong place");
  }
  return 0;
}

}  // namespace leakydsp::fuzz
