#include "util/parallel.h"

#include <thread>
#include <vector>

namespace tpm {

void RunOnWorkers(uint32_t n, const std::function<void(uint32_t)>& fn) {
  std::vector<std::thread> helpers;
  helpers.reserve(n > 1 ? n - 1 : 0);
  for (uint32_t k = 1; k < n; ++k) helpers.emplace_back([&fn, k] { fn(k); });
  fn(0);
  for (std::thread& t : helpers) t.join();
}

}  // namespace tpm
