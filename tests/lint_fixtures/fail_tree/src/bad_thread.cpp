// Fixture: a hand-rolled worker pool — single-thread-pool must flag the
// std::thread on line 12 and the std::async on line 15, and nothing else.
#include <future>
#include <thread>
#include <vector>

namespace fixture {

int racy_pool() {
  const unsigned hw = std::thread::hardware_concurrency();  // allowed
  const std::thread::id self = std::this_thread::get_id();  // allowed
  std::vector<std::thread> pool;                            // line 12
  (void)hw;
  (void)self;
  auto f = std::async([] { return 1; });                    // line 15
  return f.get() + static_cast<int>(pool.size());
}

}  // namespace fixture
