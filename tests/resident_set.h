// Resident-set probe shared by the footprint tests: the process's resident
// bytes from /proc/self/statm, available on Linux builds without ASan/TSan
// (sanitizer shadow memory and redzones grow with the application's own
// allocations, so the resident set no longer measures the code under test).
#ifndef RWLE_TESTS_RESIDENT_SET_H_
#define RWLE_TESTS_RESIDENT_SET_H_

#include <unistd.h>

#include <cstdint>
#include <fstream>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RWLE_RSS_IS_INSTRUMENTED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RWLE_RSS_IS_INSTRUMENTED 1
#endif
#endif

namespace rwle {

#if defined(__linux__) && !defined(RWLE_RSS_IS_INSTRUMENTED)
inline std::int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0;
  std::int64_t resident = 0;
  statm >> size >> resident;
  return resident * sysconf(_SC_PAGESIZE);
}
#endif

}  // namespace rwle

#endif  // RWLE_TESTS_RESIDENT_SET_H_
