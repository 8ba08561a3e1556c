#ifndef CARP_BENCH_FLAGS_H_
#define CARP_BENCH_FLAGS_H_

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

namespace carp::bench {

/// The text after `prefix` when `arg` starts with it ("--out=FILE" ->
/// "FILE"), else nullptr.
inline const char* FlagValue(const std::string& arg, const char* prefix) {
  const std::string p = prefix;
  return arg.rfind(p, 0) == 0 ? arg.c_str() + p.size() : nullptr;
}

/// Splits a comma-separated flag value, dropping empty items.
inline std::vector<std::string> SplitList(const char* value) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = value;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur += *p;
    }
  }
  return out;
}

/// Every bench driver ends its flag loop here: an unknown flag prints the
/// accepted ones and exits 2, so a stale or misspelled flag can never
/// quietly measure the defaults.
[[noreturn]] inline void RejectFlag(const std::string& arg,
                                    const char* usage) {
  std::cerr << "unknown flag: " << arg << "\n" << usage;
  std::exit(2);
}

}  // namespace carp::bench

#endif  // CARP_BENCH_FLAGS_H_
