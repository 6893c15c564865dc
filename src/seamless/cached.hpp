// Setup-cache adapter for compiled Seamless engines (DESIGN.md §10).
// Engine construction runs the whole front end (lex/parse), and each Engine
// keeps its own per-signature JIT cache; service clients resubmitting the
// same source text — the common case for a shared analysis function — hit
// the cache and share one immutable-module Engine per distinct program.
//
// The key is a fingerprint of the *source text*, so textually identical
// programs share and any edit (even whitespace) rebuilds — cheap, exact,
// and never stale. Callers needing independent interpreter state must
// construct their own Engine; the cached one is for shared compiled
// artifacts.
#pragma once

#include <memory>

#include "seamless/seamless.hpp"
#include "util/setup_cache.hpp"
#include "util/string_util.hpp"

namespace pyhpc::seamless {

inline std::uint64_t source_fingerprint(const std::string& source) {
  util::Fingerprint fp;
  fp.mix(source.size());
  fp.mix_bytes(source.data(), source.size());
  return fp.digest();
}

inline std::shared_ptr<Engine> cached_engine(util::SetupCache& cache,
                                             const std::string& source) {
  const std::string key = util::cat("seamless:", source_fingerprint(source));
  return cache.get_or_build<Engine>(
      key, [&] { return std::make_shared<Engine>(source); });
}

}  // namespace pyhpc::seamless
