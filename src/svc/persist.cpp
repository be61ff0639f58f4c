#include "svc/persist.hpp"

#include <memory>
#include <utility>

#include "io/codec.hpp"
#include "svc/fingerprint.hpp"

namespace rat::svc {

PersistentResultCache::PersistentResultCache(
    const std::filesystem::path& dir)
    : store_(dir) {}

std::size_t PersistentResultCache::warm(ResultCache& cache) {
  std::size_t loaded = 0;
  store_.for_each([&](const std::string& key, const std::string& value) {
    auto predictions =
        std::make_shared<const std::vector<core::ThroughputPrediction>>(
            io::decode_predictions(value));
    cache.put(key, fnv1a64(key), std::move(predictions));
    ++loaded;
  });
  return loaded;
}

void PersistentResultCache::append(const std::string& key,
                                   const ResultCache::Value& value) {
  store_.put(key, io::encode_predictions(*value));
}

}  // namespace rat::svc
