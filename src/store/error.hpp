// Error taxonomy for the durable store.
//
// Mirrors the spirit of the worksheet E_* codes (io/diagnostics.hpp)
// without depending on the io layer: the store sits at the bottom of the
// stack, so it carries its own structured error with a stable E_* name,
// the path involved, and a human message. Consumers (rat_serve's result
// cache, the design-space explorer's plan cache) surface the rendered
// form verbatim.
#pragma once

#include <stdexcept>
#include <string>

namespace rat::store {

enum class StoreErrorCode {
  kIo,       ///< open/read/write/fsync/rename failed
  kCorrupt,  ///< snapshot or value bytes fail validation
};

constexpr const char* store_error_code_name(StoreErrorCode code) {
  switch (code) {
    case StoreErrorCode::kIo: return "E_IO";
    case StoreErrorCode::kCorrupt: return "E_STORE_CORRUPT";
  }
  return "E_STORE_CORRUPT";
}

class StoreError : public std::runtime_error {
 public:
  StoreError(StoreErrorCode code, std::string path, const std::string& message)
      : std::runtime_error(std::string(store_error_code_name(code)) + ": " +
                           (path.empty() ? message : path + ": " + message)),
        code_(code),
        path_(std::move(path)) {}

  StoreErrorCode code() const { return code_; }
  const std::string& path() const { return path_; }

 private:
  StoreErrorCode code_;
  std::string path_;
};

}  // namespace rat::store
