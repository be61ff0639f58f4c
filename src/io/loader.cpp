#include "io/loader.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace rat::io {

namespace {

core::Diagnostic io_diagnostic(const std::filesystem::path& path,
                               const std::string& message) {
  return {path.string(), 0, 0, core::ParseErrorCode::kIoError, "", message};
}

}  // namespace

std::string read_worksheet_text(const std::filesystem::path& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec))
    throw core::ParseError(
        io_diagnostic(path, ec ? "cannot stat file: " + ec.message()
                               : "not a regular file"));
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw core::ParseError(io_diagnostic(path, "cannot open file"));
  std::ostringstream os;
  os << f.rdbuf();
  if (f.bad())
    throw core::ParseError(io_diagnostic(path, "read error"));
  return os.str();
}

core::RatInputs parse_worksheet_text(const std::string& text,
                                     const std::string& origin) {
  core::RatInputs in = core::RatInputs::parse(text, origin);
  try {
    in.validate();
  } catch (const std::invalid_argument& e) {
    // The worksheet parsed but a value is outside its documented domain;
    // keep the file context so batch diagnostics stay actionable.
    throw core::ParseError({origin, 0, 0,
                            core::ParseErrorCode::kInvalidValue, "",
                            e.what()});
  }
  return in;
}

core::RatInputs load_worksheet(const std::filesystem::path& path) {
  return parse_worksheet_text(read_worksheet_text(path), path.string());
}

std::vector<std::filesystem::path> list_worksheets(
    const std::filesystem::path& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec))
    throw core::ParseError(
        io_diagnostic(dir, ec ? "cannot stat directory: " + ec.message()
                              : "not a directory"));

  std::vector<std::filesystem::path> files;
  const std::filesystem::directory_iterator end;
  for (std::filesystem::directory_iterator it(dir, ec); !ec && it != end;
       it.increment(ec)) {
    std::error_code type_ec;  // e.g. a dangling symlink: not a worksheet
    if (it->is_regular_file(type_ec) &&
        it->path().extension() == kWorksheetExtension)
      files.push_back(it->path());
  }
  if (ec)
    throw core::ParseError(
        io_diagnostic(dir, "cannot read directory: " + ec.message()));
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace rat::io
