// Worksheet file and directory loading.
//
// The paper's workflow is worksheet-driven: "users simply provide the
// input parameters and the resulting performance values are returned"
// (§4). This layer turns worksheet *files* into validated RatInputs with
// structured diagnostics (io/diagnostics.hpp): load_worksheet throws a
// core::ParseError whose Diagnostic names the file, line and column.
// list_worksheets only names the files of a worksheet directory; the
// batch runner (io/batch.hpp) loads them, one diagnostic per bad file.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "core/parameters.hpp"
#include "io/diagnostics.hpp"

namespace rat::io {

/// Extension a worksheet file must carry to be picked up by
/// list_worksheets (load_worksheet itself accepts any path).
inline constexpr const char* kWorksheetExtension = ".rat";

/// Read, parse and validate one worksheet file. Throws core::ParseError
/// for unreadable files (E_IO), grammar violations (with file:line:column)
/// and values rejected by RatInputs::validate() (E_INVALID_VALUE).
core::RatInputs load_worksheet(const std::filesystem::path& path);

/// The two halves of load_worksheet, for callers that need only one: the
/// service parses inline request text, and load mixes (load/mix.hpp)
/// replay a file's raw bytes. read throws E_IO; parse throws the same
/// grammar / E_INVALID_VALUE diagnostics as load_worksheet, attributed
/// to @p origin.
std::string read_worksheet_text(const std::filesystem::path& path);
core::RatInputs parse_worksheet_text(const std::string& text,
                                     const std::string& origin);

/// Every regular "*.rat" file directly inside @p dir (not recursive),
/// sorted by path so the order is deterministic across platforms. Reads
/// no file. Throws core::ParseError (E_IO) when the directory is missing
/// or cannot be read.
std::vector<std::filesystem::path> list_worksheets(
    const std::filesystem::path& dir);

}  // namespace rat::io
