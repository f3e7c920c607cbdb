// Read-only file contents for the netlist parsers.
//
// Regular files are mapped, so a parser's string_views alias the page
// cache instead of a heap copy of the whole file. Whatever mmap cannot
// serve (pipes, empty files, non-POSIX hosts) is read into a buffer. The
// bytes are the same either way, so parse errors are too.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace ril::netlist {

class FileBytes {
 public:
  /// Throws std::runtime_error "cannot open <path>" / "cannot read <path>".
  explicit FileBytes(const std::string& path);
  ~FileBytes();
  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;

  std::string_view view() const {
    return map_ != nullptr
               ? std::string_view(static_cast<const char*>(map_), size_)
               : std::string_view(text_);
  }

 private:
  void* map_ = nullptr;
  std::size_t size_ = 0;
  std::string text_;
};

}  // namespace ril::netlist
