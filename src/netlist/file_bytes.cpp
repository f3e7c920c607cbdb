#include "netlist/file_bytes.hpp"

#include <fstream>
#include <iterator>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define RIL_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace ril::netlist {

FileBytes::FileBytes(const std::string& path) {
#if RIL_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } fd_guard{fd};
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    const auto size = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      map_ = map;
      size_ = size;
      return;
    }
  }
  char chunk[1 << 16];
  ssize_t got;
  while ((got = ::read(fd, chunk, sizeof(chunk))) > 0) {
    text_.append(chunk, static_cast<std::size_t>(got));
  }
  if (got < 0) throw std::runtime_error("cannot read " + path);
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  text_.assign(std::istreambuf_iterator<char>(in), {});
#endif
}

FileBytes::~FileBytes() {
#if RIL_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

}  // namespace ril::netlist
