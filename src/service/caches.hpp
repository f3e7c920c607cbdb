// Content hashing for the `ril serve` daemon.
//
// The daemon keeps no state across requests other than its job table and
// journal: every job parses its own netlists and encodes its own miter.
// content_hash_hex names a netlist's content in job payloads
// (`<field>_hash`), so a client can tell which circuit a job ran on.
#pragma once

#include <string>

namespace ril::service {

/// FNV-1a 64-bit over the raw bytes as a fixed-width lowercase hex string.
std::string content_hash_hex(const std::string& text);

}  // namespace ril::service
