// kv_proto.h - the wire protocol of the zero-copy KV service tier.
//
// One-round-trip RPC in the HERD mould: every request is a single eager
// message carrying a fixed POD header; small values ride inline behind the
// header, large values move by rendezvous - the request names the client's
// registered window ("communicated out of band", VIA style) and the server
// moves the bytes with one RDMA write (GET) or read (PUT) straight between
// the client window and its value arena, skipping the eager copy entirely.
//
// Integrity: value bytes are covered end-to-end by fault::checksum32
// (FNV-1a over 64-bit little-endian words, folded to 32 bits; a change
// confined to one word is missed with probability about 2^-32 at most, and
// never when it lies in the word's upper four bytes), carried in the header
// (PUT) or the response (GET). A DMA or wire bit-flip anywhere on the path -
// including mid-rendezvous - fails the request cleanly (KvStatus::Corrupt)
// instead of silently storing or returning garbage; headers themselves are
// validated by magic + length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "simkern/types.h"
#include "via/descriptor.h"
#include "via/memory_handle.h"

namespace vialock::svc {

inline constexpr std::uint32_t kReqMagic = 0x4B565251u;  // "KVRQ"
inline constexpr std::uint32_t kRspMagic = 0x4B565250u;  // "KVRP"

enum class KvOp : std::uint8_t { Get, Put };

[[nodiscard]] constexpr std::string_view to_string(KvOp op) {
  switch (op) {
    case KvOp::Get: return "GET";
    case KvOp::Put: return "PUT";
  }
  return "?";
}

enum class KvStatus : std::uint8_t {
  Ok,
  NotFound,          ///< GET of an absent key
  BadRequest,        ///< malformed header (magic / length) - counted, dropped
  ValueTooLarge,     ///< value exceeds the slot (inline) or window (rendezvous)
  NoSpace,           ///< the tenant's value arena is exhausted
  RendezvousFailed,  ///< window registration rejected or RDMA leg failed
  Corrupt,           ///< value checksum mismatch: the payload was damaged
};

[[nodiscard]] constexpr std::string_view to_string(KvStatus s) {
  switch (s) {
    case KvStatus::Ok: return "OK";
    case KvStatus::NotFound: return "NOT_FOUND";
    case KvStatus::BadRequest: return "BAD_REQUEST";
    case KvStatus::ValueTooLarge: return "VALUE_TOO_LARGE";
    case KvStatus::NoSpace: return "NO_SPACE";
    case KvStatus::RendezvousFailed: return "RENDEZVOUS_FAILED";
    case KvStatus::Corrupt: return "CORRUPT";
  }
  return "?";
}

/// Request header, at the front of the request slot. `value_len` bytes of
/// value follow inline when `op == Put` and the value is small enough;
/// otherwise `window`/`window_addr` name where the value lives (PUT) or
/// belongs (GET) in the client's registered memory.
struct KvRequest {
  std::uint32_t magic = kReqMagic;
  KvOp op = KvOp::Get;
  std::uint8_t rendezvous = 0;  ///< value moves by RDMA, not inline
  std::uint8_t pad[2] = {};
  std::uint64_t req_id = 0;     ///< echoed in the response (pipelining)
  std::uint64_t key = 0;
  std::uint32_t value_len = 0;  ///< PUT: value bytes; GET: window capacity
  std::uint32_t value_crc = 0;  ///< PUT: checksum32 of the value bytes
  via::MemHandle window;        ///< client's registered value window (POD)
  simkern::VAddr window_addr = 0;
};
static_assert(std::is_trivially_copyable_v<KvRequest>);

/// Response header, at the front of the response slot. A small GET value
/// follows inline; a rendezvous GET's value has already been RDMA-written
/// into the client window by the time this header arrives (the fabric
/// preserves ordering on one VI).
struct KvResponse {
  std::uint32_t magic = kRspMagic;
  KvStatus status = KvStatus::Ok;
  std::uint8_t rendezvous = 0;
  std::uint8_t pad[2] = {};
  std::uint64_t req_id = 0;
  std::uint32_t value_len = 0;
  std::uint32_t value_crc = 0;  ///< GET: checksum32 of the value bytes
};
static_assert(std::is_trivially_copyable_v<KvResponse>);

/// Completion-cookie layout: bit 63 marks an RDMA leg (keyed by sequence);
/// replies and posted request recvs carry (generation << 32 | slot) so a
/// completion of a dead connection's previous incarnation is recognisable on
/// a reused VI. Client and server must agree on it.
inline constexpr std::uint64_t kRdmaBit = 1ULL << 63;

[[nodiscard]] constexpr std::uint64_t cookie_of(std::uint32_t gen,
                                                std::uint32_t slot) {
  return (static_cast<std::uint64_t>(gen & 0x7FFFFFFFu) << 32) | slot;
}

[[nodiscard]] constexpr bool gen_matches(std::uint64_t cookie,
                                         std::uint32_t gen) {
  return (cookie >> 32) == (gen & 0x7FFFFFFFu);
}

/// A reset element of `items` to reuse: an index off `free`, else a new one
/// at the end.
template <typename T>
[[nodiscard]] std::uint32_t claim(std::vector<T>& items,
                                  std::vector<std::uint32_t>& free) {
  if (free.empty()) {
    items.emplace_back();
    return static_cast<std::uint32_t>(items.size() - 1);
  }
  const std::uint32_t id = free.back();
  free.pop_back();
  items[id] = T{};
  return id;
}

/// Which connection owns each VI, for routing completions. Nic::create_vi
/// hands out dense ids, so the map is a flat table indexed by ViId: kNoConn
/// marks a VI with no live connection, and a ViId beyond the table (a VI
/// this side never connected) finds kNoConn too.
class ViConnTable {
 public:
  static constexpr std::uint32_t kNoConn = UINT32_MAX;

  void bind(via::ViId vi, std::uint32_t conn) {
    if (vi >= conn_.size()) conn_.resize(std::size_t{vi} + 1, kNoConn);
    conn_[vi] = conn;
  }
  /// `vi` must be bound.
  void unbind(via::ViId vi) { conn_.at(vi) = kNoConn; }
  [[nodiscard]] std::uint32_t find(via::ViId vi) const {
    return vi < conn_.size() ? conn_[vi] : kNoConn;
  }

 private:
  std::vector<std::uint32_t> conn_;
};

}  // namespace vialock::svc
