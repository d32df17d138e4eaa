#include "via/slot_ring.h"

namespace vialock::via {

KStatus SlotRing::open(Vipl& vipl, ViId vi, simkern::VAddr base,
                       std::uint64_t len, std::uint32_t slot_size,
                       std::uint32_t first, std::uint32_t count,
                       std::uint64_t tag, KernelAgent::RegisterOptions opts) {
  close();
  MemHandle mh;
  if (const KStatus st = vipl.register_mem(base, len, mh, opts); !ok(st))
    return st;
  s_ = State{&vipl, vi, base, mh, slot_size, first, tag};
  std::vector<Vipl::RecvPost> posts;
  posts.reserve(count);
  for (std::uint32_t k = 0; k < count; ++k)
    posts.push_back({mh, addr(first + k), slot_size, tag | k});
  const KStatus st = vipl.post_recv_batch(vi, posts);
  if (!ok(st)) close();
  return st;
}

void SlotRing::close() {
  if (s_.vipl == nullptr) return;
  s_.vipl->nic().clear_queues(s_.vi);
  (void)s_.vipl->deregister_mem(s_.mh);
  s_.vipl = nullptr;
}

}  // namespace vialock::via
