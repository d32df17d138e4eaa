#include "via/vipl.h"

namespace vialock::via {

KStatus Vipl::open() {
  tag_ = agent_.create_ptag(pid_);
  return tag_ == kInvalidTag ? KStatus::NoEnt : KStatus::Ok;
}

KStatus Vipl::register_mem(simkern::VAddr addr, std::uint64_t len,
                           MemHandle& out, KernelAgent::RegisterOptions opts) {
  if (tag_ == kInvalidTag) return KStatus::Proto;
  return agent_.register_mem(pid_, addr, len, tag_, out, opts);
}

KStatus Vipl::deregister_mem(const MemHandle& handle) {
  return agent_.deregister_mem(handle);
}

KStatus Vipl::create_vi(ViId& out, ViAttributes attrs) {
  out = kInvalidVi;
  if (tag_ == kInvalidTag) return KStatus::Proto;
  const ViId id = agent_.nic().create_vi(
      tag_, attrs.reliability == Reliability::Reliable);
  if (id == kInvalidVi) return KStatus::NoSpc;
  out = id;
  return KStatus::Ok;
}

Descriptor Vipl::build(DescOp op, DataSegment local, std::uint64_t cookie) {
  agent_.kern().clock().advance(agent_.kern().costs().descriptor_build);
  Descriptor d;
  d.cookie = cookie;
  d.op = op;
  d.local = local;
  return d;
}

KStatus Vipl::post_send(ViId vi, const MemHandle& mh, simkern::VAddr addr,
                        std::uint32_t len, std::uint64_t cookie) {
  Descriptor d = build(DescOp::Send, {mh, addr, len}, cookie);
  return agent_.nic().post_send(vi, std::span(&d, 1));
}

KStatus Vipl::post_recv(ViId vi, const MemHandle& mh, simkern::VAddr addr,
                        std::uint32_t len, std::uint64_t cookie) {
  Descriptor d = build(DescOp::Recv, {mh, addr, len}, cookie);
  return agent_.nic().post_recv(vi, std::span(&d, 1));
}

KStatus Vipl::rdma_write(ViId vi, const MemHandle& local_mh,
                         simkern::VAddr local_addr, std::uint32_t len,
                         const MemHandle& remote_mh, simkern::VAddr remote_addr,
                         std::uint64_t cookie,
                         std::optional<std::uint32_t> immediate) {
  Descriptor d = build(DescOp::RdmaWrite, {local_mh, local_addr, len}, cookie);
  d.remote = RemoteSegment{remote_mh, remote_addr};
  if (immediate) {
    d.immediate = *immediate;
    d.has_immediate = true;
  }
  return agent_.nic().post_send(vi, std::span(&d, 1));
}

KStatus Vipl::rdma_read(ViId vi, const MemHandle& local_mh,
                        simkern::VAddr local_addr, std::uint32_t len,
                        const MemHandle& remote_mh, simkern::VAddr remote_addr,
                        std::uint64_t cookie) {
  Descriptor d = build(DescOp::RdmaRead, {local_mh, local_addr, len}, cookie);
  d.remote = RemoteSegment{remote_mh, remote_addr};
  return agent_.nic().post_send(vi, std::span(&d, 1));
}

KStatus Vipl::post_send_batch(ViId vi, std::span<const SendPost> posts) {
  batch_.clear();
  for (const SendPost& p : posts)
    batch_.push_back(build(DescOp::Send, {p.mh, p.addr, p.len}, p.cookie));
  return agent_.nic().post_send(vi, batch_);
}

KStatus Vipl::post_recv_batch(ViId vi, std::span<const RecvPost> posts) {
  batch_.clear();
  for (const RecvPost& p : posts)
    batch_.push_back(build(DescOp::Recv, {p.mh, p.addr, p.len}, p.cookie));
  return agent_.nic().post_recv(vi, batch_);
}

std::optional<Descriptor> Vipl::send_done(ViId vi) {
  return agent_.nic().poll_send(vi);
}

std::optional<Descriptor> Vipl::recv_done(ViId vi) {
  return agent_.nic().poll_recv(vi);
}

std::optional<Descriptor> Vipl::send_wait(ViId vi) {
  auto d = agent_.nic().poll_send(vi);
  if (d) agent_.kern().clock().advance(agent_.kern().costs().interrupt_wakeup);
  return d;
}

std::optional<Descriptor> Vipl::recv_wait(ViId vi) {
  auto d = agent_.nic().poll_recv(vi);
  if (d) agent_.kern().clock().advance(agent_.kern().costs().interrupt_wakeup);
  return d;
}

}  // namespace vialock::via
