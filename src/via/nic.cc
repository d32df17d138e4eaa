#include "via/nic.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "via/fabric.h"

namespace vialock::via {

Nic::Nic(simkern::Kernel& host, Clock& clock, const CostModel& costs,
         NicConfig config)
    : host_(host),
      clock_(clock),
      costs_(costs),
      config_(config),
      tpt_(config.tpt_entries),
      dma_bytes_(host.metrics().histogram("via.nic.dma_bytes")),
      descs_per_ring_(host.metrics().histogram("via.nic.descs_per_ring")) {
  host_.metrics().register_source("via.nic", this, [this](obs::MetricSink& s) {
    s.counter("doorbells", stats_.doorbells);
    s.counter("sends_posted", stats_.sends_posted);
    s.counter("recvs_posted", stats_.recvs_posted);
    s.counter("sends_ok", stats_.sends_ok);
    s.counter("recvs_ok", stats_.recvs_ok);
    s.counter("rdma_writes", stats_.rdma_writes);
    s.counter("rdma_reads", stats_.rdma_reads);
    s.counter("protection_errors", stats_.protection_errors);
    s.counter("no_recv_desc", stats_.no_recv_desc);
    s.counter("length_errors", stats_.length_errors);
    s.counter("bytes_tx", stats_.bytes_tx);
    s.counter("bytes_rx", stats_.bytes_rx);
    s.counter("tpt_writes", stats_.tpt_writes);
    s.counter("doorbell_batches", stats_.doorbell_batches);
    s.counter("cq_harvests", stats_.cq_harvests);
    s.counter("cq_harvested", stats_.cq_harvested);
    s.counter("doorbells_dropped", stats_.doorbells_dropped);
    s.counter("dma_corruptions", stats_.dma_corruptions);
    s.counter("tpt_corruptions", stats_.tpt_corruptions);
    s.counter("tpt_evictions", stats_.tpt_evictions);
    s.gauge("tpt.used", tpt_.used());
    s.gauge("tpt.free", tpt_.free_entries());
    s.gauge("tpt.free_extents", tpt_.free_extent_count());
    s.gauge("tpt.largest_free_run", tpt_.largest_free_run());
    s.gauge("vis", vis_.size());
  });
}

Nic::~Nic() { host_.metrics().unregister_source("via.nic", this); }

ViId Nic::create_vi(ProtectionTag tag, bool reliable) {
  if (vis_.size() >= config_.max_vis || tag == kInvalidTag) return kInvalidVi;
  Vi v;
  v.id = static_cast<ViId>(vis_.size());
  v.tag = tag;
  v.reliable = reliable;
  vis_.push_back(std::move(v));
  return vis_.back().id;
}

Vi& Nic::vi(ViId id) {
  assert(id < vis_.size());
  return vis_[id];
}

const Vi& Nic::vi(ViId id) const {
  assert(id < vis_.size());
  return vis_[id];
}

bool Nic::vi_exists(ViId id) const { return id < vis_.size(); }

void Nic::program_tpt(TptIndex idx, const TptEntry& e) {
  TptEntry programmed = e;
  if (faults_ && programmed.valid) {
    if (const auto d = faults_->check(fault::FaultSite::TptWrite)) {
      if (d->action == fault::FaultAction::Corrupt) {
        // SRAM bit-flip on the way in: the entry stays valid but points at a
        // different (in-range) frame - the silent wrong-DMA failure mode.
        const auto frames = host_.phys().num_frames();
        programmed.pfn = static_cast<simkern::Pfn>(
            (programmed.pfn ^ d->corrupt_mask) % frames);
        if (programmed.pfn == e.pfn) {
          programmed.pfn = (programmed.pfn + 1) % frames;
        }
        ++stats_.tpt_corruptions;
        host_.trace().record(clock_.now(), TraceEvent::DmaCorrupted, 0, idx,
                             programmed.pfn);
      } else if (d->action == fault::FaultAction::Fail ||
                 d->action == fault::FaultAction::Drop) {
        // Entry evicted/lost: later translations fail the validity check and
        // surface as protection errors.
        programmed.valid = false;
        ++stats_.tpt_evictions;
      }
    }
  }
  tpt_.set(idx, programmed);
  clock_.advance(costs_.pci_reg_write);
  ++stats_.tpt_writes;
}

void Nic::set_region(const MemHandle& mh) {
  if (mh.tpt_base >= regions_.size()) regions_.resize(mh.tpt_base + 1);
  regions_[mh.tpt_base] = mh.record();
}

void Nic::clear_region(TptIndex base) {
  if (base < regions_.size()) regions_[base] = RegionRecord{};
}

// ---------------------------------------------------------------------------
// The TPT walk: every DMA and PIO access to registered memory
// ---------------------------------------------------------------------------

template <typename Byte>
bool Nic::tpt_copy(TptIndex handle, simkern::VAddr addr, std::span<Byte> bytes,
                   ProtectionTag tag, TptAccess access) {
  const RegionRecord rec = region(handle);
  const auto base_off = rec.offset_of(addr, bytes.size());
  if (!base_off || rec.tag != tag) return false;
  std::uint64_t done = 0;
  while (done < bytes.size()) {
    const auto tr = tpt_.translate(handle, rec.tpt_count, *base_off + done,
                                   tag, access == TptAccess::RdmaWrite,
                                   access == TptAccess::RdmaRead);
    if (!tr) return false;
    const auto chunk = std::min<std::uint64_t>(
        bytes.size() - done, simkern::kPageSize - tr->page_offset);
    std::byte* frame = host_.phys().frame(tr->pfn).data() + tr->page_offset;
    if constexpr (std::is_const_v<Byte>) {
      std::memcpy(frame, bytes.data() + done, chunk);
    } else {
      std::memcpy(bytes.data() + done, frame, chunk);
    }
    done += chunk;
  }
  return true;
}

template bool Nic::tpt_copy(TptIndex, simkern::VAddr, std::span<std::byte>,
                            ProtectionTag, TptAccess);
template bool Nic::tpt_copy(TptIndex, simkern::VAddr,
                            std::span<const std::byte>, ProtectionTag,
                            TptAccess);

bool Nic::scatter(const DataSegment& seg, ProtectionTag tag,
                  std::span<const std::byte> data) {
  if (data.empty()) return true;
  if (!tpt_copy(seg.handle, seg.addr, data, tag, TptAccess::Local))
    return false;
  clock_.advance(costs_.dma_startup);  // streaming is charged on the path
  return true;
}

// ---------------------------------------------------------------------------
// Raw local DMA (locktest primitive)
// ---------------------------------------------------------------------------

KStatus Nic::dma_write_local(const MemHandle& mh, simkern::VAddr addr,
                             std::span<const std::byte> data) {
  if (!tpt_copy(mh.tpt_base, addr, data, mh.tag, TptAccess::Local)) {
    ++stats_.protection_errors;
    return KStatus::Fault;
  }
  clock_.advance(costs_.dma_startup);
  return KStatus::Ok;
}

KStatus Nic::dma_read_local(const MemHandle& mh, simkern::VAddr addr,
                            std::span<std::byte> out) {
  if (!tpt_copy(mh.tpt_base, addr, out, mh.tag, TptAccess::Local)) {
    ++stats_.protection_errors;
    return KStatus::Fault;
  }
  clock_.advance(costs_.dma_startup);
  return KStatus::Ok;
}

// ---------------------------------------------------------------------------
// Work queues
// ---------------------------------------------------------------------------

void Nic::complete_send(Vi& v, Descriptor desc, DescStatus st) {
  desc.status = st;
  if (st == DescStatus::Done) {
    desc.transferred = desc.local.length;
    ++stats_.sends_ok;
  } else if (v.reliable) {
    break_vi(v);
  }
  if (v.send_cq != kInvalidCq) {
    cqs_[v.send_cq].push_back(CqEntry{v.id, /*is_send=*/true, std::move(desc)});
  } else {
    v.send_completed.push_back(std::move(desc));
  }
}

void Nic::complete_recv(Vi& v, Descriptor desc) {
  if (v.recv_cq != kInvalidCq) {
    cqs_[v.recv_cq].push_back(CqEntry{v.id, /*is_send=*/false, std::move(desc)});
  } else {
    v.recv_completed.push_back(std::move(desc));
  }
}

CqId Nic::create_cq() {
  cqs_.emplace_back();
  return static_cast<CqId>(cqs_.size() - 1);
}

KStatus Nic::attach_send_cq(ViId vi_id, CqId cq) {
  if (!vi_exists(vi_id) || cq >= cqs_.size()) return KStatus::Inval;
  vis_[vi_id].send_cq = cq;
  return KStatus::Ok;
}

KStatus Nic::attach_recv_cq(ViId vi_id, CqId cq) {
  if (!vi_exists(vi_id) || cq >= cqs_.size()) return KStatus::Inval;
  vis_[vi_id].recv_cq = cq;
  return KStatus::Ok;
}

std::uint32_t Nic::poll_cq(CqId cq, std::uint32_t max,
                           std::vector<CqEntry>& out) {
  if (cq >= cqs_.size() || max == 0) return 0;
  clock_.advance(costs_.pci_reg_read);  // one tail read for the whole harvest
  ++stats_.cq_harvests;
  std::uint32_t n = 0;
  while (n < max && !cqs_[cq].empty()) {
    out.push_back(cqs_[cq].pop_front());
    ++n;
  }
  stats_.cq_harvested += n;
  return n;
}

void Nic::break_vi(Vi& v) { v.state = ViState::Error; }

KStatus Nic::post_send(ViId id, std::span<Descriptor> descs) {
  if (!vi_exists(id)) return KStatus::Inval;
  if (descs.empty()) return KStatus::Ok;
  const bool burst = descs.size() > 1;
  // Stitched under the originating send's trace (the ambient context the
  // transport pushed): doorbell ring -> descriptor fetch -> DMA gather ->
  // wire (fabric.cc) -> remote scatter (deliver()).
  const obs::ScopedSpan post_span(
      host_.spans(), burst ? "via.post_send_batch" : "via.post_send");
  {
    const obs::ScopedSpan doorbell_span(host_.spans(), "via.doorbell");
    // One MMIO ring announces the chain; the engine still fetches each
    // descriptor (dma_startup apiece), so only the doorbell amortises.
    clock_.advance(costs_.doorbell +
                   costs_.dma_startup * static_cast<Nanos>(descs.size()));
  }
  ++stats_.doorbells;
  stats_.sends_posted += descs.size();
  if (burst) {
    ++stats_.doorbell_batches;
    descs_per_ring_.add(descs.size());
  }
  // Loss semantics: the chain lives in host memory, so a fault costs
  // exactly the descriptor whose fetch it covered - the engine
  // resynchronises on the chain's next link and the remaining descriptors
  // still post (NicBatchTest.MidBurstDrop*).
  for (const Descriptor& desc : descs) {
    if (doorbell_dropped()) continue;  // this descriptor alone is lost
    submit_send(id, desc);
  }
  return KStatus::Ok;
}

bool Nic::doorbell_dropped() {
  // Injected doorbell drop: the posted write to the doorbell register is
  // lost, so the NIC never fetches the descriptor. No completion is ever
  // produced - the caller's poll loop sees silence, exactly like real
  // hardware with a flaky PCI posting path.
  if (!faults_) return false;
  const auto d = faults_->check(fault::FaultSite::NicDoorbell);
  if (!d || (d->action != fault::FaultAction::Drop &&
             d->action != fault::FaultAction::Fail)) {
    return false;
  }
  ++stats_.doorbells_dropped;
  return true;
}

void Nic::submit_send(ViId id, Descriptor desc) {
  Vi& v = vis_[id];
  if (!v.connected()) {
    complete_send(v, desc, DescStatus::ErrDisconnected);
    return;
  }

  Packet pkt;
  pkt.src_node = node_id_;
  pkt.src_vi = id;
  pkt.dst_vi = v.peer_vi;
  pkt.op = desc.op;
  pkt.remote = desc.remote;
  pkt.immediate = desc.immediate;
  pkt.has_immediate = desc.has_immediate;
  // Send / RdmaWrite gather into the payload; an RdmaRead's read-back
  // lands in it. The staging buffer only grows, so once it has held the
  // largest packet no packet allocates.
  const DataSegment& seg = desc.local;
  if (seg.length > staging_.size()) staging_.resize(seg.length);
  pkt.payload = std::span(staging_).first(seg.length);

  if (desc.op != DescOp::RdmaRead) {
    // Gather the local segment under this VI's tag.
    const obs::ScopedSpan gather_span(host_.spans(), "via.dma.gather");
    if (!tpt_copy(seg.handle, seg.addr, pkt.payload, v.tag,
                  TptAccess::Local)) {
      ++stats_.protection_errors;
      complete_send(v, desc, DescStatus::ErrProtection);
      return;
    }
    clock_.advance(costs_.dma_startup);  // streaming is charged on the path
    stats_.bytes_tx += pkt.payload.size();

    // Injected DMA faults: a bit-flip in the gathered payload (silent - the
    // checksum layer above must catch it) or an engine latency spike.
    if (faults_ && !pkt.payload.empty()) {
      if (const auto d = faults_->check(fault::FaultSite::NicDma)) {
        if (d->action == fault::FaultAction::Corrupt) {
          const std::size_t pos = d->entropy % pkt.payload.size();
          pkt.payload[pos] ^= static_cast<std::byte>(d->corrupt_mask);
          ++stats_.dma_corruptions;
          host_.trace().record(clock_.now(), TraceEvent::DmaCorrupted, 0, pos,
                               0);
        } else if (d->action == fault::FaultAction::Delay) {
          clock_.advance(d->delay);
          ++stats_.dma_delays;
        }
      }
    }
  }

  assert(fabric_ && "NIC not attached to a fabric");
  const DescStatus st = fabric_->transmit(pkt);

  if (desc.op == DescOp::RdmaRead && st == DescStatus::Done) {
    stats_.bytes_rx += pkt.payload.size();
    ++stats_.rdma_reads;
    if (!scatter(seg, v.tag, pkt.payload)) {
      ++stats_.protection_errors;
      complete_send(v, desc, DescStatus::ErrProtection);
      return;
    }
  }
  if (desc.op == DescOp::RdmaWrite && st == DescStatus::Done) {
    ++stats_.rdma_writes;
  }
  complete_send(v, desc, st);
}

KStatus Nic::post_recv(ViId id, std::span<Descriptor> descs) {
  if (!vi_exists(id)) return KStatus::Inval;
  if (descs.empty()) return KStatus::Ok;
  Vi& v = vis_[id];
  // One MMIO ring arms the whole chain; receive descriptors are fetched
  // lazily on packet arrival, so there is no per-entry engine work here.
  clock_.advance(costs_.doorbell);
  ++stats_.doorbells;
  stats_.recvs_posted += descs.size();
  if (descs.size() > 1) {
    ++stats_.doorbell_batches;
    descs_per_ring_.add(descs.size());
  }
  for (Descriptor& desc : descs) {
    desc.op = DescOp::Recv;
    desc.status = DescStatus::Pending;
    v.recv_queue.push_back(std::move(desc));
  }
  return KStatus::Ok;
}

std::optional<Descriptor> Nic::poll_send(ViId id) {
  return poll_completed(id, &Vi::send_completed);
}

std::optional<Descriptor> Nic::poll_recv(ViId id) {
  return poll_completed(id, &Vi::recv_completed);
}

void Nic::clear_queues(ViId id) {
  Vi& v = vis_[id];
  v.recv_queue.clear();
  v.send_completed.clear();
  v.recv_completed.clear();
}

std::optional<Descriptor> Nic::poll_completed(
    ViId id, Fifo<Descriptor> Vi::*completed) {
  if (!vi_exists(id)) return std::nullopt;
  Fifo<Descriptor>& queue = vis_[id].*completed;
  clock_.advance(costs_.pci_reg_read);  // status poll
  if (queue.empty()) return std::nullopt;
  { const obs::ScopedSpan s(host_.spans(), "via.completion"); }
  return queue.pop_front();
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

DescStatus Nic::deliver(Packet& pkt) {
  // Receiver-side DMA under the sender's trace: the fabric delivers inline
  // (one shared virtual clock), so the ambient context pushed around the
  // transfer is still in scope on this host's recorder.
  const obs::ScopedSpan deliver_span(host_.spans(), "via.dma.deliver");
  // An RdmaRead request carries no data; its payload is the read-back room.
  dma_bytes_.add(pkt.op == DescOp::RdmaRead ? 0 : pkt.payload.size());
  if (!vi_exists(pkt.dst_vi)) return DescStatus::ErrDisconnected;
  Vi& v = vis_[pkt.dst_vi];
  if (!v.connected() || v.peer_node != pkt.src_node || v.peer_vi != pkt.src_vi) {
    return DescStatus::ErrDisconnected;
  }

  // Every error exit counts the error and breaks a reliable VI.
  const auto fail = [&](DescStatus st) {
    if (st == DescStatus::ErrNoRecvDesc) {
      ++stats_.no_recv_desc;
    } else if (st == DescStatus::ErrLength) {
      ++stats_.length_errors;
    } else {
      ++stats_.protection_errors;
    }
    if (v.reliable) break_vi(v);
    return st;
  };

  switch (pkt.op) {
    case DescOp::Send: {
      if (v.recv_queue.empty()) {
        // "A receive descriptor must be posted before the peer starts the
        // send operation. Otherwise the message is dropped and the
        // connection broken" (reliable mode).
        return fail(DescStatus::ErrNoRecvDesc);
      }
      Descriptor rd = v.recv_queue.pop_front();
      if (pkt.payload.size() > rd.local.length) {
        rd.status = DescStatus::ErrLength;
      } else if (!scatter(rd.local, v.tag, pkt.payload)) {
        rd.status = DescStatus::ErrProtection;
      } else {
        rd.status = DescStatus::Done;
        rd.transferred = static_cast<std::uint32_t>(pkt.payload.size());
        rd.immediate = pkt.immediate;
        rd.has_immediate = pkt.has_immediate;
        stats_.bytes_rx += pkt.payload.size();
        ++stats_.recvs_ok;
      }
      const DescStatus st = rd.status;
      complete_recv(v, std::move(rd));
      return st == DescStatus::Done ? st : fail(st);
    }

    case DescOp::RdmaWrite: {
      // RDMA target checked under the *receiving* VI's tag with the
      // rdma_write_enable attribute.
      if (!tpt_copy(pkt.remote.handle, pkt.remote.addr,
                    std::span<const std::byte>(pkt.payload), v.tag,
                    TptAccess::RdmaWrite)) {
        return fail(DescStatus::ErrProtection);
      }
      clock_.advance(costs_.dma_startup);
      stats_.bytes_rx += pkt.payload.size();
      if (pkt.has_immediate) {
        // RDMA write with immediate data consumes a receive descriptor.
        if (v.recv_queue.empty()) return fail(DescStatus::ErrNoRecvDesc);
        Descriptor rd = v.recv_queue.pop_front();
        rd.status = DescStatus::Done;
        rd.transferred = 0;
        rd.immediate = pkt.immediate;
        rd.has_immediate = true;
        complete_recv(v, std::move(rd));
      }
      return DescStatus::Done;
    }

    case DescOp::RdmaRead: {
      if (!tpt_copy(pkt.remote.handle, pkt.remote.addr, pkt.payload, v.tag,
                    TptAccess::RdmaRead)) {
        return fail(DescStatus::ErrProtection);
      }
      clock_.advance(costs_.dma_startup);
      stats_.bytes_tx += pkt.payload.size();
      return DescStatus::Done;
    }

    case DescOp::Recv:
      break;
  }
  return DescStatus::ErrDisconnected;
}

}  // namespace vialock::via
