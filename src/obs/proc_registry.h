// proc_registry.h - the single /proc registration interface.
//
// Before this existed every status exporter grew bespoke plumbing: simkern's
// meminfo/vmstat were free functions, /proc/pinmgr another, the agent and
// regcache dumps a third style. Now a component mounts a node once -
// mount(path, owner, render) - and every reader (examples, tests, bench
// --metrics dumps) goes through read()/ls()/read_all(). /proc/metrics and any
// future node register exactly the same way.
//
// Owner tags make rebuild sequences safe: mounting an existing path takes it
// over, and unmount() is a no-op unless the caller still owns the path - so
// "construct replacement, destroy original" (Node::enable_governor
// replacing a governor) never unmounts the replacement's node.
//
// Render callbacks run at read() time, so the text always reflects current
// counters; paths are kept in an ordered map, so ls()/read_all() are
// deterministic.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vialock::obs {

class ProcRegistry {
 public:
  using RenderFn = std::function<std::string()>;

  ProcRegistry() = default;
  ProcRegistry(const ProcRegistry&) = delete;
  ProcRegistry& operator=(const ProcRegistry&) = delete;

  /// Mount `render` at `path` (e.g. "vmstat", "via/agent"). An existing path
  /// is taken over by the new owner.
  void mount(std::string path, const void* owner, RenderFn render);

  /// Remove `path` if - and only if - `owner` still owns it.
  void unmount(std::string_view path, const void* owner);

  /// Render one node; nullopt when nothing is mounted at `path`.
  [[nodiscard]] std::optional<std::string> read(std::string_view path) const;

  /// All mounted paths, sorted.
  [[nodiscard]] std::vector<std::string> ls() const;

  /// Every node, concatenated as "== /proc/<path> ==" sections (debug dumps).
  [[nodiscard]] std::string read_all() const;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  struct Node {
    const void* owner = nullptr;
    RenderFn render;
  };

  std::map<std::string, Node, std::less<>> nodes_;
};

}  // namespace vialock::obs
