// Single-flight memo map: each key's value is built at most once per map, by
// the first caller that asks for it; callers racing on the same key wait for
// that one build instead of building their own copy.
//
// The builder runs WITHOUT the map's lock held, so builds of different keys
// proceed in parallel and a builder may use the thread pool. Waiters block on
// a condition variable. That cannot deadlock the pool as long as a builder
// does not itself wait on the same key, because TaskGroup::Wait only helps
// its own group's tasks: a builder can always finish its parallel sections
// alone even when every pool worker is blocked here.
#ifndef SRC_BASE_ONCE_MAP_H_
#define SRC_BASE_ONCE_MAP_H_

#include <condition_variable>
#include <map>
#include <mutex>
#include <utility>

namespace zkml {

template <typename K, typename V>
class OnceMap {
 public:
  // Returns the value for `key`, calling build() (which returns a V) if no
  // caller has. The reference stays valid, and the value unchanged, for the
  // map's lifetime.
  template <typename Build>
  const V& GetOrBuild(const K& key, Build&& build) const {
    std::unique_lock<std::mutex> lock(mu_);
    auto [it, inserted] = slots_.try_emplace(key);
    Slot& slot = it->second;
    if (!inserted) {
      built_.wait(lock, [&] { return slot.ready; });
      return slot.value;
    }
    lock.unlock();
    V value = build();
    lock.lock();
    slot.value = std::move(value);
    slot.ready = true;
    built_.notify_all();
    return slot.value;
  }

 private:
  struct Slot {
    bool ready = false;
    V value{};
  };

  mutable std::mutex mu_;
  mutable std::condition_variable built_;
  mutable std::map<K, Slot> slots_;  // node-based: slot references stay stable
};

}  // namespace zkml

#endif  // SRC_BASE_ONCE_MAP_H_
