#include "src/pcs/shared_pcs.h"

#include <map>
#include <mutex>
#include <tuple>

#include "src/base/once_map.h"
#include "src/pcs/ipa.h"
#include "src/pcs/kzg.h"

namespace zkml {
namespace {

// The largest KZG setup built so far for `seed`, grown to max_len if it is
// smaller. A grown setup is a new object, so views of the old one stay valid.
std::shared_ptr<const KzgSetup> SharedKzgSetup(size_t max_len, uint64_t seed) {
  // Never destroyed: backends may still be in use by threads at exit.
  static std::mutex& mu = *new std::mutex;
  static auto& largest = *new std::map<uint64_t, std::shared_ptr<const KzgSetup>>;
  // Growing under the lock is safe: the build's parallel sections only wait
  // on their own tasks, never on another caller of this function.
  std::lock_guard<std::mutex> lock(mu);
  std::shared_ptr<const KzgSetup>& setup = largest[seed];
  if (setup == nullptr || setup->powers.size() < max_len) {
    setup = std::make_shared<const KzgSetup>(KzgSetup::Create(max_len, seed, setup.get()));
  }
  return setup;
}

}  // namespace

std::shared_ptr<const Pcs> SharedPcsBackend(PcsKind kind, size_t max_len, uint64_t seed) {
  using Key = std::tuple<PcsKind, uint64_t, size_t>;
  static auto& backends = *new OnceMap<Key, std::shared_ptr<const Pcs>>;
  return backends.GetOrBuild(Key{kind, seed, max_len}, [&]() -> std::shared_ptr<const Pcs> {
    if (kind == PcsKind::kKzg) {
      return std::make_shared<const KzgPcs>(SharedKzgSetup(max_len, seed), max_len);
    }
    return std::make_shared<const IpaPcs>(
        std::make_shared<const IpaSetup>(IpaSetup::Create(max_len, seed)));
  });
}

size_t OpeningBytes(PcsKind kind, int k) {
  return kind == PcsKind::kKzg ? KzgPcs::OpeningBytes() : IpaPcs::OpeningBytes(k);
}

}  // namespace zkml
