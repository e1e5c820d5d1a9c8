#include "tree/alphabet.h"

#include <mutex>

#include "util/check.h"

namespace xpwqo {

LabelId Alphabet::Intern(std::string_view name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Re-check: another thread may have interned between the two locks.
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  LabelId id = static_cast<LabelId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string_view(names_.back()), id);
  return id;
}

LabelId Alphabet::Find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoLabel : it->second;
}

const std::string& Alphabet::Name(LabelId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  XPWQO_CHECK(id >= 0 && id < static_cast<LabelId>(names_.size()));
  return names_[id];
}

int Alphabet::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<int>(names_.size());
}

}  // namespace xpwqo
