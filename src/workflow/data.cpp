#include "workflow/data.hpp"

namespace interop::wf {

void SimpleDataManager::write(const std::string& path, std::string content) {
  LogicalTime t = tick();
  files_[path] = {std::move(content), t};
  notify(path, t);
}

std::optional<std::string> SimpleDataManager::read(
    const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.content;
}

std::optional<LogicalTime> SimpleDataManager::timestamp(
    const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.time;
}

std::vector<std::string> SimpleDataManager::list() const {
  std::vector<std::string> out;
  for (const auto& [path, entry] : files_) out.push_back(path);
  return out;
}

void VersioningDataManager::write(const std::string& path,
                                  std::string content) {
  LogicalTime t = tick();
  files_[path].push_back({std::move(content), t});
  notify(path, t);
}

std::optional<std::string> VersioningDataManager::read(
    const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end() || it->second.empty()) return std::nullopt;
  return it->second.back().content;
}

std::optional<LogicalTime> VersioningDataManager::timestamp(
    const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end() || it->second.empty()) return std::nullopt;
  return it->second.back().time;
}

std::vector<std::string> VersioningDataManager::list() const {
  std::vector<std::string> out;
  for (const auto& [path, revs] : files_) out.push_back(path);
  return out;
}

std::size_t VersioningDataManager::revision_count(
    const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.size();
}

std::optional<std::string> VersioningDataManager::read_revision(
    const std::string& path, std::size_t rev) const {
  auto it = files_.find(path);
  if (it == files_.end() || rev == 0 || rev > it->second.size())
    return std::nullopt;
  return it->second[rev - 1].content;
}

void VariablePool::set(const std::string& name, std::string value) {
  vars_[name] = std::move(value);
}

std::optional<std::string> VariablePool::get(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end()) return std::nullopt;
  return it->second;
}

}  // namespace interop::wf
