#pragma once
// Data management, architecturally separated from workflow management (§5):
// "services that provide each should not be too tightly linked ... In some
// cases UNIX-based utilities such as SCCS, RCS and make can provide an
// adequate level of data management; in other cases a much more
// sophisticated level is required. This decision should be left to the flow
// developer."
//
// DataManager is the plug point. SimpleDataManager is the make-style
// store (content + logical timestamp); VersioningDataManager is the
// SCCS/RCS-style store (full version chains, checkout by revision).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace interop::wf {

/// Monotonic logical time shared by a whole workflow run.
using LogicalTime = std::uint64_t;

/// Change notification: path + new timestamp.
using DataListener = std::function<void(const std::string&, LogicalTime)>;

/// The abstract data-management service.
class DataManager {
 public:
  virtual ~DataManager() = default;

  /// Store content under `path`. Advances the logical clock.
  virtual void write(const std::string& path, std::string content) = 0;
  /// Latest content, or nullopt when absent.
  virtual std::optional<std::string> read(const std::string& path) const = 0;
  /// Timestamp of the latest write, or nullopt when absent.
  virtual std::optional<LogicalTime> timestamp(
      const std::string& path) const = 0;
  virtual std::vector<std::string> list() const = 0;

  bool exists(const std::string& path) const {
    return timestamp(path).has_value();
  }

  /// Subscribe to writes (the workflow engine's trigger source).
  void add_listener(DataListener fn) { listeners_.push_back(std::move(fn)); }

  virtual LogicalTime now() const { return clock_; }

 protected:
  LogicalTime tick() { return ++clock_; }
  void notify(const std::string& path, LogicalTime t) {
    for (const DataListener& fn : listeners_) fn(path, t);
  }

 private:
  std::vector<DataListener> listeners_;
  LogicalTime clock_ = 0;
};

/// make-style: latest content + timestamp only.
class SimpleDataManager : public DataManager {
 public:
  void write(const std::string& path, std::string content) override;
  std::optional<std::string> read(const std::string& path) const override;
  std::optional<LogicalTime> timestamp(
      const std::string& path) const override;
  std::vector<std::string> list() const override;

 private:
  struct Entry {
    std::string content;
    LogicalTime time;
  };
  std::map<std::string, Entry> files_;
};

/// SCCS/RCS-style: every revision retained.
class VersioningDataManager : public DataManager {
 public:
  void write(const std::string& path, std::string content) override;
  std::optional<std::string> read(const std::string& path) const override;
  std::optional<LogicalTime> timestamp(
      const std::string& path) const override;
  std::vector<std::string> list() const override;

  /// Number of revisions of `path` (0 when absent).
  std::size_t revision_count(const std::string& path) const;
  /// Content of revision `rev` (1-based), or nullopt.
  std::optional<std::string> read_revision(const std::string& path,
                                           std::size_t rev) const;

 private:
  struct Revision {
    std::string content;
    LogicalTime time;
  };
  std::map<std::string, std::vector<Revision>> files_;
};

/// Workflow data variables: metadata proxies "allowing information about
/// the data state and/or value to be stored as metadata separate from the
/// design data" (§5). Owned by the engine, not the data manager.
class VariablePool {
 public:
  void set(const std::string& name, std::string value);
  std::optional<std::string> get(const std::string& name) const;
  bool has(const std::string& name) const { return vars_.count(name) != 0; }
  std::size_t size() const { return vars_.size(); }

 private:
  std::map<std::string, std::string> vars_;
};

}  // namespace interop::wf
